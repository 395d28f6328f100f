#include "expr/program.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

namespace pnut::expr {

namespace {

/// Transitively collect every FunctionDef reachable from an AST (call nodes
/// resolved by the parser carry their callee). One parse's definitions have
/// strictly increasing indices along call edges, so sorting by index gives
/// a compile order in which every callee precedes its callers.
void collect_fns(const Node& node,
                 std::map<const FunctionDef*, std::shared_ptr<const FunctionDef>>& out);

void collect_fns(const std::vector<Statement>& statements,
                 std::map<const FunctionDef*, std::shared_ptr<const FunctionDef>>& out) {
  for (const Statement& stmt : statements) {
    if (stmt.index) collect_fns(*stmt.index, out);
    if (stmt.value) collect_fns(*stmt.value, out);
    collect_fns(stmt.body, out);
  }
}

void collect_fns(const Node& node,
                 std::map<const FunctionDef*, std::shared_ptr<const FunctionDef>>& out) {
  for_each_child(node, [&](const Node& child) { collect_fns(child, out); });
  const auto* call = dynamic_cast<const CallNode*>(&node);
  if (call != nullptr && call->kind() == CallKind::kFunction) {
    const auto [it, inserted] = out.try_emplace(call->fn().get(), call->fn());
    if (inserted) collect_fns(call->fn()->body, out);
  }
}

/// One-pass AST -> bytecode lowering with static stack-depth tracking.
/// Function bodies are compiled first (callees before callers), then the
/// main unit; max_stack composes each call site's operand depth with the
/// callee's whole-frame height, so the VM never bounds-checks its stack.
class ExprCompiler {
 public:
  ExprCompiler(const DataSchema& schema, std::string* diagnostic)
      : schema_(schema), diagnostic_(diagnostic) {}

  /// Compile every function reachable from the given roots, in index order.
  void compile_functions(
      const std::map<const FunctionDef*, std::shared_ptr<const FunctionDef>>& fns) {
    std::vector<std::shared_ptr<const FunctionDef>> ordered;
    ordered.reserve(fns.size());
    for (const auto& [ptr, def] : fns) ordered.push_back(def);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a->index < b->index; });
    for (const auto& def : ordered) compile_function(*def);
  }

  /// Mark the start of the main unit (after any function bodies).
  void begin_main(std::uint32_t frame_slots) {
    code_.entry = static_cast<std::uint32_t>(code_.instrs.size());
    code_.frame_slots = frame_slots;
  }

  void compile_expr(const Node& node) {
    if (const auto* num = dynamic_cast<const NumberNode*>(&node)) {
      emit(Op::kConst, add_const(num->value()), 0, +1);
      return;
    }
    if (const auto* ident = dynamic_cast<const IdentifierNode*>(&node)) {
      if (ident->local_slot() >= 0) {
        emit(Op::kLoadLocal, ident->local_slot(), 0, +1);
        return;
      }
      if (const auto slot = schema_.scalar_slot(ident->name())) {
        emit(Op::kLoadSlot, static_cast<std::int32_t>(*slot),
             add_name(ident->name()), +1);
      } else {
        // The name can never exist (the schema is the complete universe):
        // defer its error to evaluation time.
        emit(Op::kThrowIdent, add_name(ident->name()), 0, +1);
      }
      return;
    }
    if (const auto* call = dynamic_cast<const CallNode*>(&node)) {
      compile_call(*call);
      return;
    }
    if (const auto* unary = dynamic_cast<const UnaryNode*>(&node)) {
      compile_expr(unary->operand());
      emit(unary->op() == UnaryOp::kNeg ? Op::kNeg : Op::kNot, 0, 0, 0);
      return;
    }
    if (const auto* binary = dynamic_cast<const BinaryNode*>(&node)) {
      compile_binary(*binary);
      return;
    }
    throw CompileError("unsupported expression node: " + node.to_string());
  }

  void compile_statement(const Statement& stmt) {
    switch (stmt.kind) {
      case Statement::Kind::kAssign:
        // Value first, then (for indexed writes) the index.
        compile_expr(*stmt.value);
        if (stmt.slot >= 0) {
          if (stmt.index) {
            compile_expr(*stmt.index);
            emit(Op::kStoreLocalArr, add_local_array(stmt), 0, -2);
          } else {
            emit(Op::kStoreLocal, stmt.slot, 0, -1);
          }
        } else if (stmt.index) {
          compile_expr(*stmt.index);
          if (const auto ti = schema_.table_index(stmt.target)) {
            emit(Op::kStoreTable, add_table(*ti), 0, -2);
          } else {
            // Actions cannot create tables: raise DataContext's unknown-table
            // error if the assignment ever runs.
            emit(Op::kThrowTable, add_name(stmt.target), 0, -2);
          }
        } else {
          const auto slot = schema_.scalar_slot(stmt.target);
          if (!slot) {
            throw CompileError("assignment target '" + stmt.target +
                               "' is not in the schema");
          }
          emit(Op::kStoreSlot, static_cast<std::int32_t>(*slot), 0, -1);
        }
        break;
      case Statement::Kind::kLet:
        compile_expr(*stmt.value);
        emit(Op::kStoreLocal, stmt.slot, 0, -1);
        break;
      case Statement::Kind::kLetArray:
        emit(Op::kZeroLocalArr, add_local_array(stmt), 0, 0);
        break;
      case Statement::Kind::kFor: {
        // i = lo; count = trips; while (count) { body; ++i; --count; }
        // A hidden counter (parser-allocated slot) counts the statically
        // bounded trips, so a `hi` at the int64 edge cannot wrap a compare.
        emit(Op::kConst, add_const(stmt.lo), 0, +1);
        emit(Op::kStoreLocal, stmt.slot, 0, -1);
        emit(Op::kConst, add_const(static_cast<std::int64_t>(stmt.trip_count)), 0, +1);
        emit(Op::kStoreLocal, stmt.counter_slot, 0, -1);
        const auto loop_top = static_cast<std::int32_t>(code_.instrs.size());
        emit(Op::kLoadLocal, stmt.counter_slot, 0, +1);
        const std::size_t exit_branch = code_.instrs.size();
        emit(Op::kJumpIfZero, 0, 0, -1);
        for (const Statement& inner : stmt.body) compile_statement(inner);
        emit(Op::kLoadLocal, stmt.slot, 0, +1);
        emit(Op::kConst, add_const(1), 0, +1);
        emit(Op::kAdd, 0, 0, -1);
        emit(Op::kStoreLocal, stmt.slot, 0, -1);
        emit(Op::kLoadLocal, stmt.counter_slot, 0, +1);
        emit(Op::kConst, add_const(1), 0, +1);
        emit(Op::kSub, 0, 0, -1);
        emit(Op::kStoreLocal, stmt.counter_slot, 0, -1);
        emit(Op::kJump, loop_top, 0, 0);
        code_.instrs[exit_branch].a = static_cast<std::int32_t>(code_.instrs.size());
        break;
      }
      case Statement::Kind::kReturn:
        compile_expr(*stmt.value);
        emit(Op::kReturn, 0, 0, -1);
        break;
    }
  }

  [[nodiscard]] Code take() {
    code_.max_stack = code_.frame_slots + unit_peak_;
    return std::move(code_);
  }

 private:
  void compile_function(const FunctionDef& def) {
    if (fn_infos_.count(&def) != 0) return;
    const int saved_depth = std::exchange(depth_, 0);
    const std::uint32_t saved_peak = std::exchange(unit_peak_, 0);

    FnInfo info;
    info.index = static_cast<std::int32_t>(code_.functions.size());
    Code::FnRef ref;
    ref.entry = static_cast<std::uint32_t>(code_.instrs.size());
    ref.nparams = static_cast<std::uint32_t>(def.params.size());
    ref.frame_slots = def.frame_slots;
    ref.name = static_cast<std::uint32_t>(add_name(def.name));
    code_.functions.push_back(ref);
    // Registered before the body so the body's call sites (always to
    // earlier, already-compiled definitions) resolve; height is patched in
    // below once the body's operand peak is known.
    fn_infos_.emplace(&def, info);

    for (const Statement& stmt : def.body) compile_statement(stmt);
    // Falling off the end returns 0.
    emit(Op::kConst, add_const(0), 0, +1);
    emit(Op::kReturn, 0, 0, -1);

    fn_infos_[&def].height = def.frame_slots + unit_peak_;
    depth_ = saved_depth;
    unit_peak_ = saved_peak;
  }

  void compile_call(const CallNode& call) {
    if (call.kind() == CallKind::kLocalArray) {
      compile_expr(*call.args()[0]);
      emit(Op::kLoadLocalArr, add_local_array_ref(call), 0, 0);
      return;
    }
    if (call.kind() == CallKind::kFunction) {
      for (const NodePtr& a : call.args()) compile_expr(*a);
      const auto it = fn_infos_.find(call.fn().get());
      if (it == fn_infos_.end()) {
        throw CompileError("internal: function '" + call.name() +
                           "' was not pre-compiled");
      }
      const auto nargs = static_cast<std::int32_t>(call.args().size());
      // The callee's whole frame sits above our current operands (minus the
      // arguments it consumes) — fold that into this unit's peak.
      unit_peak_ = std::max(
          unit_peak_, static_cast<std::uint32_t>(std::max(0, depth_ - nargs)) +
                          it->second.height);
      emit(Op::kCall, it->second.index, nargs, 1 - static_cast<int>(nargs));
      return;
    }
    const std::string& name = call.name();
    const auto& args = call.args();
    const bool binary_builtin = name == "irand" || name == "min" || name == "max";
    if (binary_builtin || name == "abs") {
      const std::size_t want = binary_builtin ? 2 : 1;
      for (const NodePtr& a : args) compile_expr(*a);
      if (args.size() != want) {
        // Every argument is computed, then the arity error is raised. The
        // throw instruction only fires if evaluated.
        std::string message = name + " expects " + std::to_string(want) + " argument" +
                              (want == 1 ? "" : "s") + ", got " +
                              std::to_string(args.size());
        if (diagnostic_ != nullptr && diagnostic_->empty()) *diagnostic_ = message;
        emit(Op::kThrowArity, add_name(message), static_cast<std::int32_t>(args.size()),
             1 - static_cast<int>(args.size()));
      } else if (name == "irand") {
        emit(Op::kIrand, 0, 0, -1);
      } else if (name == "abs") {
        emit(Op::kAbs, 0, 0, 0);
      } else {
        emit(name == "min" ? Op::kMin : Op::kMax, 0, 0, -1);
      }
      return;
    }
    if (args.size() == 1) {
      if (const auto ti = schema_.table_index(name)) {
        compile_expr(*args[0]);
        emit(Op::kLoadTable, add_table(*ti), 0, 0);
        return;
      }
    }
    // Unknown name (or a table called with the wrong argument count): every
    // argument is computed first, then the call throws — the argument side
    // effects (rng draws) happen before the error.
    for (const NodePtr& a : args) compile_expr(*a);
    emit(Op::kThrowCall, add_name(name), static_cast<std::int32_t>(args.size()),
         1 - static_cast<int>(args.size()));
  }

  void compile_binary(const BinaryNode& node) {
    if (node.op() == BinaryOp::kAnd || node.op() == BinaryOp::kOr) {
      compile_expr(node.lhs());
      const std::size_t branch = code_.instrs.size();
      emit(node.op() == BinaryOp::kAnd ? Op::kAndFalse : Op::kOrTrue, 0, 0, -1);
      compile_expr(node.rhs());
      emit(Op::kToBool, 0, 0, 0);
      // Short-circuit target: just past the rhs (both paths leave one 0/1).
      code_.instrs[branch].a = static_cast<std::int32_t>(code_.instrs.size());
      return;
    }
    compile_expr(node.lhs());
    compile_expr(node.rhs());
    Op op = Op::kAdd;
    switch (node.op()) {
      case BinaryOp::kAdd: op = Op::kAdd; break;
      case BinaryOp::kSub: op = Op::kSub; break;
      case BinaryOp::kMul: op = Op::kMul; break;
      case BinaryOp::kDiv: op = Op::kDiv; break;
      case BinaryOp::kMod: op = Op::kMod; break;
      case BinaryOp::kEq: op = Op::kEq; break;
      case BinaryOp::kNe: op = Op::kNe; break;
      case BinaryOp::kLt: op = Op::kLt; break;
      case BinaryOp::kLe: op = Op::kLe; break;
      case BinaryOp::kGt: op = Op::kGt; break;
      case BinaryOp::kGe: op = Op::kGe; break;
      case BinaryOp::kAnd:
      case BinaryOp::kOr: break;  // handled above
    }
    emit(op, 0, 0, -1);
  }

  void emit(Op op, std::int32_t a, std::int32_t b, int stack_delta) {
    code_.instrs.push_back(Instr{op, a, b});
    depth_ += stack_delta;
    unit_peak_ = std::max(unit_peak_,
                          static_cast<std::uint32_t>(depth_ > 0 ? depth_ : 0));
  }

  std::int32_t add_const(std::int64_t v) {
    for (std::size_t i = 0; i < code_.consts.size(); ++i) {
      if (code_.consts[i] == v) return static_cast<std::int32_t>(i);
    }
    code_.consts.push_back(v);
    return static_cast<std::int32_t>(code_.consts.size() - 1);
  }

  std::int32_t add_name(const std::string& name) {
    for (std::size_t i = 0; i < code_.names.size(); ++i) {
      if (code_.names[i] == name) return static_cast<std::int32_t>(i);
    }
    code_.names.push_back(name);
    return static_cast<std::int32_t>(code_.names.size() - 1);
  }

  std::int32_t add_table(std::uint32_t schema_table) {
    const DataSchema::Table& t = schema_.tables()[schema_table];
    const std::int32_t name = add_name(t.name);
    // Dedup by name id (unique per table) — a zero-size table shares its
    // base with the table laid out right after it.
    for (std::size_t i = 0; i < code_.tables.size(); ++i) {
      if (code_.tables[i].name == static_cast<std::uint32_t>(name)) {
        return static_cast<std::int32_t>(i);
      }
    }
    code_.tables.push_back(
        Code::TableRef{t.base, t.size, static_cast<std::uint32_t>(name)});
    return static_cast<std::int32_t>(code_.tables.size() - 1);
  }

  std::int32_t add_local_array(std::uint32_t slot, std::int64_t extent,
                               const std::string& name) {
    const auto name_id = static_cast<std::uint32_t>(add_name(name));
    for (std::size_t i = 0; i < code_.local_arrays.size(); ++i) {
      if (code_.local_arrays[i].slot == slot && code_.local_arrays[i].name == name_id) {
        return static_cast<std::int32_t>(i);
      }
    }
    code_.local_arrays.push_back(Code::LocalArrayRef{
        slot, static_cast<std::uint32_t>(extent), name_id});
    return static_cast<std::int32_t>(code_.local_arrays.size() - 1);
  }

  std::int32_t add_local_array(const Statement& stmt) {
    return add_local_array(static_cast<std::uint32_t>(stmt.slot), stmt.extent,
                           stmt.target);
  }

  std::int32_t add_local_array_ref(const CallNode& call) {
    return add_local_array(static_cast<std::uint32_t>(call.array_slot()),
                           call.array_extent(), call.name());
  }

  struct FnInfo {
    std::int32_t index = 0;     ///< into Code::functions
    std::uint32_t height = 0;   ///< frame_slots + operand peak, transitive
  };

  const DataSchema& schema_;
  std::string* diagnostic_;  ///< first builtin arity mistake, if non-null
  Code code_;
  std::map<const FunctionDef*, FnInfo> fn_infos_;
  int depth_ = 0;
  std::uint32_t unit_peak_ = 0;  ///< max operand depth of the current unit
};

}  // namespace

Code compile_expression(const Node& ast, const DataSchema& schema,
                        std::string* diagnostic) {
  std::map<const FunctionDef*, std::shared_ptr<const FunctionDef>> fns;
  collect_fns(ast, fns);
  ExprCompiler compiler(schema, diagnostic);
  compiler.compile_functions(fns);
  compiler.begin_main(0);
  compiler.compile_expr(ast);
  return compiler.take();
}

Code compile_program(const Program& program, const DataSchema& schema,
                     std::string* diagnostic) {
  std::map<const FunctionDef*, std::shared_ptr<const FunctionDef>> fns;
  collect_fns(program.statements, fns);
  ExprCompiler compiler(schema, diagnostic);
  compiler.compile_functions(fns);
  compiler.begin_main(program.frame_slots);
  for (const Statement& stmt : program.statements) compiler.compile_statement(stmt);
  return compiler.take();
}

namespace {

/// Scalars an action program can create: every non-indexed assignment to
/// net-level data, anywhere in the statement tree (loop bodies included —
/// function bodies cannot assign globals, so they need no scan).
void collect_created(const std::vector<Statement>& statements,
                     std::vector<std::string>& out) {
  for (const Statement& stmt : statements) {
    if (stmt.kind == Statement::Kind::kAssign && stmt.slot < 0 && !stmt.index) {
      out.push_back(stmt.target);
    }
    collect_created(stmt.body, out);
  }
}

}  // namespace

std::shared_ptr<const NetProgram> NetProgram::compile(const Net& net,
                                                      std::string* error) {
  const std::size_t n = net.num_transitions();

  // The variable universe: initial data plus every scalar assignment
  // target (syntactically known; tables cannot be created by actions).
  std::vector<std::string> created;
  for (const Transition& t : net.transitions()) {
    if (t.action) collect_created(t.action.program->statements, created);
  }

  auto result = std::make_shared<NetProgram>();
  result->schema_ = DataSchema::build(net.initial_data(), created);
  result->initial_frame_ = result->schema_.make_frame(net.initial_data());
  result->predicates_.resize(n);
  result->actions_.resize(n);
  result->firing_delays_.resize(n);
  result->enabling_delays_.resize(n);
  const DataSchema& schema = result->schema_;
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = net.transitions()[i];
    // Reports the net's first builtin arity mistake, naming the hook; the
    // code itself raises it lazily, only if that hook is ever evaluated.
    std::string diagnostic;
    const auto note = [&](const char* what) {
      if (error != nullptr && error->empty() && !diagnostic.empty()) {
        *error = "transition '" + t.name + "' " + what + ": " + diagnostic;
      }
      diagnostic.clear();
    };
    if (t.predicate) {
      result->predicates_[i] = compile_expression(*t.predicate.ast, schema, &diagnostic);
      note("predicate");
    }
    if (t.action) {
      result->actions_[i] = compile_program(*t.action.program, schema, &diagnostic);
      note("action");
    }
    if (t.firing_time.kind() == DelaySpec::Kind::kComputed) {
      result->firing_delays_[i] =
          compile_expression(*t.firing_time.computed_delay().ast, schema, &diagnostic);
      note("firing delay");
    }
    if (t.enabling_time.kind() == DelaySpec::Kind::kComputed) {
      result->enabling_delays_[i] =
          compile_expression(*t.enabling_time.computed_delay().ast, schema, &diagnostic);
      note("enabling delay");
    }
  }
  return result;
}

}  // namespace pnut::expr
