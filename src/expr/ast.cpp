#include "expr/ast.h"

#include <sstream>

namespace pnut::expr {

namespace {

/// Run a statement list against a local frame. Returns the value of the
/// first `return` executed, or nullopt when the list runs to completion.
std::optional<std::int64_t> exec_statements(const std::vector<Statement>& statements,
                                            const EvalContext& ctx,
                                            std::int64_t* frame) {
  for (const Statement& stmt : statements) {
    switch (stmt.kind) {
      case Statement::Kind::kAssign: {
        // Value before index — the historical evaluation order, pinned by
        // the differential tests.
        const std::int64_t value = stmt.value->eval(ctx);
        if (stmt.slot >= 0) {
          if (stmt.index) {
            const std::int64_t index = stmt.index->eval(ctx);
            if (index < 0 || index >= stmt.extent) {
              throw EvalError("index " + std::to_string(index) +
                              " out of bounds for array '" + stmt.target +
                              "' of extent " + std::to_string(stmt.extent));
            }
            frame[stmt.slot + index] = value;
          } else {
            frame[stmt.slot] = value;
          }
        } else if (stmt.index) {
          const std::int64_t index = stmt.index->eval(ctx);
          try {
            ctx.mutable_data->set_table_entry(stmt.target, index, value);
          } catch (const std::out_of_range& e) {
            throw EvalError(e.what());
          }
        } else {
          ctx.mutable_data->set(stmt.target, value);
        }
        break;
      }
      case Statement::Kind::kLet:
        frame[stmt.slot] = stmt.value->eval(ctx);
        break;
      case Statement::Kind::kLetArray:
        for (std::int64_t i = 0; i < stmt.extent; ++i) frame[stmt.slot + i] = 0;
        break;
      case Statement::Kind::kFor: {
        frame[stmt.slot] = stmt.lo;
        for (std::uint64_t n = stmt.trip_count; n > 0; --n) {
          if (auto returned = exec_statements(stmt.body, ctx, frame)) {
            return returned;
          }
          frame[stmt.slot] = wrap_add(frame[stmt.slot], 1);
        }
        break;
      }
      case Statement::Kind::kReturn:
        return stmt.value->eval(ctx);
    }
  }
  return std::nullopt;
}

void render_statement(std::ostringstream& out, const Statement& stmt, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  switch (stmt.kind) {
    case Statement::Kind::kAssign:
      out << pad << stmt.target;
      if (stmt.index) out << '[' << stmt.index->to_string() << ']';
      out << " = " << stmt.value->to_string() << ";\n";
      break;
    case Statement::Kind::kLet:
      out << pad << "let " << stmt.target << " = " << stmt.value->to_string()
          << ";\n";
      break;
    case Statement::Kind::kLetArray:
      out << pad << "let " << stmt.target << '[' << stmt.extent << "];\n";
      break;
    case Statement::Kind::kFor:
      out << pad << "for " << stmt.target << " = " << stmt.lo << " to " << stmt.hi
          << " {\n";
      for (const Statement& inner : stmt.body) {
        render_statement(out, inner, indent + 1);
      }
      out << pad << "}\n";
      break;
    case Statement::Kind::kReturn:
      out << pad << "return " << stmt.value->to_string() << ";\n";
      break;
  }
}

}  // namespace

std::string FunctionDef::to_string() const {
  std::ostringstream out;
  out << "fn " << name << '(';
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out << ", ";
    out << params[i];
  }
  out << ") {\n";
  for (const Statement& stmt : body) render_statement(out, stmt, 1);
  out << "}\n";
  return out.str();
}

const std::shared_ptr<const FunctionDef>* FunctionLibrary::find(
    std::string_view name) const {
  for (auto it = functions.rbegin(); it != functions.rend(); ++it) {
    if ((*it)->name == name) return &*it;
  }
  return nullptr;
}

std::int64_t IdentifierNode::eval(const EvalContext& ctx) const {
  if (local_slot_ >= 0) return ctx.locals[local_slot_];
  if (ctx.resolve_identifier) {
    if (auto v = ctx.resolve_identifier(name_)) return *v;
  }
  if (ctx.data != nullptr && ctx.data->has(name_)) return ctx.data->get(name_);
  throw EvalError("unknown identifier '" + name_ + "'");
}

std::int64_t CallNode::eval(const EvalContext& ctx) const {
  std::vector<std::int64_t> values;
  values.reserve(args_.size());
  for (const NodePtr& a : args_) values.push_back(a->eval(ctx));

  if (kind_ == CallKind::kLocalArray) {
    const std::int64_t index = values[0];  // exactly one arg, parser-checked
    if (index < 0 || index >= array_extent_) {
      throw EvalError("index " + std::to_string(index) + " out of bounds for array '" +
                      name_ + "' of extent " + std::to_string(array_extent_));
    }
    return ctx.locals[array_slot_ + index];
  }
  if (kind_ == CallKind::kFunction) {
    // Fresh frame: parameters first, remaining slots zero. The callee sees
    // the caller's data/rng/resolvers but never its locals.
    std::vector<std::int64_t> frame(fn_->frame_slots, 0);
    for (std::size_t i = 0; i < values.size(); ++i) frame[i] = values[i];
    EvalContext inner = ctx;
    inner.locals = frame.data();
    const auto returned = exec_statements(fn_->body, inner, frame.data());
    return returned.value_or(0);
  }

  // Builtins first.
  if (name_ == "irand") {
    if (values.size() != 2) {
      throw EvalError("irand expects 2 arguments, got " + std::to_string(values.size()));
    }
    if (ctx.rng == nullptr) {
      throw EvalError("irand is not allowed here (no random source; predicates "
                      "must be deterministic)");
    }
    if (values[0] > values[1]) {
      throw EvalError("irand: empty range [" + std::to_string(values[0]) + ", " +
                      std::to_string(values[1]) + "]");
    }
    return ctx.rng->next_int(values[0], values[1]);
  }
  // min/max/abs are reserved builtin names: a wrong argument count is an
  // arity error, not a fall-through to table lookup (which used to surface
  // as a baffling "unknown table 'min'").
  if (name_ == "min" || name_ == "max") {
    if (values.size() != 2) {
      throw EvalError(name_ + " expects 2 arguments, got " +
                      std::to_string(values.size()));
    }
    return name_ == "min" ? std::min(values[0], values[1])
                          : std::max(values[0], values[1]);
  }
  if (name_ == "abs") {
    if (values.size() != 1) {
      throw EvalError("abs expects 1 argument, got " + std::to_string(values.size()));
    }
    return values[0] < 0 ? wrap_neg(values[0]) : values[0];
  }

  if (ctx.resolve_call) {
    if (auto v = ctx.resolve_call(name_, values)) return *v;
  }

  // Table read: name[index].
  if (values.size() == 1 && ctx.data != nullptr && ctx.data->has_table(name_)) {
    try {
      return ctx.data->get_table(name_, values[0]);
    } catch (const std::out_of_range& e) {
      throw EvalError(e.what());
    }
  }

  throw EvalError("unknown function or table '" + name_ + "' with " +
                  std::to_string(values.size()) + " argument(s)");
}

std::string CallNode::to_string() const {
  std::ostringstream out;
  out << name_ << '[';
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out << ", ";
    out << args_[i]->to_string();
  }
  out << ']';
  return out.str();
}

std::int64_t UnaryNode::eval(const EvalContext& ctx) const {
  const std::int64_t v = operand_->eval(ctx);
  switch (op_) {
    case UnaryOp::kNeg: return wrap_neg(v);
    case UnaryOp::kNot: return v == 0 ? 1 : 0;
  }
  return 0;  // unreachable
}

std::string UnaryNode::to_string() const {
  return std::string(op_ == UnaryOp::kNeg ? "-" : "!") + "(" + operand_->to_string() + ")";
}

std::int64_t BinaryNode::eval(const EvalContext& ctx) const {
  // Short-circuit logical operators.
  if (op_ == BinaryOp::kAnd) {
    return (lhs_->eval(ctx) != 0 && rhs_->eval(ctx) != 0) ? 1 : 0;
  }
  if (op_ == BinaryOp::kOr) {
    return (lhs_->eval(ctx) != 0 || rhs_->eval(ctx) != 0) ? 1 : 0;
  }
  const std::int64_t a = lhs_->eval(ctx);
  const std::int64_t b = rhs_->eval(ctx);
  switch (op_) {
    case BinaryOp::kAdd: return wrap_add(a, b);
    case BinaryOp::kSub: return wrap_sub(a, b);
    case BinaryOp::kMul: return wrap_mul(a, b);
    case BinaryOp::kDiv: return checked_div(a, b);
    case BinaryOp::kMod: return checked_mod(a, b);
    case BinaryOp::kEq: return a == b ? 1 : 0;
    case BinaryOp::kNe: return a != b ? 1 : 0;
    case BinaryOp::kLt: return a < b ? 1 : 0;
    case BinaryOp::kLe: return a <= b ? 1 : 0;
    case BinaryOp::kGt: return a > b ? 1 : 0;
    case BinaryOp::kGe: return a >= b ? 1 : 0;
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      break;  // handled above
  }
  return 0;  // unreachable
}

std::string BinaryNode::to_string() const {
  const char* op = "?";
  switch (op_) {
    case BinaryOp::kAdd: op = "+"; break;
    case BinaryOp::kSub: op = "-"; break;
    case BinaryOp::kMul: op = "*"; break;
    case BinaryOp::kDiv: op = "/"; break;
    case BinaryOp::kMod: op = "%"; break;
    case BinaryOp::kEq: op = "=="; break;
    case BinaryOp::kNe: op = "!="; break;
    case BinaryOp::kLt: op = "<"; break;
    case BinaryOp::kLe: op = "<="; break;
    case BinaryOp::kGt: op = ">"; break;
    case BinaryOp::kGe: op = ">="; break;
    case BinaryOp::kAnd: op = "&&"; break;
    case BinaryOp::kOr: op = "||"; break;
  }
  return "(" + lhs_->to_string() + " " + op + " " + rhs_->to_string() + ")";
}

void Program::execute(const EvalContext& ctx) const {
  if (ctx.mutable_data == nullptr) {
    throw EvalError("cannot execute assignments without a mutable data context");
  }
  if (frame_slots == 0) {
    exec_statements(statements, ctx, nullptr);
    return;
  }
  std::vector<std::int64_t> frame(frame_slots, 0);
  EvalContext inner = ctx;
  inner.locals = frame.data();
  exec_statements(statements, inner, frame.data());
}

std::string Program::to_string() const {
  std::ostringstream out;
  for (const auto& fn : local_fns) out << fn->to_string();
  for (const Statement& stmt : statements) render_statement(out, stmt, 0);
  return out.str();
}

}  // namespace pnut::expr
