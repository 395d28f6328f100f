// The tree-walking evaluator of the expression AST: the test oracle the
// bytecode VM (src/expr/vm.h) is differentially checked against. Nothing in
// src/ evaluates a tree — every expression runs as bytecode — so this
// second, independent spelling of the language's semantics lives here.
//
// It walks the AST directly, dispatching on the node type with
// dynamic_cast as the compiler (src/expr/program.cpp) does, and reads and
// writes a string-keyed DataContext instead of a slot frame. Operators go
// through expr::apply_binary / apply_unary, the one operator kernel; the
// name resolution, argument order, short-circuiting, builtins, local
// frames, loops and every error text are spelled out independently here,
// and tests/expr_vm_test.cpp pins them equal to the VM's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "expr/ast.h"
#include "petri/data_context.h"
#include "petri/rng.h"

namespace pnut::test_support {

/// Environment an expression evaluates in.
struct AstEnv {
  /// Variable and table reads; null makes every data name unknown.
  const DataContext* data = nullptr;
  /// Assignment target for statements; null makes ast_execute an error.
  DataContext* mutable_data = nullptr;
  /// Random source for `irand`; null makes `irand` an error (predicates
  /// must be side-effect free and deterministic).
  Rng* rng = nullptr;
  /// Current local frame (parameters, lets, arrays), indexed by the
  /// parser-assigned slot; set by ast_execute and function calls.
  const std::int64_t* locals = nullptr;
};

std::int64_t ast_eval(const expr::Node& node, const AstEnv& env);

namespace detail {

/// Run a statement list against a local frame. Returns the value of the
/// first `return` executed, or nullopt when the list runs to completion.
inline std::optional<std::int64_t> exec_statements(
    const std::vector<expr::Statement>& statements, const AstEnv& env,
    std::int64_t* frame) {
  using expr::EvalError;
  using expr::Statement;
  for (const Statement& stmt : statements) {
    switch (stmt.kind) {
      case Statement::Kind::kAssign: {
        // Value before index.
        const std::int64_t value = ast_eval(*stmt.value, env);
        if (stmt.slot >= 0) {
          if (stmt.index) {
            const std::int64_t index = ast_eval(*stmt.index, env);
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
          const std::int64_t index = ast_eval(*stmt.index, env);
          try {
            env.mutable_data->set_table_entry(stmt.target, index, value);
          } catch (const std::out_of_range& e) {
            throw EvalError(e.what());
          }
        } else {
          env.mutable_data->set(stmt.target, value);
        }
        break;
      }
      case Statement::Kind::kLet:
        frame[stmt.slot] = ast_eval(*stmt.value, env);
        break;
      case Statement::Kind::kLetArray:
        for (std::int64_t i = 0; i < stmt.extent; ++i) frame[stmt.slot + i] = 0;
        break;
      case Statement::Kind::kFor: {
        frame[stmt.slot] = stmt.lo;
        for (std::uint64_t n = stmt.trip_count; n > 0; --n) {
          if (auto returned = exec_statements(stmt.body, env, frame)) return returned;
          frame[stmt.slot] = expr::wrap_add(frame[stmt.slot], 1);
        }
        break;
      }
      case Statement::Kind::kReturn:
        return ast_eval(*stmt.value, env);
    }
  }
  return std::nullopt;
}

inline std::int64_t eval_call(const expr::CallNode& call, const AstEnv& env) {
  using expr::CallKind;
  using expr::EvalError;
  const std::string& name = call.name();
  std::vector<std::int64_t> values;
  values.reserve(call.args().size());
  for (const expr::NodePtr& a : call.args()) values.push_back(ast_eval(*a, env));

  if (call.kind() == CallKind::kLocalArray) {
    const std::int64_t index = values[0];  // exactly one arg, parser-checked
    if (index < 0 || index >= call.array_extent()) {
      throw EvalError("index " + std::to_string(index) + " out of bounds for array '" +
                      name + "' of extent " + std::to_string(call.array_extent()));
    }
    return env.locals[call.array_slot() + index];
  }
  if (call.kind() == CallKind::kFunction) {
    // Fresh frame: parameters first, remaining slots zero. The callee sees
    // the caller's data and rng but never its locals.
    std::vector<std::int64_t> frame(call.fn()->frame_slots, 0);
    std::copy(values.begin(), values.end(), frame.begin());
    AstEnv inner = env;
    inner.locals = frame.data();
    return exec_statements(call.fn()->body, inner, frame.data()).value_or(0);
  }

  if (name == "irand") {
    if (values.size() != 2) {
      throw EvalError("irand expects 2 arguments, got " + std::to_string(values.size()));
    }
    if (env.rng == nullptr) {
      throw EvalError("irand is not allowed here (no random source; predicates "
                      "must be deterministic)");
    }
    if (values[0] > values[1]) {
      throw EvalError("irand: empty range [" + std::to_string(values[0]) + ", " +
                      std::to_string(values[1]) + "]");
    }
    return env.rng->next_int(values[0], values[1]);
  }
  // min/max/abs are reserved builtin names: a wrong argument count is an
  // arity error, never a table lookup.
  if (name == "min" || name == "max") {
    if (values.size() != 2) {
      throw EvalError(name + " expects 2 arguments, got " + std::to_string(values.size()));
    }
    return name == "min" ? std::min(values[0], values[1]) : std::max(values[0], values[1]);
  }
  if (name == "abs") {
    if (values.size() != 1) {
      throw EvalError("abs expects 1 argument, got " + std::to_string(values.size()));
    }
    return values[0] < 0 ? expr::wrap_neg(values[0]) : values[0];
  }

  // Table read: name[index].
  if (values.size() == 1 && env.data != nullptr && env.data->has_table(name)) {
    try {
      return env.data->get_table(name, values[0]);
    } catch (const std::out_of_range& e) {
      throw EvalError(e.what());
    }
  }
  throw EvalError("unknown function or table '" + name + "' with " +
                  std::to_string(values.size()) + " argument(s)");
}

}  // namespace detail

/// Evaluate an expression AST.
inline std::int64_t ast_eval(const expr::Node& node, const AstEnv& env) {
  using namespace expr;
  if (const auto* num = dynamic_cast<const NumberNode*>(&node)) return num->value();
  if (const auto* ident = dynamic_cast<const IdentifierNode*>(&node)) {
    if (ident->local_slot() >= 0) return env.locals[ident->local_slot()];
    if (env.data != nullptr && env.data->has(ident->name())) {
      return env.data->get(ident->name());
    }
    throw EvalError("unknown identifier '" + ident->name() + "'");
  }
  if (const auto* call = dynamic_cast<const CallNode*>(&node)) {
    return detail::eval_call(*call, env);
  }
  if (const auto* unary = dynamic_cast<const UnaryNode*>(&node)) {
    return apply_unary(unary->op(), ast_eval(unary->operand(), env));
  }
  const auto& binary = dynamic_cast<const BinaryNode&>(node);
  // Short-circuit: the right operand runs only when the left one does not
  // decide the result.
  if (binary.op() == BinaryOp::kAnd) {
    return ast_eval(binary.lhs(), env) != 0 && ast_eval(binary.rhs(), env) != 0 ? 1 : 0;
  }
  if (binary.op() == BinaryOp::kOr) {
    return ast_eval(binary.lhs(), env) != 0 || ast_eval(binary.rhs(), env) != 0 ? 1 : 0;
  }
  const std::int64_t a = ast_eval(binary.lhs(), env);  // left operand first
  const std::int64_t b = ast_eval(binary.rhs(), env);
  return apply_binary(binary.op(), a, b);
}

/// Run every statement of an action program in order against
/// env.mutable_data.
inline void ast_execute(const expr::Program& program, const AstEnv& env) {
  if (env.mutable_data == nullptr) {
    throw expr::EvalError("cannot execute assignments without a mutable data context");
  }
  std::vector<std::int64_t> frame(program.frame_slots, 0);
  AstEnv inner = env;
  inner.locals = frame.data();
  detail::exec_statements(program.statements, inner, frame.data());
}

}  // namespace pnut::test_support
