// AST and evaluator for the expression language.
//
// Values are 64-bit integers; booleans are 0/1 as in C. Evaluation runs
// against an EvalContext that provides:
//   * the DataContext for variable and table reads,
//   * optionally a mutable DataContext and an Rng (actions, `irand`),
//   * optional resolver hooks so embedding tools can add their own
//     identifiers and functions — the query engine resolves `Bus_busy(s)`
//     (tokens on a place in state s) and the tracer resolves signal names
//     through exactly these hooks.
//
// Script constructs (user functions, `let` bindings, local arrays, bounded
// `for` loops) are resolved statically by the parser: every local gets a
// dense frame slot, every call site knows at parse time whether it names a
// builtin, a local array, a user function, or falls through to the dynamic
// resolvers. Both evaluators (this tree-walker and the bytecode VM) share
// the slot layout, so locals never exist in the DataContext and the state
// encoding is untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "petri/data_context.h"
#include "petri/rng.h"

namespace pnut::expr {

class Node;
using NodePtr = std::unique_ptr<Node>;
struct Statement;

/// A user-defined function: parameters plus a statement body. Bodies may
/// only assign locals (parameters and lets) — the parser enforces purity —
/// and may only call functions defined earlier (`index` orders the library,
/// so the call graph is a DAG and evaluation is total).
struct FunctionDef {
  std::string name;
  std::vector<std::string> params;
  std::vector<Statement> body;
  std::uint32_t frame_slots = 0;  ///< dense local slots incl. parameters
  std::size_t index = 0;          ///< position in the defining library
  [[nodiscard]] std::string to_string() const;
};

/// An ordered set of function definitions (a `.pn` document's `fn`
/// declarations, extended by any program-local definitions). Later entries
/// may call earlier ones; never the reverse.
struct FunctionLibrary {
  std::vector<std::shared_ptr<const FunctionDef>> functions;
  /// Latest definition with this name, or nullptr.
  [[nodiscard]] const std::shared_ptr<const FunctionDef>* find(
      std::string_view name) const;
};

/// Environment an expression evaluates in.
struct EvalContext {
  /// Variable/table reads. May be null if the embedder resolves everything.
  const DataContext* data = nullptr;
  /// Assignment target for statements; null makes assignments an error.
  DataContext* mutable_data = nullptr;
  /// Random source for `irand`; null makes `irand` an error (e.g. inside
  /// predicates, which must be side-effect free and deterministic).
  Rng* rng = nullptr;
  /// Current local frame (parameters, lets, arrays) — set internally by
  /// Program::execute and function invocation, null at the top of a bare
  /// expression. Reads index this array by the parser-assigned slot.
  const std::int64_t* locals = nullptr;

  /// Hook consulted for bare identifiers before `data` (e.g. the bound
  /// state variable `s` in queries, or a tracer signal name).
  std::function<std::optional<std::int64_t>(std::string_view)> resolve_identifier;

  /// Hook consulted for `name(args...)` / `name[args...]` before tables
  /// (e.g. `Bus_busy(s)` in queries, `inev(...)` is handled upstream).
  std::function<std::optional<std::int64_t>(std::string_view, std::span<const std::int64_t>)>
      resolve_call;
};

/// Thrown when evaluation fails (unknown name, division by zero, irand
/// without an Rng, assignment without a mutable context, ...).
class EvalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnaryOp : std::uint8_t { kNeg, kNot };

/// Expression node. A small closed class hierarchy keeps evaluation simple
/// and the memory model obvious (unique ownership, no cycles — function
/// bodies are shared immutably and only reference earlier definitions).
class Node {
 public:
  virtual ~Node() = default;
  [[nodiscard]] virtual std::int64_t eval(const EvalContext& ctx) const = 0;
  /// Re-render the expression (canonical spacing); used in diagnostics and
  /// report labels.
  [[nodiscard]] virtual std::string to_string() const = 0;
};

/// Two's-complement wrapping arithmetic shared by the AST evaluator and the
/// bytecode VM: expression arithmetic is defined to wrap on overflow (both
/// evaluators must agree bit-for-bit, and plain signed +,-,* would be
/// undefined behaviour on overflow).
[[nodiscard]] inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
[[nodiscard]] inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
[[nodiscard]] inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}
[[nodiscard]] inline std::int64_t wrap_neg(std::int64_t v) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(v));
}

/// Integer quotient and remainder shared by the AST evaluator, the bytecode
/// VM and the query engine. A zero divisor raises EvalError, and so does
/// INT64_MIN / -1: its quotient cannot wrap (it traps on x86).
[[nodiscard]] inline std::int64_t checked_div(std::int64_t a, std::int64_t b) {
  if (b == 0) throw EvalError("division by zero");
  if (a == INT64_MIN && b == -1) throw EvalError("division overflow");
  return a / b;
}
[[nodiscard]] inline std::int64_t checked_mod(std::int64_t a, std::int64_t b) {
  if (b == 0) throw EvalError("modulo by zero");
  if (a == INT64_MIN && b == -1) throw EvalError("modulo overflow");
  return a % b;
}

class NumberNode final : public Node {
 public:
  explicit NumberNode(std::int64_t value) : value_(value) {}
  std::int64_t eval(const EvalContext&) const override { return value_; }
  std::string to_string() const override { return std::to_string(value_); }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_;
};

class IdentifierNode final : public Node {
 public:
  explicit IdentifierNode(std::string name, std::int32_t local_slot = -1)
      : name_(std::move(name)), local_slot_(local_slot) {}
  std::int64_t eval(const EvalContext& ctx) const override;
  std::string to_string() const override { return name_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Frame slot when the parser resolved this name to a local; -1 otherwise.
  [[nodiscard]] std::int32_t local_slot() const { return local_slot_; }

 private:
  std::string name_;
  std::int32_t local_slot_;
};

/// What a `name[...]` / `name(...)` site resolved to at parse time.
enum class CallKind : std::uint8_t {
  kDynamic,     ///< builtin / resolver hook / data table / unknown, at eval
  kLocalArray,  ///< indexed read of a local array (slot base + extent known)
  kFunction,    ///< user-defined function call (arity checked at parse)
};

/// `name[e]` (table read), `name[e1, e2]` / `name(e1, ...)` (call).
class CallNode final : public Node {
 public:
  CallNode(std::string name, std::vector<NodePtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}
  std::int64_t eval(const EvalContext& ctx) const override;
  std::string to_string() const override;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<NodePtr>& args() const { return args_; }

  [[nodiscard]] CallKind kind() const { return kind_; }
  [[nodiscard]] std::int32_t array_slot() const { return array_slot_; }
  [[nodiscard]] std::int64_t array_extent() const { return array_extent_; }
  [[nodiscard]] const std::shared_ptr<const FunctionDef>& fn() const { return fn_; }

  void resolve_local_array(std::int32_t slot, std::int64_t extent) {
    kind_ = CallKind::kLocalArray;
    array_slot_ = slot;
    array_extent_ = extent;
  }
  void resolve_function(std::shared_ptr<const FunctionDef> fn) {
    kind_ = CallKind::kFunction;
    fn_ = std::move(fn);
  }

 private:
  std::string name_;
  std::vector<NodePtr> args_;
  CallKind kind_ = CallKind::kDynamic;
  std::int32_t array_slot_ = -1;
  std::int64_t array_extent_ = 0;
  std::shared_ptr<const FunctionDef> fn_;
};

class UnaryNode final : public Node {
 public:
  UnaryNode(UnaryOp op, NodePtr operand) : op_(op), operand_(std::move(operand)) {}
  std::int64_t eval(const EvalContext& ctx) const override;
  std::string to_string() const override;
  [[nodiscard]] UnaryOp op() const { return op_; }
  [[nodiscard]] const Node& operand() const { return *operand_; }

 private:
  UnaryOp op_;
  NodePtr operand_;
};

class BinaryNode final : public Node {
 public:
  BinaryNode(BinaryOp op, NodePtr lhs, NodePtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  std::int64_t eval(const EvalContext& ctx) const override;
  std::string to_string() const override;
  [[nodiscard]] BinaryOp op() const { return op_; }
  [[nodiscard]] const Node& lhs() const { return *lhs_; }
  [[nodiscard]] const Node& rhs() const { return *rhs_; }

 private:
  BinaryOp op_;
  NodePtr lhs_;
  NodePtr rhs_;
};

/// One statement of a script body. Assignments keep their historical field
/// layout (`target`, `index`, `value`); the other kinds reuse those fields
/// as documented per member. All name resolution (local slot, extent, loop
/// trip count) is done by the parser, so execution never looks names up.
struct Statement {
  enum class Kind : std::uint8_t {
    kAssign,    ///< `x = e` / `t[i] = e` — data scalar/table or local
    kLet,       ///< `let x = e` — bind a new local scalar
    kLetArray,  ///< `let a[N]` — declare a zero-filled local array
    kFor,       ///< `for i = lo to hi { body }` — bounded loop
    kReturn,    ///< `return e` — function result (fn bodies only)
  };
  Kind kind = Kind::kAssign;
  std::string target;  ///< assign/let/let-array name; for: loop variable
  NodePtr index;       ///< assign: table/array index, null for scalar
  NodePtr value;       ///< assign/let/return: the right-hand side
  /// Frame slot of the target (assign-to-local, let, let-array, loop var);
  /// -1 means the assignment goes to net-level data.
  std::int32_t slot = -1;
  std::int64_t extent = 0;  ///< let-array / local indexed assign: array extent
  std::int64_t lo = 0;      ///< for: first loop value (literal)
  std::int64_t hi = 0;      ///< for: last loop value (literal)
  std::uint64_t trip_count = 0;    ///< for: iteration count, parser-bounded
  std::int32_t counter_slot = -1;  ///< for: hidden trip-counter slot (VM)
  std::vector<Statement> body;     ///< for: loop body
};

/// A sequence of statements (an action body), plus any function definitions
/// local to this source and the frame size its locals need.
struct Program {
  std::vector<Statement> statements;
  /// Functions defined inside this source (net-level `fn` declarations live
  /// in the document's library instead and are referenced by call nodes).
  std::vector<std::shared_ptr<const FunctionDef>> local_fns;
  std::uint32_t frame_slots = 0;

  /// Run every statement in order against ctx.mutable_data.
  void execute(const EvalContext& ctx) const;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace pnut::expr
