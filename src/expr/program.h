// Whole-net expression compilation: ASTs -> bytecode, names -> slots.
//
// Every hook attached to a Net — predicates, actions, computed firing /
// enabling delays — is an expression (petri/net.h, built by
// expr/compile.h). NetProgram::compile lowers them all into the net's
// runtime program:
//
//   * a frozen DataSchema covering the complete variable universe (initial
//     data plus every scalar any action can create — assignment targets
//     are syntactic, so the universe is statically known and the state
//     encoding never widens mid-run);
//   * the initial DataFrame;
//   * per-transition bytecode (expr/vm.h) for each attached expression.
//
// Errors surface at *evaluation* time: names that can never resolve and
// builtin arity mistakes lower to throw instructions that raise the VM's
// EvalError (the texts of record) after computing the arguments — a model
// with a broken predicate on a transition that never fires runs normally.
// Every net compiles; `pnut check` still reports the first arity mistake.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/vm.h"
#include "petri/data_frame.h"
#include "petri/net.h"

namespace pnut::expr {

/// An internal compiler invariant failed (e.g. an assignment target missing
/// from the schema) — never raised for a net NetProgram::compile built the
/// schema for.
class CompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Compile one expression AST against a schema. A builtin arity mistake
/// becomes a throw instruction; its message also lands in `*diagnostic`
/// when that is non-null and still empty.
[[nodiscard]] Code compile_expression(const Node& ast, const DataSchema& schema,
                                      std::string* diagnostic = nullptr);

/// Compile an action program (a statement sequence) into one code block.
[[nodiscard]] Code compile_program(const Program& program, const DataSchema& schema,
                                   std::string* diagnostic = nullptr);

/// The bytecode runtime form of a whole net's expressions. Immutable after
/// compile; one shared_ptr is safely shared by any number of simulators,
/// exploration workers and query evaluators at once.
class NetProgram {
 public:
  /// Compile every hook of `net`. Never fails for a net built through
  /// parse_net or expr::compile_*; when `error` is non-null, the net's first
  /// builtin arity mistake is reported there as a one-line reason naming
  /// the transition and hook (`pnut check` prints it).
  static std::shared_ptr<const NetProgram> compile(const Net& net,
                                                   std::string* error = nullptr);

  [[nodiscard]] const DataSchema& schema() const { return schema_; }
  [[nodiscard]] const DataFrame& initial_frame() const { return initial_frame_; }

  [[nodiscard]] const Code* predicate(TransitionId t) const {
    return opt(predicates_[t.value]);
  }
  [[nodiscard]] const Code* action(TransitionId t) const {
    return opt(actions_[t.value]);
  }
  [[nodiscard]] const Code* firing_delay(TransitionId t) const {
    return opt(firing_delays_[t.value]);
  }
  [[nodiscard]] const Code* enabling_delay(TransitionId t) const {
    return opt(enabling_delays_[t.value]);
  }

 private:
  static const Code* opt(const std::optional<Code>& c) {
    return c ? &*c : nullptr;
  }

  DataSchema schema_;
  DataFrame initial_frame_;
  std::vector<std::optional<Code>> predicates_;
  std::vector<std::optional<Code>> actions_;
  std::vector<std::optional<Code>> firing_delays_;
  std::vector<std::optional<Code>> enabling_delays_;
};

}  // namespace pnut::expr
