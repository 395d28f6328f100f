// The verification query language (Section 4.4, [MR87]).
//
// "The P-NUT reachability graph analyzer allows user to enter high-level
// specification of the expected behavior of a system in first-order
// predicate calculus and in branching time temporal logic. ... Tracertool
// uses the same concept to 'test' (rather than prove) the correctness of a
// simulation trace."
//
// The paper's own examples all parse and evaluate:
//
//   forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]
//   exists s in (S-{#0}) [ Empty_I_buffers(s) = 6 ]
//   Exists s in S [ exec_type_5(s) > 0 ]
//   forall s in {s' in S | Bus_busy(s')} [ inev(s, Bus_free(C), true) ]
//
// Semantics:
//   * S is the state set of the StateSpace (a trace's snapshots or a
//     reachability graph's markings); #k denotes state k; set difference
//     and set-builder filter sets.
//   * Name(s) is: tokens on place Name in state s; else in-flight/enabled
//     activity of transition Name; else the data variable Name in state s.
//   * inev(s, f, g): branching-time "inevitably": along EVERY path from s,
//     a state satisfying f is reached, with g holding until then
//     (A[g U f]). On a linear trace this degenerates to a forward scan —
//     a test, not a proof, exactly as the paper says.
//   * poss(s, f, g): the existential dual, E[g U f] ("possibly").
//   * C inside a temporal operator's f/g denotes the path state being
//     examined.
//   * Quantifiers nest; `true`/`false` are literals; comparison, boolean
//     and arithmetic operators follow the expression language (a single
//     `=` is equality, as the paper writes it).
//
// Names resolve once per evaluation, not once per state. The parser scopes
// binders lexically: each quantifier, set-builder and temporal operator's
// variable gets a frame slot of its own, and a bare name compiles to its
// innermost binder's slot (or to an "unbound variable" error raised if it
// is evaluated). min/max/abs are fixed at parse time, and a Name(s) node
// looks its name up in the space on its first evaluation (place, then
// transition; else the per-state data variable).
//
// Evaluation order. A loop — a quantifier, a set-builder filter, a
// temporal operator's cond/guard table — evaluates its body for a block of
// member states at once (blocks start one state wide and double up to
// 256), yet every outcome is the one a state-by-state walk gives:
//   * a query raises the error of the first member, in set order, whose
//     evaluation raises, and within one state the first error in
//     left-to-right order (`&&`/`||` evaluate their right side only where
//     the left side leaves the answer open);
//   * an error at a member after the one that decides a quantifier is
//     never raised;
//   * stop polls fall before the same members (every kStopCheckStride-th);
//   * a body holding a quantifier or temporal operator runs one state at
//     a time, so its inner loops poll and raise in exactly that order.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "analysis/state_space.h"
#include "util/stop.h"

namespace pnut::analysis {

struct QueryResult {
  bool holds = false;
  /// For a failed `forall`: a violating state. For a satisfied `exists`:
  /// a witness state. Otherwise nullopt.
  std::optional<std::size_t> witness;
  /// One-line human-readable account of the outcome.
  std::string explanation;
};

/// Parse and evaluate a query against a state space.
/// Throws expr::ParseError on syntax errors and std::runtime_error on
/// semantic errors (unknown names, wrong arity, unbound state variables).
QueryResult eval_query(const StateSpace& space, std::string_view query);

/// As above with cooperative deadline/cancellation (util/stop.h): the
/// quantifier and temporal-fixpoint loops poll `stop` and throw StopError —
/// a query never returns a half-evaluated verdict.
QueryResult eval_query(const StateSpace& space, std::string_view query,
                       StopToken stop);

/// Parse-only check (throws on error); useful for validating stored query
/// suites without a state space.
void check_query_syntax(std::string_view query);

}  // namespace pnut::analysis
