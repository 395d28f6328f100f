// The state-space abstraction shared by the reachability-graph analyzer and
// tracertool (Section 4.4).
//
// "Tracertool uses the same concept [as the reachability graph analyzer] to
// 'test' (rather than prove) the correctness of a simulation trace."
//
// Both a reachability graph (branching, all possible behaviours) and a
// simulation trace (one linear path, one state per trace event) expose the
// same interface: a set of states S, per-state place token counts and
// transition activity, and a successor relation. The query engine
// (query.h) evaluates `forall s in S [...]`-style formulas against either.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/state_store.h"
#include "petri/ids.h"
#include "trace/trace.h"

namespace pnut::analysis {

class StateSpace {
 public:
  virtual ~StateSpace() = default;

  [[nodiscard]] virtual std::size_t num_states() const = 0;

  /// Tokens on `p` in state `s`.
  [[nodiscard]] virtual std::int64_t place_tokens(std::size_t state, PlaceId p) const = 0;

  /// Tokens on `p` in each of `states` (every one < num_states()):
  /// out[i] = place_tokens(states[i], p). The query engine reads a place
  /// for a block of states at once through this.
  virtual void gather_place_tokens(std::span<const std::int64_t> states, PlaceId p,
                                   std::int64_t* out) const = 0;

  /// Activity of transition `t` in state `s`: firings in flight for a trace
  /// state; 1/0 enabledness for a reachability-graph state.
  [[nodiscard]] virtual std::int64_t transition_activity(std::size_t state,
                                                         TransitionId t) const = 0;

  /// Scalar data variable value in state `s`; nullopt if unknown.
  [[nodiscard]] virtual std::optional<std::int64_t> variable(std::size_t state,
                                                             std::string_view name) const = 0;

  /// The successor relation as CSR rows (a trace state has at most one
  /// successor; a graph state, many), for the query engine's temporal
  /// fixpoints: `offsets` gets num_states() + 1 entries and row i is
  /// targets[offsets[i], offsets[i + 1]).
  virtual void successor_rows(std::vector<std::size_t>& offsets,
                              std::vector<std::uint32_t>& targets) const = 0;

  /// True if `state`'s successor list is complete. A truncated
  /// reachability graph leaves frontier states with empty successor rows
  /// that mean "unexplored", not "terminal" — temporal queries (inev/poss)
  /// saturate through such states instead of reading them as dead ends.
  /// Complete spaces (traces, untruncated graphs) report every state
  /// expanded, which is the default.
  [[nodiscard]] virtual bool state_expanded(std::size_t state) const {
    (void)state;
    return true;
  }

  /// Name resolution for query formulas.
  [[nodiscard]] virtual std::optional<PlaceId> find_place(std::string_view name) const = 0;
  [[nodiscard]] virtual std::optional<TransitionId> find_transition(
      std::string_view name) const = 0;
};

/// A recorded trace materialized as a state space: state 0 is the initial
/// state, state k the state after event k-1 (what the paper's `#0` denotes).
///
/// Snapshots live in one flat StateArena — per state the word layout is
/// [ place tokens | per-transition in-flight counts ] — instead of a
/// Marking plus an activity vector per state, so long traces materialize
/// with two allocations, not two per state.
class TraceStateSpace final : public StateSpace {
 public:
  /// Materializes all states (markings, in-flight counts, data snapshots)
  /// by replaying the trace once.
  explicit TraceStateSpace(const RecordedTrace& trace);

  [[nodiscard]] std::size_t num_states() const override { return arena_.size(); }
  [[nodiscard]] std::int64_t place_tokens(std::size_t state, PlaceId p) const override;
  void gather_place_tokens(std::span<const std::int64_t> states, PlaceId p,
                           std::int64_t* out) const override {
    arena_.gather_word(states, p.value, out);
  }
  [[nodiscard]] std::int64_t transition_activity(std::size_t state,
                                                 TransitionId t) const override;
  [[nodiscard]] std::optional<std::int64_t> variable(std::size_t state,
                                                     std::string_view name) const override;
  /// State i's one successor is i + 1 (the last state has none).
  void successor_rows(std::vector<std::size_t>& offsets,
                      std::vector<std::uint32_t>& targets) const override;
  [[nodiscard]] std::optional<PlaceId> find_place(std::string_view name) const override;
  [[nodiscard]] std::optional<TransitionId> find_transition(
      std::string_view name) const override;

  /// Simulation clock at each state (for timing queries and the tracer).
  [[nodiscard]] Time state_time(std::size_t state) const { return times_.at(state); }

 private:
  const RecordedTrace* trace_;
  std::size_t num_places_ = 0;
  StateArena arena_;
  std::vector<DataContext> data_;
  std::vector<Time> times_;
};

}  // namespace pnut::analysis
