// One resumable simulation run: a one-lane view of BatchSimulator's lane
// kernel (sim/batch_sim.h, which documents the Section 4.1 execution
// semantics). The view owns the lane's transient state, so a run can be
// advanced in steps (run_until, run_for, an event budget) and inspected
// between them — or from inside its own sink — through marking(), data()
// and the firing counters, which read the live lane row on every call.
// marking() and data() refresh a snapshot member, so concurrent readers of
// one Simulator need their own synchronization.
//
// The engine is deterministic: (net, seed, horizon) reproduces a trace
// bit-for-bit, identical to lane k of a BatchSimulator seeded the same.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "petri/compiled_net.h"
#include "petri/data_context.h"
#include "petri/marking.h"
#include "petri/net.h"
#include "sim/batch_sim.h"
#include "trace/trace.h"

namespace pnut {

struct SimOptions {
  std::uint64_t seed = 1;
  Time start_time = 0;
  /// Abort threshold for zero-delay firing cascades at a single instant.
  std::uint64_t max_immediate_firings_per_instant = 1'000'000;
};

class Simulator {
 public:
  /// Compiles the net internally (the net may be discarded afterwards).
  explicit Simulator(const Net& net, SimOptions options = {});

  /// Shares an already-compiled net: any number of simulators (and
  /// analyzers) may run off one immutable CompiledNet concurrently.
  explicit Simulator(std::shared_ptr<const CompiledNet> net, SimOptions options = {});

  /// Attach a sink receiving the trace (may be null to run silently).
  /// Call before reset(); the sink's begin() fires on reset. The
  /// constructor has already run the initial instant, with no sink.
  void set_sink(TraceSink* sink) { batch_.set_sink(0, sink); }

  /// Re-initialize to the net's initial marking and data, clear all timers
  /// and in-flight firings, and emit begin() to the sink. Initial immediate
  /// firings happen here, so pass the seed to reset (rather than reseeding
  /// afterwards) when reproducibility matters: reset(seed) makes the whole
  /// run a pure function of (net, seed, horizon). Without a seed the RNG
  /// stream continues where the previous run left it.
  void reset(std::optional<std::uint64_t> seed = std::nullopt);

  /// Advance until the clock reaches `t` (inclusive of events at `t`),
  /// deadlock, or (if max_events is set) an event budget.
  StopReason run_until(Time t, std::optional<std::uint64_t> max_events = std::nullopt);

  /// Advance by a duration from the current clock.
  StopReason run_for(Time duration, std::optional<std::uint64_t> max_events = std::nullopt);

  /// Emit end(now) to the sink, closing the trace.
  void finish();

  // --- state inspection ------------------------------------------------------

  [[nodiscard]] Time now() const { return state_.now; }
  /// The current marking, read from the lane's token row.
  [[nodiscard]] const Marking& marking() const;
  /// The current data state in description form, read from the lane's
  /// slot row (boundary use — traces, tests, dumps).
  [[nodiscard]] const DataContext& data() const;
  [[nodiscard]] const Net& net() const { return batch_.compiled().net(); }
  [[nodiscard]] const CompiledNet& compiled() const { return batch_.compiled(); }

  /// Firings of `t` currently in flight. `t` must be a valid id of the
  /// compiled net (unchecked: ids are validated at compile time, and the
  /// inspection path is hot in stat/tracer pipelines).
  [[nodiscard]] std::uint32_t active_firings(TransitionId t) const {
    return batch_.in_flight_m_[t.value];
  }

  /// Completed firings of `t` since reset (unchecked, see active_firings).
  [[nodiscard]] std::uint64_t completed_firings(TransitionId t) const {
    return batch_.completions_m_[t.value];
  }

  /// Total firing starts since reset.
  [[nodiscard]] std::uint64_t total_firing_starts() const { return state_.next_firing; }

  /// True if nothing can ever happen again (no in-flight firings, no armed
  /// enabling timers, no ready transitions).
  [[nodiscard]] bool deadlocked() const { return batch_.lane_deadlocked(0, state_); }

 private:
  BatchSimulator batch_;  ///< one lane
  LaneState state_;
  mutable Marking marking_;  ///< marking() snapshot of the token row
  mutable DataContext data_; ///< data() snapshot of the slot row
};

}  // namespace pnut
