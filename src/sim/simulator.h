// The P-NUT simulation engine (Section 4.1).
//
// "The P-NUT simulator is a simple simulation engine which 'pushes' tokens
// around a Timed Petri Net. ... The simulator simply generates a trace."
//
// Execution semantics implemented here:
//
//  * Enabling time (Section 1): a transition must be *continuously* enabled
//    (input tokens present, inhibitors clear, predicate true, and — for
//    single-server transitions — no firing of its own in flight) for its
//    enabling delay before it may fire. Any disablement resets the timer,
//    and the delay is resampled on re-enablement (enabling-memory policy
//    with resampling). When it fires, consumption and production happen at
//    the same instant (atomic firing). This models, e.g., the paper's
//    End-prefetch memory latency.
//
//  * Firing time (Ramchandani-style): when a transition starts firing its
//    input tokens are removed and its action applied; "during the firing of
//    a transition tokens are neither on the inputs nor on the outputs";
//    outputs appear when the firing completes, firing-time later. This
//    models, e.g., the one-cycle Decode. A transition may carry both delays:
//    enabling delay to *start*, firing duration to *complete*.
//
//  * Conflict resolution (Section 1, [WPS86]): at each instant, transitions
//    that are ready to fire are selected one at a time with probability
//    proportional to their relative firing frequencies; the set is
//    re-evaluated after every firing because one firing can disable its
//    competitors.
//
//  * Immediate transitions (zero enabling and firing time) fire in zero
//    time; a configurable per-instant firing budget turns an immediate
//    livelock (a zero-delay cycle that never disables itself) into an error
//    instead of a hang.
//
// The engine runs on a CompiledNet (src/petri/compiled_net.h), the
// immutable flat view of the model, and keeps eligibility *incrementally*:
// instead of rescanning every transition after each firing, it marks dirty
// exactly the transitions adjacent (via the compiled inverse place->
// transition adjacency) to places whose token count changed — plus the
// fired transition itself and, when an action ran, every predicated
// transition — and re-evaluates only those. Dirty transitions are processed
// in ascending id order, so the RNG consumption order (and therefore the
// trace) is bit-for-bit identical to the historical whole-net rescan, which
// remains available as SimOptions::incremental_eligibility = false for
// equivalence testing. The ready set (ready && eligible transitions, the
// candidates of each conflict draw) is maintained the same way: flips are
// centralized in refresh_one and the firing path, kept in ascending id
// order, so fire_ready_transitions reads the candidate list directly
// instead of rescanning all T transitions per firing.
//
// The engine is deterministic: one seeded Rng drives every random choice,
// and the event queue breaks time ties by insertion order, so (net, seed,
// length) reproduces a trace bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "expr/program.h"
#include "expr/vm.h"
#include "petri/compiled_net.h"
#include "petri/data_frame.h"
#include "petri/marking.h"
#include "petri/net.h"
#include "petri/rng.h"
#include "trace/trace.h"

namespace pnut {

struct SimOptions {
  std::uint64_t seed = 1;
  Time start_time = 0;
  /// Abort threshold for zero-delay firing cascades at a single instant.
  std::uint64_t max_immediate_firings_per_instant = 1'000'000;
  /// When false, fall back to the historical whole-net eligibility rescan
  /// after every firing. Produces bit-identical traces to the incremental
  /// update; kept as the reference implementation for equivalence tests.
  bool incremental_eligibility = true;
};

/// Why a run call returned.
enum class StopReason : std::uint8_t {
  kTimeLimit,   ///< the requested horizon was reached
  kDeadlock,    ///< no transition can ever fire again
  kEventLimit,  ///< the requested event budget was exhausted
};

class Simulator {
 public:
  /// Compiles the net internally (the net may be discarded afterwards).
  explicit Simulator(const Net& net, SimOptions options = {});

  /// Shares an already-compiled net: any number of simulators (and
  /// analyzers) may run off one immutable CompiledNet concurrently.
  explicit Simulator(std::shared_ptr<const CompiledNet> net, SimOptions options = {});

  /// Attach a sink receiving the trace (may be null to run silently).
  /// Call before reset(); the sink's begin() fires on reset.
  void set_sink(TraceSink* sink) { sink_ = sink; }

  /// Re-initialize to the net's initial marking and data, clear all timers
  /// and in-flight firings, and emit begin() to the sink. Initial immediate
  /// firings happen here, so pass the seed to reset (rather than reseeding
  /// afterwards) when reproducibility matters: reset(seed) makes the whole
  /// run a pure function of (net, seed, horizon).
  void reset(std::optional<std::uint64_t> seed = std::nullopt);

  /// Advance until the clock reaches `t` (inclusive of events at `t`),
  /// deadlock, or (if max_events is set) an event budget.
  StopReason run_until(Time t, std::optional<std::uint64_t> max_events = std::nullopt);

  /// Advance by a duration from the current clock.
  StopReason run_for(Time duration, std::optional<std::uint64_t> max_events = std::nullopt);

  /// Emit end(now) to the sink, closing the trace.
  void finish();

  // --- state inspection ------------------------------------------------------

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const Marking& marking() const { return marking_; }
  /// The current data state in description form. The live state is the
  /// slot frame; the DataContext is materialized on first access after a
  /// change (boundary use — traces, tests, dumps).
  [[nodiscard]] const DataContext& data() const {
    if (!data_cache_valid_) {
      data_ = program_->schema().to_context(frame_);
      data_cache_valid_ = true;
    }
    return data_;
  }
  [[nodiscard]] const Net& net() const { return net_->net(); }
  [[nodiscard]] const CompiledNet& compiled() const { return *net_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Firings of `t` currently in flight. `t` must be a valid id of the
  /// compiled net (unchecked: ids are validated at compile time, and the
  /// inspection path is hot in stat/tracer pipelines).
  [[nodiscard]] std::uint32_t active_firings(TransitionId t) const {
    return states_[t.value].in_flight;
  }

  /// Completed firings of `t` since reset (unchecked, see active_firings).
  [[nodiscard]] std::uint64_t completed_firings(TransitionId t) const {
    return states_[t.value].completions;
  }

  /// Total firing starts since reset.
  [[nodiscard]] std::uint64_t total_firing_starts() const { return next_firing_id_; }

  /// True if nothing can ever happen again (no in-flight firings, no armed
  /// enabling timers, no ready transitions).
  [[nodiscard]] bool deadlocked() const;

 private:
  struct TransitionState {
    bool eligible = false;  ///< continuously enabled since `enabled_since`
    bool ready = false;     ///< enabling delay has elapsed
    Time enabled_since = 0;
    std::uint64_t generation = 0;  ///< invalidates stale timer events
    std::uint32_t in_flight = 0;
    std::uint64_t completions = 0;
  };

  enum class EventKind : std::uint8_t { kFiringComplete, kEnablingExpiry };

  struct QueuedEvent {
    Time time = 0;
    std::uint64_t sequence = 0;  ///< tie-break: FIFO within an instant
    EventKind kind = EventKind::kFiringComplete;
    TransitionId transition;
    std::uint64_t firing_id = 0;    ///< kFiringComplete
    std::uint64_t generation = 0;   ///< kEnablingExpiry
    /// Min-heap on (time, sequence).
    friend bool operator>(const QueuedEvent& a, const QueuedEvent& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  // --- incremental eligibility ----------------------------------------------

  /// Keep the sorted ready-set in sync with a (ready && eligible) flip.
  /// Called from the same places that flip the flags, so
  /// fire_ready_transitions reads the candidate list directly instead of
  /// rescanning all T transitions per firing.
  void ready_insert(std::uint32_t t);
  void ready_erase(std::uint32_t t);

  /// Queue `t` for re-evaluation at the next refresh.
  void mark_dirty(TransitionId t);
  /// Queue every transition whose enablement can depend on `p`'s tokens.
  void mark_place_dirty(PlaceId p);
  /// Queue every transition with a data predicate (an action ran).
  void mark_predicated_dirty();
  void mark_all_dirty();

  /// Re-evaluate eligibility of the queued (or, in full-rescan mode, all)
  /// transitions; arms/disarms enabling timers and marks zero-delay
  /// transitions ready. Processes ids in ascending order so RNG draws for
  /// newly-eligible transitions happen in the same order in both modes.
  void refresh_eligibility();
  /// The per-transition state machine shared by both modes.
  void refresh_one(TransitionId t);

  [[nodiscard]] bool compute_eligible(TransitionId t) const;

  /// Draw a delay: bytecode evaluation for a computed delay (`code`
  /// non-null), DelaySpec::sample otherwise.
  [[nodiscard]] Time sample_delay(const DelaySpec& spec, const expr::Code* code);

  /// Run `t`'s action on the slot frame and append the frame diff to the
  /// trace event.
  void run_action(TransitionId t, TraceEvent& start);

  /// Fire every ready transition at the current instant, resolving
  /// conflicts probabilistically, until none remain ready.
  void fire_ready_transitions();

  /// Start one firing of `t` now: consume, apply action, emit Start,
  /// complete immediately or schedule completion.
  void start_firing(TransitionId t);

  /// Apply `t`'s completion: produce tokens, emit End.
  void complete_firing(TransitionId t, std::uint64_t firing_id);

  void schedule(QueuedEvent ev);

  std::shared_ptr<const CompiledNet> net_;
  SimOptions options_;
  TraceSink* sink_ = nullptr;
  Rng rng_;

  /// Bytecode runtime; null for hook-free nets, which have no data state
  /// to evaluate (data() then stays the net's initial data).
  std::shared_ptr<const expr::NetProgram> program_;
  DataFrame frame_;         ///< live data state
  DataFrame frame_before_;  ///< reused action-diff snapshot
  mutable expr::VmScratch vm_scratch_;  ///< mutable: eligibility checks are const

  Time now_ = 0;
  Marking marking_;
  mutable DataContext data_;  ///< lazy DataContext view of frame_
  mutable bool data_cache_valid_ = false;
  std::vector<TransitionState> states_;
  std::vector<std::uint32_t> dirty_;       ///< transition ids queued for refresh
  std::vector<std::uint8_t> dirty_flag_;   ///< membership bitmap for dirty_
  std::vector<std::uint32_t> ready_set_;   ///< ids with ready && eligible, ascending
  std::vector<std::uint8_t> in_ready_;     ///< membership bitmap for ready_set_
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> queue_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t next_firing_id_ = 0;
  std::uint64_t immediate_firings_this_instant_ = 0;
  Time instant_ = -1;  ///< the instant the immediate budget counts against
  bool began_ = false;
};

}  // namespace pnut
