// The P-NUT simulation engine (Section 4.1): one lane kernel, run as N
// replication lanes of one CompiledNet by BatchSimulator and as one
// resumable lane by Simulator (sim/simulator.h).
//
// "The P-NUT simulator is a simple simulation engine which 'pushes' tokens
// around a Timed Petri Net. ... The simulator simply generates a trace."
//
// Execution semantics:
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
// Eligibility is kept *incrementally*: after a firing only the transitions
// adjacent (via the compiled inverse place->transition adjacency) to places
// whose token count changed — plus the fired transition itself and, when an
// action ran, every predicated transition — are re-evaluated, in ascending
// id order, so the RNG draw order equals that of a whole-net rescan. The
// ready set (ready && eligible transitions, the candidates of each conflict
// draw) is maintained the same way.
//
// A lane is deterministic: one seeded Rng drives every random choice, and
// the event queue breaks time ties by insertion order, so (net, seed,
// horizon) reproduces a trace bit-for-bit.
//
// Batched Monte Carlo: the paper's experiments are sweeps — Figure 5's
// operating point sits inside a memory-latency grid, and the simulator
// exists to "control the duration of one or more simulation experiments".
// The unit of throughput for such experiments is trajectories per second,
// not events per second on one trajectory. BatchSimulator runs N
// independent lanes off one immutable CompiledNet with all per-lane state
// held replication-major:
//
//   * a (lane x place) token matrix — each lane's marking is one contiguous
//     row swept by the CompiledNet's CSR arc spans;
//   * the lanes' data states as one flat slot matrix (lane x value slots,
//     plus a lane x scalar presence matrix) — hooks evaluate bytecode
//     straight against their lane's row (expr::vm_eval_row);
//   * (lane x transition) columns for the eligibility state machine
//     (eligible/ready flags, enabling generations, in-flight counts,
//     completion counters) and per-lane RNGs, clocks and seeds.
//
// Per-lane transient machinery (event heap, dirty/ready sets, counters,
// statistics accumulators, VM scratch) lives in a LaneState that run()
// reuses across the lanes a worker runs, so a lane run performs no
// per-event allocation: statistics are accumulated natively with
// StatCollector's exact arithmetic instead of materializing TraceEvents.
// Lanes are independent, so results are identical for every
// BatchOptions::threads value.
//
// Parameter patches: a lane can deviate from the compiled net without
// recompiling — initial tokens, constant enabling delays, uniform delay bounds,
// conflict frequencies, initial scalar values, and the literal bounds of
// `irand` calls inside compiled actions. Each patch is equivalent to
// rebuilding the Net with the changed value (the sweep API, sim/sweep.h,
// drives whole parameter grids through one batch this way).
//
// Threads: with more than one thread, the net's predicates, actions and
// computed delays run concurrently across lanes. Hooks are bytecode —
// immutable code, per-worker evaluation scratch — so that is safe by
// construction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "expr/program.h"
#include "expr/vm.h"
#include "petri/compiled_net.h"
#include "petri/data_frame.h"
#include "petri/net.h"
#include "petri/rng.h"
#include "stat/stat.h"
#include "trace/trace.h"
#include "util/stop.h"

namespace pnut {

/// Why a lane's run returned.
enum class StopReason : std::uint8_t {
  kTimeLimit,   ///< the requested horizon was reached
  kDeadlock,    ///< no transition can ever fire again
  kEventLimit,  ///< the requested event budget was exhausted
};

/// The transient state of one running lane: event queue, dirty/ready sets,
/// clock and counters, statistics accumulators and evaluation scratch.
/// BatchSimulator::run keeps one per worker and reuses it across the lanes
/// the worker runs; a Simulator owns one that persists across its run
/// calls. Only the lane kernel (batch_sim.cpp) writes it.
struct LaneState {
  enum class EventKind : std::uint8_t { kFiringComplete, kEnablingExpiry };

  struct Event {
    Time time = 0;
    std::uint64_t sequence = 0;  ///< tie-break: FIFO within an instant
    EventKind kind = EventKind::kFiringComplete;
    std::uint32_t transition = 0;
    std::uint64_t firing_id = 0;   ///< kFiringComplete
    std::uint64_t generation = 0;  ///< kEnablingExpiry
  };

  std::vector<Event> heap;  ///< min-heap on (time, sequence)
  /// Dirty and ready sets as bitmask words: iterating set bits with
  /// countr_zero walks ids in ascending order, while marking, erasing and
  /// membership tests are single bit operations.
  std::vector<std::uint64_t> dirty_words;
  std::vector<std::uint64_t> ready_words;  ///< ready && eligible ids
  std::vector<std::uint32_t> ready_ids;    ///< conflict candidates
  std::vector<double> weights;             ///< their frequencies
  expr::VmScratch vm;
  DataFrame frame_before;  ///< action-diff snapshot (sink lanes)

  Time now = 0;
  std::uint64_t next_sequence = 0;
  std::uint64_t next_firing = 0;  ///< firing starts since reset
  std::uint64_t immediate_this_instant = 0;
  Time instant = -1;  ///< the instant the immediate budget counts against

  RunCounters stats;  ///< Figure 5's counters, summarized by finish()
};

struct BatchOptions {
  /// Lane k defaults to seed base_seed + k (override with set_seed).
  std::uint64_t base_seed = 1;
  Time start_time = 0;
  /// Abort threshold for zero-delay firing cascades at a single instant.
  std::uint64_t max_immediate_firings_per_instant = 1'000'000;
  /// Worker threads lanes are partitioned over; 0 picks from the hardware.
  /// Results are bit-identical for every value.
  unsigned threads = 1;
  /// Cooperative deadline/cancellation (util/stop.h), polled every
  /// kStopCheckStride events per lane. A stop surfaces as StopError through
  /// run() — the same parked-exception path a lane's own failure takes.
  StopToken stop;
};

/// N replication lanes of one compiled net, run as one batch. Construct,
/// optionally patch lanes / attach sinks / override seeds, call run(),
/// read per-lane results. run() restarts every lane from its (patched)
/// initial state, so a BatchSimulator is reusable across horizons.
class BatchSimulator {
 public:
  BatchSimulator(std::shared_ptr<const CompiledNet> net, std::size_t num_lanes,
                 BatchOptions options = {});

  [[nodiscard]] std::size_t num_lanes() const { return num_lanes_; }
  [[nodiscard]] const CompiledNet& compiled() const { return *net_; }
  // --- per-lane configuration (before run()) --------------------------------

  /// Override lane's seed (default base_seed + lane).
  void set_seed(std::size_t lane, std::uint64_t seed);
  /// Tag lane's RunStats with a run number (default 1, as a StatCollector
  /// does; run_replications tags lane k with k + 1).
  void set_run_number(std::size_t lane, int run_number);
  /// Attach a sink receiving lane's trace — how `pnut simulate --trace`
  /// writes its trace file, and how the differential tests inspect lanes.
  /// Lanes without sinks run allocation-free. The sink sees the lane's
  /// begin/event/end stream, identical to a Simulator's over the patched
  /// net rebuilt.
  void set_sink(std::size_t lane, TraceSink* sink);

  // --- per-lane parameter patches (no recompilation) ------------------------
  //
  // Each throws std::invalid_argument if the patch does not match the
  // transition's delay kind (a constant patch on a uniform delay, ...), so
  // a patched lane is always equivalent to a legally rebuilt net.

  void patch_initial_tokens(std::size_t lane, PlaceId place, TokenCount tokens);
  /// Patch a DelaySpec::constant enabling delay.
  void patch_enabling_constant(std::size_t lane, TransitionId t, Time value);
  /// Patch the [lo, hi] bounds of a DelaySpec::uniform_int delay.
  void patch_enabling_uniform(std::size_t lane, TransitionId t, std::int64_t lo,
                              std::int64_t hi);
  void patch_firing_uniform(std::size_t lane, TransitionId t, std::int64_t lo,
                            std::int64_t hi);
  /// Patch the relative conflict-resolution frequency (must be > 0).
  void patch_frequency(std::size_t lane, TransitionId t, double frequency);
  /// Override an initial data scalar (the value Net::initial_data() holds).
  void patch_initial_scalar(std::size_t lane, std::string_view name,
                            std::int64_t value);
  /// Rewrite the literal bounds of the `occurrence`-th `irand(lo, hi)` call
  /// (0-based, in instruction order) inside transition `t`'s compiled
  /// action. Requires literal constant bounds.
  void patch_action_irand(std::size_t lane, TransitionId t, std::size_t occurrence,
                          std::int64_t lo, std::int64_t hi);

  // --- execution ------------------------------------------------------------

  /// Run every lane from its initial state to `horizon`. A lane that throws
  /// (zero-delay livelock, bad action) parks its exception; all other lanes
  /// still run, then the lowest-lane exception is rethrown — the same one a
  /// sequential loop over the lanes would have surfaced first.
  void run(Time horizon);

  // --- per-lane results (valid after run()) ---------------------------------

  [[nodiscard]] StopReason stop_reason(std::size_t lane) const;
  /// Figure-5 statistics for the lane, byte-identical to a StatCollector
  /// attached to the lane's trace.
  [[nodiscard]] const RunStats& stats(std::size_t lane) const;
  [[nodiscard]] Time now(std::size_t lane) const;
  [[nodiscard]] std::uint64_t total_firing_starts(std::size_t lane) const;

 private:
  friend struct LaneRun;
  friend class Simulator;

  // --- one resumable lane (the Simulator view) ------------------------------

  /// Restart `lane` from its initial state into `state`: reseed its RNG
  /// from the lane seed when `reseed`, else continue the RNG stream; emit
  /// begin() and fire the initial instant.
  void reset_lane(std::size_t lane, LaneState& state, bool reseed);
  /// Advance `lane` to `horizon` (inclusive), deadlock, or — when set — an
  /// event budget counting non-stale events, checked before each pop.
  StopReason advance_lane(std::size_t lane, LaneState& state, Time horizon,
                          std::optional<std::uint64_t> max_events);
  /// Nothing can ever happen again: no queued events, no in-flight firings,
  /// no ready transitions.
  [[nodiscard]] bool lane_deadlocked(std::size_t lane, const LaneState& state) const;

  void check_lane(std::size_t lane) const;
  void check_ran(std::size_t lane) const;
  [[nodiscard]] std::size_t lt(std::size_t lane, TransitionId t) const {
    return lane * num_transitions_ + t.value;
  }

  /// Broadcast-allocate a per-lane override matrix on first patch.
  template <typename T>
  std::vector<T>& ensure_matrix(std::vector<T>& matrix, const T* base,
                                std::size_t stride);

  std::shared_ptr<const CompiledNet> net_;
  BatchOptions options_;
  std::size_t num_lanes_ = 0;
  std::size_t num_places_ = 0;
  std::size_t num_transitions_ = 0;
  /// RunStats row labels, in id order.
  std::vector<std::string> place_names_, transition_names_;

  /// Bytecode runtime; null for hook-free nets (no data rows at all).
  std::shared_ptr<const expr::NetProgram> program_;

  // Shared per-transition delay plan, decoded once from the DelaySpecs so
  // the per-event sampling path reads flat arrays (per-lane override rows
  // alias these when unpatched).
  std::vector<DelaySpec::Kind> enab_kind_, fire_kind_;
  std::vector<Time> enab_const_base_, fire_const_base_;
  std::vector<std::int64_t> enab_lo_base_, enab_hi_base_, fire_lo_base_, fire_hi_base_;
  std::vector<double> freq_base_;
  std::vector<TokenCount> init_tokens_base_;

  // Lazily-allocated per-lane override matrices (lane-major, broadcast from
  // the base row on first patch of the field).
  std::vector<Time> enab_const_m_;
  std::vector<std::int64_t> enab_lo_m_, enab_hi_m_, fire_lo_m_, fire_hi_m_;
  std::vector<double> freq_m_;
  std::vector<TokenCount> init_tokens_m_;
  /// Per-lane initial-scalar overrides: (value slot or ~0u on a hook-free
  /// net, name, value). Outer vector sized on first patch.
  struct ScalarPatch {
    std::uint32_t slot = ~0u;
    std::string name;
    std::int64_t value = 0;
  };
  std::vector<std::vector<ScalarPatch>> scalar_patches_;
  /// Per-(lane, transition) action-code overrides for irand-bounds patches.
  std::vector<std::pair<std::size_t, expr::Code>> action_patches_;  ///< key = lane*T + t
  [[nodiscard]] const expr::Code* patched_action(std::size_t lane, TransitionId t) const;

  // --- replication-major SoA state -----------------------------------------

  std::vector<TokenCount> marking_m_;      ///< lanes x places
  std::vector<std::int64_t> frame_vals_m_; ///< lanes x schema value slots
  std::vector<std::uint8_t> frame_pres_m_; ///< lanes x schema scalar slots
  std::vector<std::uint8_t> eligible_m_, ready_m_;        ///< lanes x transitions
  std::vector<Time> enabled_since_m_;                     ///< lanes x transitions
  std::vector<std::uint64_t> generation_m_, completions_m_;
  std::vector<std::uint32_t> in_flight_m_;
  std::vector<Rng> rngs_;
  std::vector<Time> now_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint64_t> firing_starts_;
  std::vector<int> run_numbers_;
  std::vector<TraceSink*> sinks_;
  std::vector<StopReason> stop_;
  std::vector<RunStats> results_;
  bool ran_ = false;
};

}  // namespace pnut
