// Timed reachability analysis ([RP84], Section 4's "complete reachability
// graphs (timed)").
//
// For nets whose delays are integer constants, the timed behaviour is a
// discrete-time transition system whose states are
//   (marking, per-transition enabling-timer ages, in-flight firings with
//    remaining times, data)
// and whose edges are either *firing choices* at the current instant or a
// *tick* advancing time by one cycle when nothing can fire. Unlike the
// untimed graph, this enumerates exactly the timing-feasible interleavings:
// a transition whose enabling delay has not elapsed cannot steal a token
// here, while the untimed graph would let it.
//
// The timed graph answers questions the untimed graph cannot:
//   * exact best/worst-case time bounds between markings
//     (time_bounds_to_marking),
//   * whether a timing race exists at all (branching in the timed graph),
//   * cycle-accurate state counts for small controllers.
//
// Storage: a timed state is interned as a fixed-width word vector in the
// shared StateStore arena —
//   [ marking tokens | per-transition remaining enabling delay |
//     per-(transition, remaining-cycles) in-flight firing counts ]
// — a canonical encoding (the in-flight multiset becomes counts indexed by
// remaining time), so interning needs no strings and no sorting. Timers are
// canonical too: an ineligible transition's timer word always holds its
// full enabling delay, so two states that differ only in a stale timer
// cannot both exist. Edges are one flat CSR pool.
//
// Successors come from one word-level kernel (analysis/timed_encode.h,
// detail::TimedKernel): it expands a state on its arena words without
// decoding it, builds each firing successor with one copy plus the arc
// deltas and re-tests only the transitions the firing can disable, and
// builds the tick with one shifted copy of the in-flight region,
// re-testing only the inhibitor testers of the places its completions
// fill. Width grows with the sum of firing delays, capped at
// kMaxTimedStateWords; together with the timer words this keeps the
// analyzer's practical envelope at controller-sized nets (tens of places,
// delays up to ~10) — the paper's [RP84] tool had the same envelope.
// Exploration is bounded by max_states and max_time, and runs the 0-1 BFS
// on a two-bucket scheduler in one sequential builder. There is no parallel
// timed builder: a level-parallel one was slower than this one at every
// thread count measured (0.54x-0.68x of the one-thread rate at 2-8 threads
// on a 418k-state race ring).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/exploration.h"
#include "analysis/spill.h"
#include "analysis/state_store.h"
#include "petri/compiled_net.h"
#include "petri/marking.h"
#include "petri/net.h"
#include "util/stop.h"

namespace pnut::analysis {

struct TimedReachOptions {
  std::size_t max_states = 100'000;
  /// Time horizon: paths are cut (status kTruncated) beyond this many ticks.
  std::uint64_t max_time = 10'000;
  /// Ignored: the timed graph has one sequential builder. Kept only because
  /// the frozen benchmark harness (pnbench/src/layers.cpp) still assigns it.
  unsigned threads = 1;
  /// Out-of-core exploration (spill.h): sealed states and edge rows spill
  /// to mmap'd segment files once the resident set exceeds the budget. The
  /// graph is byte-identical to the all-in-RAM build — spilling is floored
  /// at the expanding state, and a promotion that re-reads an older state
  /// faults its segment back in.
  SpillOptions spill;
  /// Cooperative deadline/cancellation (util/stop.h). Polled via the
  /// schedule's counter — every kStopCheckStride expanded states plus the
  /// first state of each instant — so a stopped graph (status
  /// kTimeout/kCancelled) is a truncated prefix fixed by the poll at which
  /// the stop fired, exactly like max_states/max_time truncation.
  StopToken stop;
};

/// Widest timed state, in words, a net may need. Each cycle of a firing
/// delay adds a word, so the budget bounds the sum of the firing delays.
/// Measured widths: the full pipeline model 111, the bench race rings
/// 54/72/78, the stress rings two words per place (22 for ring 11x7, 76
/// for 38x5), so the budget is ~590x the widest; without one, a single
/// `firing 300000000` makes every state 1.2 GB.
inline constexpr std::size_t kMaxTimedStateWords = std::size_t{1} << 16;

/// A net whose delays do not fit a timed state: a delay past UINT32_MAX
/// cycles, or firing delays that make a state wider than
/// kMaxTimedStateWords. The text names the transition. An invalid_argument
/// like every other net timed analysis cannot take.
class TimedLimitError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One timed edge: the fired transition, or a one-cycle tick, and the
/// target state.
struct TimedEdge {
  /// Fired transition, or nullopt for a one-cycle tick.
  std::optional<TransitionId> transition;
  std::uint32_t target = 0;
};

/// Discrete-time reachability graph of a net with integer constant delays.
class TimedReachabilityGraph : public ExploredGraph<TimedReachabilityGraph, TimedEdge> {
 public:
  using Edge = TimedEdge;

  /// Throws std::invalid_argument if any delay is not a non-negative
  /// integer constant, or if the net is interpreted (predicates/actions) —
  /// timed analysis is defined on the uninterpreted timing skeleton — and
  /// TimedLimitError if the delays do not fit a timed state.
  explicit TimedReachabilityGraph(const Net& net, TimedReachOptions options = {});
  explicit TimedReachabilityGraph(std::shared_ptr<const CompiledNet> net,
                                  TimedReachOptions options = {});

  /// Time elapsed from the initial state (shortest path in ticks; exact
  /// when status() == kComplete, an upper bound on truncated graphs).
  [[nodiscard]] std::uint64_t earliest_time(std::size_t state) const {
    return earliest_time_.at(state);
  }
  /// The state's full interned word vector (marking | enabling timers |
  /// in-flight counts) — the differential tests compare graphs byte for
  /// byte through this.
  [[nodiscard]] std::span<const std::uint32_t> state_words(std::size_t state) const {
    return store_.state(state);
  }

  /// True if `state` was fully expanded (its edge row is complete). On a
  /// truncated graph (max_states / max_time hit) the frontier leftovers
  /// were discovered but never expanded: their empty edge rows say nothing
  /// about deadlock, and queries must skip them.
  [[nodiscard]] bool state_expanded(std::size_t state) const {
    return expanded_.at(state) != 0;
  }

  /// Earliest and latest (over timing-feasible paths, up to the horizon)
  /// times at which `predicate` over the marking first becomes true.
  /// Returns nullopt if no path reaches it. The latest bound is the maximum
  /// over paths of the *first* hit — i.e. the worst-case response time.
  /// Truncation honesty: a path that leaves the explored region (reaches a
  /// never-expanded truncation leftover) without hitting the predicate has
  /// an unknown continuation, so the latest bound saturates to UINT64_MAX —
  /// the query never manufactures a finite bound a longer exploration could
  /// break.
  struct TimeBounds {
    std::uint64_t earliest = 0;
    std::uint64_t latest = 0;
  };
  [[nodiscard]] std::optional<TimeBounds> time_bounds(
      const std::function<bool(const Marking&)>& predicate) const;

 private:
  void explore(const TimedReachOptions& options);

  std::vector<std::uint64_t> earliest_time_;
  std::vector<std::uint8_t> expanded_;  ///< per state: edge row is complete
};

}  // namespace pnut::analysis
