// Parallel timed reachability on the level-engine core.
//
// The timed graph is a 0-1 BFS (firing edges cost 0 ticks, the tick edge
// costs 1), so the untimed engine's "one BFS level = one contiguous
// canonical id range" assumption does not hold: a round here is one
// closure round of the two-bucket scheduler the sequential builder runs
// (detail::TimedSchedule, timed_encode.h). `current` holds the cost-0
// closure of the instant `now` as an append-only pending list; each round
// EXPANDs the not-yet-expanded tail of that list and SEALs its discoveries.
//
// EXPAND is detail::LevelEngine's (level_engine.h: batches, worker pool,
// sharded provisional interning, failure parking, candidate capture — the
// machinery the untimed engine runs too). Each worker expands its parents'
// canonical arena words with its own copy of the successor kernel the
// sequential builder runs (detail::TimedKernel: ready firings in
// transition order under maximal progress, else one tick).
//
// The SEAL is this engine's own. It replays every item of the round, not
// only the candidates, because each edge feeds the scheduler: the first
// canonical appearance of a provisional slot gets the next canonical id —
// exactly the sequential builder's discovery order — with its earliest
// time assigned from the replay position (`now` + edge cost, min-updated
// on later sightings: a state staged for the next tick bucket is
// *promoted* into the current closure when a firing path reaches it one
// tick earlier), and TimedSchedule stages ticks, gates the max_time
// horizon and applies max_states truncation at the exact sequential edge
// position.
//
// When a round discovers nothing more at cost 0, the closure is complete:
// the staged bucket (minus promoted states) becomes the next `current` and
// `now` advances one tick. The result is byte-identical to the sequential
// builder for every thread count — state ids, edge pool order, earliest
// times, expanded flags, status, and the truncated prefix when limits hit
// (differentially pinned by tests/analysis_timed_parallel_equivalence_test.cpp,
// which also pins every graph to fingerprints frozen before the kernel).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/exploration.h"
#include "analysis/state_store.h"
#include "analysis/timed_encode.h"
#include "analysis/timed_reachability.h"
#include "petri/compiled_net.h"

namespace pnut::analysis {

/// Everything TimedReachabilityGraph needs to adopt a finished exploration.
struct TimedParallelResult {
  StateStore store;  ///< canonical: state i = sequential discovery i
  EdgeCsr<TimedReachabilityGraph::Edge> edges;  ///< canonical flat pool
  std::vector<std::uint64_t> earliest_time;     ///< per state, in ticks
  std::vector<std::uint8_t> expanded;           ///< per state: row complete
  TimedReachStatus status = TimedReachStatus::kComplete;
  /// Spill accounting for the (destroyed-with-the-explorer) shard stores:
  /// their summed peak resident bytes and whether any of them spilled.
  std::size_t aux_peak_bytes = 0;
  bool aux_spill_engaged = false;
};

/// Explore with `threads` workers (>= 2; callers resolve 0/1 themselves).
/// `layout` must be TimedLayout::build(net) — the caller already validated
/// the net for timed analysis while deriving it.
TimedParallelResult explore_timed_parallel(const CompiledNet& net,
                                           const detail::TimedLayout& layout,
                                           const TimedReachOptions& options,
                                           unsigned threads);

}  // namespace pnut::analysis
