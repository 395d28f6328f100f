// Parallel untimed state-space exploration on the level-engine core.
//
// The sequential reachability builder expands one frontier state at a time;
// at million-state scale the expansion work (enablement tests over the CSR
// arc spans, token deltas, interning) is embarrassingly parallel *per
// state* — what is not parallel is the thing every consumer depends on: the
// state numbering. Deadlock sets, place bounds, edge lists, query-engine
// state indices and the truncation point are all expressed in state ids, so
// a parallel explorer that numbered states by interleaving order would give
// a different (if isomorphic) graph on every run.
//
// This engine runs the rounds of detail::LevelEngine (level_engine.h: the
// sharded provisional interning, batches, worker pool, failure parking and
// candidate capture). Here a round is one BFS
// level — a contiguous canonical id range, because canonical ids *are* BFS
// discovery order — and every worker expands its parents with its own copy
// of the one untimed successor rule, detail::ReachKernel (reach_encode.h),
// which the sequential builder runs too. What is specific to this engine is
// the seal:
//
//   Phase A walks only the level's candidates (fresh-state sightings, a
//   small fraction of all edges) in canonical parent order, assigning the
//   next canonical id at each first appearance and appending the captured
//   words to the canonical arena. The sequential builder's stop rules —
//   stop-token polls, max_states truncation, place-bound overflow (a row
//   the kernel cut short) and a parked model error — fire at the same
//   positions they would sequentially; a stop emits the exact truncated
//   edge prefix.
//
//   Phase B opens the level's CSR rows in one bulk append and translates
//   the batches' edge items to canonical ids, batches in parallel.
//
// The result is byte-identical to the sequential builder for every thread
// count: same state numbering, same edge pool order, same status, same
// truncated prefix when limits hit. The differential harness
// (tests/analysis_parallel_equivalence_test.cpp) pins this on the golden
// models and on randomized nets.
//
// Interpreted nets run predicates and actions as bytecode (expr/vm.h) in
// each worker's kernel. A state is its full [marking | schema-encoded data]
// word vector — provisional and canonical words coincide, and the width is
// frozen before the first state, so interpreted nets seal exactly like
// plain ones. Bytecode is immutable and each kernel evaluates with its own
// scratch, so concurrent evaluation is safe by construction.
#pragma once

#include "analysis/exploration.h"
#include "analysis/reachability.h"
#include "analysis/state_store.h"
#include "expr/program.h"
#include "petri/compiled_net.h"

namespace pnut::analysis {

/// Everything ReachabilityGraph needs to adopt a finished exploration.
struct ParallelReachResult {
  StateStore store;                      ///< canonical: state i = BFS discovery i
  EdgeCsr<ReachabilityGraph::Edge> edges;  ///< canonical flat pool
  ReachStatus status = ReachStatus::kComplete;
  /// States [0, num_expanded) were fully expanded — the same prefix the
  /// sequential builder expands (BFS expansion order is canonical id
  /// order). Later states are truncation leftovers with empty or partial
  /// edge rows; graph queries must not read those rows as deadlocks.
  std::size_t num_expanded = 0;
  /// Spill accounting for the (destroyed-with-the-explorer) shard stores:
  /// their summed peak resident bytes and whether any of them spilled.
  std::size_t aux_peak_bytes = 0;
  bool aux_spill_engaged = false;
};

/// Explore with `threads` workers (>= 2; callers resolve 0/1 themselves).
/// Byte-identical to the sequential builder for any thread count.
/// `program` is the net's compiled bytecode; it must be non-null whenever
/// the net has predicates or actions.
ParallelReachResult explore_reachability_parallel(const CompiledNet& net,
                                                  const ReachOptions& options, unsigned threads,
                                                  const expr::NetProgram* program);

}  // namespace pnut::analysis
