// Parameter sweeps without recompilation: whole experiment grids as one
// batched run.
//
// The paper's Figures are parameter studies — "the effect of memory latency
// on performance" (Section 4.2) is a curve of operating points, each of
// which the historical tooling produced by rebuilding and revalidating the
// whole Net, recompiling it, and running one scalar Simulator. A SweepAxis
// describes one swept parameter as a *patch* against a single CompiledNet
// (sim/batch_sim.h): enabling delay constants, conflict frequencies (the
// cache hit/miss split) and initial markings have factories; uniform delay
// bounds and irand bounds take an explicit `apply` over the BatchSimulator
// patches. A grid of axes then becomes one BatchSimulator with
// cells x replications lanes — compiled once, patched per lane, run in one
// batch — returning a per-cell MetricSummary (mean/stddev/CI95) for each
// requested metric.
//
// Replication r of every cell is seeded base_seed + r (common random
// numbers across cells: cross-cell differences are parameter effects, not
// seed effects — the standard variance-reduction choice for comparing grid
// points). Each lane is bit-identical to a Simulator over a Net rebuilt
// with that cell's parameter values and run with that seed.
//
// Patches cannot change net *structure*: a cache-present vs cache-absent
// comparison is two sweeps over two compiled nets (see
// bench/bench_ext_cache_sweep.cpp), while everything within one structure —
// hit ratio x memory latency, say — is one grid.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch_sim.h"
#include "stat/replication.h"

namespace pnut {

/// One swept parameter: a display name, the grid values along this axis,
/// and the patch applying a value to one lane of a batch.
struct SweepAxis {
  std::string name;
  std::vector<double> values;
  std::function<void(BatchSimulator&, std::size_t lane, double value)> apply;

  /// Sweep a DelaySpec::constant enabling delay shared by `transitions`
  /// (e.g. the paper's memory latency on End_prefetch/end_fetch/end_store).
  static SweepAxis enabling_constant(std::string name,
                                     std::vector<std::string> transitions,
                                     std::vector<double> values);
  /// Sweep the initial token count of `place` (values must be non-negative
  /// integers).
  static SweepAxis initial_tokens(std::string name, std::string place,
                                  std::vector<double> values);
  /// Sweep a probability split over (taken, not_taken) conflict pairs:
  /// value r patches frequency r onto each pair's first transition and
  /// 1 - r onto its second — the cache hit-ratio axis of the extended
  /// pipeline model (Start_X_hit / Start_X_miss).
  static SweepAxis frequency_split(
      std::string name,
      std::vector<std::pair<std::string, std::string>> pairs,
      std::vector<double> ratios);
};

struct SweepOptions {
  /// Independent replications per grid cell.
  std::size_t replications = 1;
  /// Replication r (of every cell) runs with seed base_seed + r.
  std::uint64_t base_seed = 1;
  Time start_time = 0;
  /// Worker threads for the batch; 0 picks from the hardware. Results are
  /// bit-identical for every value.
  unsigned threads = 1;
  /// Cooperative deadline/cancellation (util/stop.h): a tripped stop
  /// surfaces as StopError from run_sweep, with no partial grid.
  StopToken stop;
};

/// One grid cell's outcome: its coordinates (one value per axis, same
/// order), the per-replication Figure-5 statistics, and the requested
/// metric summaries (mean / sample stddev / min / max / 95% CI half-width).
struct SweepCell {
  std::vector<double> coordinates;
  std::vector<RunStats> runs;
  std::vector<MetricSummary> metrics;
};

struct SweepResult {
  std::vector<std::string> axis_names;
  std::vector<std::size_t> shape;  ///< one extent per axis
  std::vector<SweepCell> cells;    ///< row-major; last axis varies fastest

  /// Cell by per-axis indices (size must match shape).
  [[nodiscard]] const SweepCell& at(std::span<const std::size_t> index) const;
};

/// Run the full cross-product grid of `axes` over `net`: one batched run of
/// product(shape) x replications lanes, compiled once, patched per lane.
/// An empty axes list is a 1-cell grid (plain replications). Throws
/// std::invalid_argument on an empty axis, zero replications, or a patch
/// that does not fit the net (unknown name, wrong delay kind).
SweepResult run_sweep(std::shared_ptr<const CompiledNet> net,
                      std::vector<SweepAxis> axes, Time horizon,
                      const std::vector<MetricSpec>& metrics,
                      SweepOptions options = {});

}  // namespace pnut
