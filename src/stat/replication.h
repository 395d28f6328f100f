// Multi-replication experiments.
//
// The paper's simulator accepts "a few simulation commands that allow a user
// to control the duration of one or more simulation experiments". This
// helper runs N independent replications (fresh seed each) and aggregates
// any scalar metric extracted from the per-run statistics, reporting sample
// mean, sample standard deviation, and min/max — the standard way to put
// confidence behind a single Figure-5-style run.
//
// Replications run as lanes of one BatchSimulator (sim/batch_sim.h)
// sharing one immutable CompiledNet. Each lane is a pure function of
// (net, base_seed + k, horizon) and results merge in k order, so the
// output is bit-identical whatever the thread count — including the
// sequential num_threads = 1 path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "petri/compiled_net.h"
#include "sim/batch_sim.h"
#include "stat/stat.h"
#include "util/stop.h"

namespace pnut {

struct MetricSummary {
  std::string name;
  std::size_t replications = 0;
  double mean = 0;
  double stddev = 0;  ///< sample standard deviation (n-1)
  double min = 0;
  double max = 0;
  /// Half-width of the 95% confidence interval on the mean (Student-t on
  /// n-1 degrees of freedom); 0 with fewer than two replications.
  double ci_half_width = 0;
};

/// A named scalar extracted from one run's statistics.
struct MetricSpec {
  std::string name;
  std::function<double(const RunStats&)> extract;
};

struct ReplicationResult {
  std::vector<RunStats> runs;
  std::vector<MetricSummary> metrics;
};

/// Run `num_replications` simulations of the compiled `net` to `horizon`,
/// seeding run k with `base_seed + k`, and summarize `metrics` across runs.
/// `num_threads` = 0 (the default) picks a pool size from the hardware;
/// 1 forces the sequential path. Results are identical for every value.
///
/// Threads: the net's predicates, actions and computed delays run
/// concurrently across replications as immutable bytecode with
/// per-worker scratch, so any thread count is safe.
///
/// `stop` (util/stop.h) cancels cooperatively: a tripped deadline or cancel
/// surfaces as StopError, with no partial result — the caller retries or
/// gives up, it never sees half an experiment.
ReplicationResult run_replications(std::shared_ptr<const CompiledNet> net, Time horizon,
                                   std::size_t num_replications,
                                   const std::vector<MetricSpec>& metrics,
                                   std::uint64_t base_seed = 1,
                                   unsigned num_threads = 0,
                                   StopToken stop = {});

/// Convenience overload: compiles `net` once, then runs as above.
ReplicationResult run_replications(const Net& net, Time horizon,
                                   std::size_t num_replications,
                                   const std::vector<MetricSpec>& metrics,
                                   std::uint64_t base_seed = 1,
                                   unsigned num_threads = 0,
                                   StopToken stop = {});

/// Summarize one metric across runs: mean, sample stddev, min/max and the
/// 95% CI half-width. The shared aggregation of run_replications and the
/// sweep API (sim/sweep.h).
MetricSummary summarize_metric(const MetricSpec& spec, std::span<const RunStats> runs);

/// Aligned text table of metric summaries ("metric  mean ± stddev  [min, max]").
std::string format_metric_summaries(const std::vector<MetricSummary>& metrics);

}  // namespace pnut
