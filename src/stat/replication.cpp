#include "stat/replication.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/batch_sim.h"

namespace pnut {

namespace {

/// Two-sided 97.5% Student-t quantiles for df = 1..30; beyond that the
/// normal approximation (1.96) is within half a percent.
double t_quantile_975(std::size_t df) {
  static constexpr double kTable[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0;
  if (df <= 30) return kTable[df - 1];
  return 1.96;
}

}  // namespace

MetricSummary summarize_metric(const MetricSpec& spec, std::span<const RunStats> runs) {
  MetricSummary summary;
  summary.name = spec.name;
  summary.replications = runs.size();
  std::vector<double> values;
  values.reserve(runs.size());
  for (const RunStats& run : runs) values.push_back(spec.extract(run));
  if (!values.empty()) {
    double sum = 0;
    for (double v : values) sum += v;
    summary.mean = sum / static_cast<double>(values.size());
    double ss = 0;
    for (double v : values) ss += (v - summary.mean) * (v - summary.mean);
    summary.stddev =
        values.size() > 1 ? std::sqrt(ss / static_cast<double>(values.size() - 1)) : 0;
    summary.min = *std::min_element(values.begin(), values.end());
    summary.max = *std::max_element(values.begin(), values.end());
    if (values.size() > 1) {
      summary.ci_half_width = t_quantile_975(values.size() - 1) * summary.stddev /
                              std::sqrt(static_cast<double>(values.size()));
    }
  }
  return summary;
}

ReplicationResult run_replications(std::shared_ptr<const CompiledNet> net, Time horizon,
                                   std::size_t num_replications,
                                   const std::vector<MetricSpec>& metrics,
                                   std::uint64_t base_seed, unsigned num_threads,
                                   StopToken stop) {
  ReplicationResult result;

  if (num_replications > 0) {
    // Every replication is a lane of one batch off the same immutable view.
    // Lane k runs with seed base_seed + k as run k + 1 and lands in slot k,
    // so the merged output is bit-identical to the historical
    // one-Simulator-per-replication pool for any thread count.
    BatchOptions options;
    options.base_seed = base_seed;
    options.threads = num_threads;  // 0 = hardware, as before
    options.stop = stop;
    BatchSimulator batch(std::move(net), num_replications, options);
    for (std::size_t k = 0; k < num_replications; ++k) {
      batch.set_run_number(k, static_cast<int>(k + 1));
    }
    batch.run(horizon);
    result.runs.reserve(num_replications);
    for (std::size_t k = 0; k < num_replications; ++k) {
      result.runs.push_back(batch.stats(k));
    }
  }

  result.metrics.reserve(metrics.size());
  for (const MetricSpec& spec : metrics) {
    result.metrics.push_back(summarize_metric(spec, result.runs));
  }
  return result;
}

ReplicationResult run_replications(const Net& net, Time horizon,
                                   std::size_t num_replications,
                                   const std::vector<MetricSpec>& metrics,
                                   std::uint64_t base_seed, unsigned num_threads,
                                   StopToken stop) {
  return run_replications(CompiledNet::compile(net), horizon, num_replications, metrics,
                          base_seed, num_threads, std::move(stop));
}

std::string format_metric_summaries(const std::vector<MetricSummary>& metrics) {
  std::size_t name_w = 6;
  for (const MetricSummary& m : metrics) name_w = std::max(name_w, m.name.size());

  std::ostringstream out;
  char buf[160];
  for (const MetricSummary& m : metrics) {
    std::snprintf(buf, sizeof(buf), "  %-*s  %10.4f +/- %-8.4f  [%g, %g]  (n=%zu)\n",
                  static_cast<int>(name_w), m.name.c_str(), m.mean, m.stddev, m.min, m.max,
                  m.replications);
    out << buf;
  }
  return out.str();
}

}  // namespace pnut
