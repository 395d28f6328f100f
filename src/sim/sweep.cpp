#include "sim/sweep.h"

#include <cmath>
#include <stdexcept>

namespace pnut {

namespace {

std::vector<TransitionId> resolve_transitions(const CompiledNet& net,
                                              std::span<const std::string> names) {
  std::vector<TransitionId> ids;
  ids.reserve(names.size());
  for (const std::string& name : names) ids.push_back(net.transition_named(name));
  return ids;
}

}  // namespace

SweepAxis SweepAxis::enabling_constant(std::string name,
                                       std::vector<std::string> transitions,
                                       std::vector<double> values) {
  SweepAxis axis;
  axis.name = std::move(name);
  axis.values = std::move(values);
  axis.apply = [transitions = std::move(transitions)](BatchSimulator& batch,
                                                      std::size_t lane, double value) {
    for (const TransitionId t : resolve_transitions(batch.compiled(), transitions)) {
      batch.patch_enabling_constant(lane, t, value);
    }
  };
  return axis;
}

SweepAxis SweepAxis::initial_tokens(std::string name, std::string place,
                                    std::vector<double> values) {
  SweepAxis axis;
  axis.name = std::move(name);
  axis.values = std::move(values);
  axis.apply = [place = std::move(place)](BatchSimulator& batch, std::size_t lane,
                                          double value) {
    if (!(value >= 0) || value != std::floor(value)) {
      throw std::invalid_argument(
          "SweepAxis::initial_tokens: value " + std::to_string(value) +
          " is not a non-negative integer");
    }
    batch.patch_initial_tokens(lane, batch.compiled().place_named(place),
                               static_cast<TokenCount>(value));
  };
  return axis;
}

SweepAxis SweepAxis::frequency_split(
    std::string name, std::vector<std::pair<std::string, std::string>> pairs,
    std::vector<double> ratios) {
  SweepAxis axis;
  axis.name = std::move(name);
  axis.values = std::move(ratios);
  axis.apply = [pairs = std::move(pairs)](BatchSimulator& batch, std::size_t lane,
                                          double ratio) {
    if (!(ratio > 0) || !(ratio < 1)) {
      throw std::invalid_argument("SweepAxis::frequency_split: ratio " +
                                  std::to_string(ratio) + " is not in (0, 1)");
    }
    const CompiledNet& net = batch.compiled();
    for (const auto& [taken, not_taken] : pairs) {
      // Same arithmetic as the model builder's hit/miss frequencies, so a
      // patched lane matches a rebuilt net bit for bit.
      batch.patch_frequency(lane, net.transition_named(taken), ratio);
      batch.patch_frequency(lane, net.transition_named(not_taken), 1 - ratio);
    }
  };
  return axis;
}

const SweepCell& SweepResult::at(std::span<const std::size_t> index) const {
  if (index.size() != shape.size()) {
    throw std::invalid_argument("SweepResult::at: index rank " +
                                std::to_string(index.size()) + " != grid rank " +
                                std::to_string(shape.size()));
  }
  std::size_t flat = 0;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (index[i] >= shape[i]) {
      throw std::invalid_argument("SweepResult::at: index " + std::to_string(index[i]) +
                                  " out of range for axis " + std::to_string(i));
    }
    flat = flat * shape[i] + index[i];
  }
  return cells[flat];
}

SweepResult run_sweep(std::shared_ptr<const CompiledNet> net,
                      std::vector<SweepAxis> axes, Time horizon,
                      const std::vector<MetricSpec>& metrics, SweepOptions options) {
  if (options.replications == 0) {
    throw std::invalid_argument("run_sweep: zero replications");
  }
  SweepResult result;
  std::size_t num_cells = 1;
  for (const SweepAxis& axis : axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("run_sweep: axis '" + axis.name + "' has no values");
    }
    if (!axis.apply) {
      throw std::invalid_argument("run_sweep: axis '" + axis.name +
                                  "' has no apply function");
    }
    result.axis_names.push_back(axis.name);
    result.shape.push_back(axis.values.size());
    num_cells *= axis.values.size();
  }

  const std::size_t reps = options.replications;
  BatchOptions batch_options;
  batch_options.base_seed = options.base_seed;
  batch_options.start_time = options.start_time;
  batch_options.threads = options.threads;
  batch_options.stop = options.stop;
  BatchSimulator batch(std::move(net), num_cells * reps, batch_options);

  // Lane layout: cell-major, replications contiguous. Replication r of
  // every cell shares seed base_seed + r (common random numbers).
  std::vector<std::size_t> index(axes.size(), 0);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    for (std::size_t r = 0; r < reps; ++r) {
      const std::size_t lane = cell * reps + r;
      batch.set_seed(lane, options.base_seed + static_cast<std::uint64_t>(r));
      batch.set_run_number(lane, static_cast<int>(r + 1));
      for (std::size_t a = 0; a < axes.size(); ++a) {
        axes[a].apply(batch, lane, axes[a].values[index[a]]);
      }
    }
    // Row-major increment: last axis fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++index[a] < axes[a].values.size()) break;
      index[a] = 0;
    }
  }

  batch.run(horizon);

  result.cells.resize(num_cells);
  std::fill(index.begin(), index.end(), 0);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    SweepCell& out = result.cells[cell];
    out.coordinates.reserve(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      out.coordinates.push_back(axes[a].values[index[a]]);
    }
    out.runs.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      out.runs.push_back(batch.stats(cell * reps + r));
    }
    out.metrics.reserve(metrics.size());
    for (const MetricSpec& spec : metrics) {
      out.metrics.push_back(summarize_metric(spec, out.runs));
    }
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++index[a] < axes[a].values.size()) break;
      index[a] = 0;
    }
  }
  return result;
}

}  // namespace pnut
