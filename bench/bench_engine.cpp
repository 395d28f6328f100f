// Engine performance: simulator event throughput and reachability scaling.
//
// Not a paper artifact — this is the repository's own performance
// regression harness for the core machinery every other bench depends on.
// Besides the google-benchmark timings, the artifact pass measures raw
// events/second on the paper's models and writes BENCH_engine.json so the
// perf trajectory of the engine is recorded run over run. The committed
// pre_refactor baselines were measured in this repo immediately before the
// CompiledNet incremental-eligibility core replaced the per-firing
// whole-net eligibility rescan.
//
// Simulator is a one-lane view of the batch lane kernel, so the
// with-statistics row times the two ways to get a run's Figure-5
// statistics off that kernel: a Simulator feeding a StatCollector sink (one
// TraceEvent and two virtual calls per event), and a one-lane
// BatchSimulator accumulating them natively — the path `pnut simulate`
// runs. Both must print the identical format_report for every seed; any
// divergence is a bug and the bench exits nonzero.
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "analysis/reachability.h"
#include "pipeline/interpreted.h"
#include "sim/batch_sim.h"

namespace pnut::bench {
namespace {

/// A chain of n pipeline-ish stages with recycling tokens; event count
/// scales linearly with n.
Net chain_net(std::size_t n) {
  Net net("chain" + std::to_string(n));
  std::vector<PlaceId> fwd;
  for (std::size_t i = 0; i <= n; ++i) {
    fwd.push_back(net.add_place("p" + std::to_string(i), i == 0 ? 4 : 0));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const TransitionId t = net.add_transition("t" + std::to_string(i));
    net.add_input(t, fwd[i]);
    net.add_output(t, fwd[i + 1]);
    net.set_firing_time(t, DelaySpec::constant(1 + (i % 3)));
  }
  const TransitionId wrap = net.add_transition("wrap");
  net.add_input(wrap, fwd[n]);
  net.add_output(wrap, fwd[0]);
  net.set_enabling_time(wrap, DelaySpec::constant(2));
  return net;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Seeds per round and timed rounds of every events/second figure.
constexpr int kSeeds = 5;
constexpr int kRounds = 5;

/// Median, min and max events/second of one path over the timed rounds.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

/// Silent Simulator events/second over kRounds rounds of seeds 1..kSeeds
/// to `horizon`, on one reused simulator.
Spread events_per_second(const Net& net, Time horizon) {
  Simulator sim(net);
  std::vector<double> samples;
  for (int round = 0; round < kRounds; ++round) {
    std::uint64_t events = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < kSeeds; ++k) {
      sim.reset(static_cast<std::uint64_t>(1 + k));
      sim.run_until(horizon);
      events += sim.total_firing_starts();
    }
    samples.push_back(static_cast<double>(events) / seconds_since(t0));
  }
  return spread_of(samples);
}

struct StatsRow {
  Spread simulator;  ///< Simulator + StatCollector sink
  Spread batch;      ///< one-lane BatchSimulator, native statistics
};

/// Time both statistics paths over kRounds rounds of seeds 1..kSeeds to
/// `horizon`, alternating path per seed. Each run builds its engine off one
/// compiled net, as a simulate request does. Counts in `mismatches` every
/// seed whose report or event count differs.
StatsRow stats_paths(const char* label, const Net& net, Time horizon,
                     std::size_t& mismatches) {
  const std::shared_ptr<const CompiledNet> compiled = CompiledNet::compile(net);
  std::vector<double> simulator_eps;
  std::vector<double> batch_eps;
  for (int round = 0; round < kRounds; ++round) {
    std::uint64_t simulator_events = 0;
    std::uint64_t batch_events = 0;
    double simulator_s = 0;
    double batch_s = 0;
    for (int k = 0; k < kSeeds; ++k) {
      const auto seed = static_cast<std::uint64_t>(1 + k);

      auto t0 = std::chrono::steady_clock::now();
      StatCollector stats;
      Simulator sim(compiled);
      sim.set_sink(&stats);
      sim.reset(seed);
      sim.run_until(horizon);
      sim.finish();
      simulator_s += seconds_since(t0);
      simulator_events += sim.total_firing_starts();

      t0 = std::chrono::steady_clock::now();
      BatchSimulator lane(compiled, 1);
      lane.set_seed(0, seed);
      lane.run(horizon);
      batch_s += seconds_since(t0);
      batch_events += lane.total_firing_starts(0);

      if (round == 0 && (format_report(stats.stats()) != format_report(lane.stats(0)) ||
                         sim.total_firing_starts() != lane.total_firing_starts(0))) {
        std::printf("MISMATCH: %s seed %llu — batch lane report differs from the "
                    "StatCollector report\n",
                    label, static_cast<unsigned long long>(seed));
        ++mismatches;
      }
    }
    simulator_eps.push_back(static_cast<double>(simulator_events) / simulator_s);
    batch_eps.push_back(static_cast<double>(batch_events) / batch_s);
  }
  return {spread_of(simulator_eps), spread_of(batch_eps)};
}

void print_spread(const char* label, const Spread& spread) {
  std::printf("  %-22s %.3g (%.3g..%.3g)\n", label, spread.median, spread.min, spread.max);
}

void json_spread(FILE* json, const char* key, const Spread& spread, const char* tail) {
  std::fprintf(json, "    \"%s\": {\"median\": %.0f, \"min\": %.0f, \"max\": %.0f}%s\n", key,
               spread.median, spread.min, spread.max, tail);
}

void print_stats_row(const char* label, const StatsRow& row) {
  std::printf("  %-22s Simulator+StatCollector %.3g (%.3g..%.3g)   batch lane %.3g "
              "(%.3g..%.3g)   %.2fx\n",
              label, row.simulator.median, row.simulator.min, row.simulator.max, row.batch.median,
              row.batch.min, row.batch.max, row.batch.median / row.simulator.median);
}

void json_stats_row(FILE* json, const char* key, const StatsRow& row, const char* tail) {
  std::fprintf(json,
               "    \"%s\": {\"simulator_statcollector\": %.0f, \"simulator_min\": %.0f, "
               "\"simulator_max\": %.0f, \"batch_lane\": %.0f, \"batch_min\": %.0f, "
               "\"batch_max\": %.0f, \"speedup\": %.2f}%s\n",
               key, row.simulator.median, row.simulator.min, row.simulator.max, row.batch.median,
               row.batch.min, row.batch.max, row.batch.median / row.simulator.median, tail);
}

/// Pre-refactor events/second (whole-net eligibility rescan), measured on
/// the reference machine in the PR that introduced CompiledNet. Kept in the
/// JSON so the speedup stays visible in the perf trajectory.
constexpr double kPreRefactorFullModel = 2.61e6;
constexpr double kPreRefactorFig1Prefetch = 5.68e6;

void print_artifact() {
  print_header("bench_engine", "engine throughput (not a paper artifact)");
  const Net net = pipeline::build_full_model();
  Simulator sim(net);
  sim.reset(1);
  sim.run_until(100000);
  std::printf("full pipeline model, 100000 cycles: %llu firing starts\n\n",
              static_cast<unsigned long long>(sim.total_firing_starts()));

  const Spread full = events_per_second(net, 100000);
  const Spread fig1 = events_per_second(pipeline::build_prefetch_model(), 100000);
  const Spread fig4 = events_per_second(pipeline::build_interpreted_pipeline(), 100000);
  std::printf("silent Simulator, events/second (median and range of %d rounds x %d seeds, "
              "t=100000):\n",
              kRounds, kSeeds);
  print_spread("full model", full);
  print_spread("Figure 1 prefetch", fig1);
  print_spread("Figure 4 interpreted", fig4);
  std::printf("vs pre-CompiledNet baseline  full model: %+.0f%%   Figure 1: %+.0f%%\n\n",
              100.0 * (full.median / kPreRefactorFullModel - 1.0),
              100.0 * (fig1.median / kPreRefactorFig1Prefetch - 1.0));

  std::printf("with statistics, events/second (median and range of %d rounds x %d seeds, "
              "t=100000):\n",
              kRounds, kSeeds);
  std::size_t mismatches = 0;
  const StatsRow full_stats = stats_paths("full model", net, 100000, mismatches);
  const StatsRow fig1_stats =
      stats_paths("Figure 1 prefetch", pipeline::build_prefetch_model(), 100000, mismatches);
  const StatsRow fig4_stats = stats_paths(
      "Figure 4 interpreted", pipeline::build_interpreted_pipeline(), 100000, mismatches);
  print_stats_row("full model", full_stats);
  print_stats_row("Figure 1 prefetch", fig1_stats);
  print_stats_row("Figure 4 interpreted", fig4_stats);
  if (mismatches > 0) {
    std::printf("%zu mismatches — batch lane statistics diverged from the StatCollector\n",
                mismatches);
    std::exit(1);
  }
  std::printf("every report identical on both paths\n\n");

  FILE* json = std::fopen("BENCH_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"bench_engine\",\n"
                 "  \"metric\": \"events_per_second\",\n"
                 "  \"rounds\": %d,\n"
                 "  \"seeds_per_round\": %d,\n"
                 "  \"silent_simulator\": {\n",
                 kRounds, kSeeds);
    json_spread(json, "full_pipeline_model", full, ",");
    json_spread(json, "fig1_prefetch_model", fig1, ",");
    json_spread(json, "fig4_interpreted_pipeline", fig4, "");
    std::fprintf(json,
                 "  },\n"
                 "  \"pre_refactor_baseline\": {\n"
                 "    \"full_pipeline_model\": %.0f,\n"
                 "    \"fig1_prefetch_model\": %.0f,\n"
                 "    \"note\": \"whole-net eligibility rescan, before the CompiledNet "
                 "incremental core\"\n"
                 "  },\n"
                 "  \"with_statistics\": {\n",
                 kPreRefactorFullModel, kPreRefactorFig1Prefetch);
    json_stats_row(json, "full_pipeline_model", full_stats, ",");
    json_stats_row(json, "fig1_prefetch_model", fig1_stats, ",");
    json_stats_row(json, "fig4_interpreted_pipeline", fig4_stats, ",");
    std::fprintf(json,
                 "    \"note\": \"events/s to t=100000, median and range over rounds; "
                 "Simulator + StatCollector sink vs one-lane BatchSimulator with "
                 "native statistics (the simulate path); format_report verified identical "
                 "per seed\"\n"
                 "  }\n"
                 "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_engine.json\n\n");
  }
}

void BM_ChainSimulation(benchmark::State& state) {
  const Net net = chain_net(static_cast<std::size_t>(state.range(0)));
  Simulator sim(net);
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim.reset(seed++);
    sim.run_until(5000);
    events += sim.total_firing_starts();
    benchmark::DoNotOptimize(sim.now());
  }
  state.counters["firings_per_s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChainSimulation)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_TraceRecording(benchmark::State& state) {
  // Cost of recording vs silent simulation.
  const Net net = pipeline::build_full_model();
  Simulator sim(net);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    RecordedTrace trace;
    sim.set_sink(&trace);
    sim.reset(seed++);
    sim.run_until(10000);
    sim.finish();
    benchmark::DoNotOptimize(trace.events().size());
  }
}
BENCHMARK(BM_TraceRecording);

void BM_ReachabilityScaling(benchmark::State& state) {
  // Token count scales the state space of a two-ring net.
  const auto tokens = static_cast<TokenCount>(state.range(0));
  Net net;
  const PlaceId a = net.add_place("A", tokens);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C", tokens);
  const PlaceId d = net.add_place("D");
  const TransitionId t1 = net.add_transition("t1");
  net.add_input(t1, a);
  net.add_output(t1, b);
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t2, b);
  net.add_output(t2, a);
  const TransitionId t3 = net.add_transition("t3");
  net.add_input(t3, c);
  net.add_output(t3, d);
  const TransitionId t4 = net.add_transition("t4");
  net.add_input(t4, d);
  net.add_output(t4, c);

  std::size_t states = 0;
  for (auto _ : state) {
    const analysis::ReachabilityGraph graph(net);
    states = graph.num_states();
    benchmark::DoNotOptimize(states);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_ReachabilityScaling)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace pnut::bench

PNUT_BENCH_MAIN(pnut::bench::print_artifact)
