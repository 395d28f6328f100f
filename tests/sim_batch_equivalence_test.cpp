// Differential tests for the batch engine: every lane of a BatchSimulator
// must be bit-identical — trace, statistics, stop reason, clock — to a
// Simulator (the resumable one-lane view) over the same net with the lane's
// seed, for any thread count, with or without per-lane parameter patches (a
// patched lane is compared against a Simulator run of a *rebuilt* net).
// Every Simulator run is also pinned to fingerprints frozen while the
// scalar engine still ran beside the lanes (tests/support/sim_run.h), and
// interpreted lanes to fingerprints recorded when the batch engine's
// AST/DataContext lanes still ran (tests/support/golden_hash.h). Also pins
// run_replications to the historical one-Simulator-per-replication
// implementation, kept inline here as the compatibility oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "expr/compile.h"
#include "petri/compiled_net.h"
#include "pipeline/interpreted.h"
#include "pipeline/model.h"
#include "sim/batch_sim.h"
#include "sim/simulator.h"
#include "stat/replication.h"
#include "stat/stat.h"
#include "support/golden_hash.h"
#include "support/net_fuzz.h"
#include "support/sim_run.h"
#include "support/stats_equal.h"
#include "trace/trace.h"

namespace pnut {
namespace {

using test_support::FuzzOptions;
using test_support::fuzz_net;
using test_support::expect_stats_equal;
using test_support::expect_pin;
using test_support::Fingerprint;

using test_support::SimRun;
using test_support::sim_run;

/// Run `lanes` lanes of `net` batched and diff every lane against a
/// Simulator seeded base_seed + lane. Returns a fingerprint of every lane's
/// trace, statistics, stop reason and clock; folds each Simulator run's
/// fingerprint (test_support::hash_sim_run) into `oracle`.
std::uint64_t expect_batch_matches_simulator(const Net& net, std::size_t lanes,
                                          std::uint64_t base_seed, Time horizon,
                                          unsigned threads, const std::string& label,
                                          Fingerprint& oracle) {
  BatchOptions options;
  options.base_seed = base_seed;
  options.threads = threads;
  BatchSimulator batch(CompiledNet::compile(net), lanes, options);
  std::vector<RecordedTrace> traces(lanes);
  for (std::size_t k = 0; k < lanes; ++k) batch.set_sink(k, &traces[k]);
  batch.run(horizon);
  Fingerprint fingerprint;
  for (std::size_t k = 0; k < lanes; ++k) {
    const SimRun run = sim_run(net, base_seed + k, horizon);
    const std::string at = label + " lane " + std::to_string(k);
    EXPECT_EQ(traces[k], run.trace) << at;
    expect_stats_equal(batch.stats(k), run.stats, at);
    EXPECT_EQ(batch.stop_reason(k), run.stop) << at;
    EXPECT_EQ(batch.now(k), run.now) << at;
    EXPECT_EQ(batch.total_firing_starts(k), run.firing_starts) << at;
    fingerprint.u64(test_support::hash_trace(traces[k]));
    fingerprint.u64(test_support::hash_stats(batch.stats(k)));
    fingerprint.u64(static_cast<std::uint64_t>(batch.stop_reason(k)));
    fingerprint.f64(batch.now(k));
    oracle.u64(test_support::hash_sim_run(run));
  }
  return fingerprint.value();
}

pipeline::PipelineConfig cached_config(double hit_ratio) {
  pipeline::PipelineConfig config;
  config.icache = pipeline::CacheConfig{hit_ratio, 1};
  config.dcache = pipeline::CacheConfig{hit_ratio, 1};
  return config;
}

TEST(BatchEquivalence, GoldenPipelineModelsMatchScalarLanes) {
  Fingerprint oracle;
  expect_batch_matches_simulator(pipeline::build_full_model(), 4, 100, 2000, 1, "full",
                              oracle);
  expect_batch_matches_simulator(pipeline::build_full_model(cached_config(0.9)), 4, 100,
                              2000, 1, "cached", oracle);
  expect_batch_matches_simulator(pipeline::build_prefetch_model(), 4, 100, 2000, 1,
                              "prefetch", oracle);
  expect_batch_matches_simulator(pipeline::build_interpreted_pipeline(), 4, 100, 2000, 1,
                              "interpreted", oracle);
  expect_pin(oracle, 0x5888eb1c873cfe6bULL);
}

TEST(BatchEquivalence, FuzzedTimedNetsMatchScalarLanes) {
  FuzzOptions options;
  options.timed = true;
  options.lossy_pct = 0;  // token-preserving: live for the whole horizon
  Fingerprint oracle;
  for (std::uint64_t net_seed = 1; net_seed <= 12; ++net_seed) {
    expect_batch_matches_simulator(fuzz_net(net_seed, options), 3, 1000 + net_seed, 300, 1,
                                "timed net_seed=" + std::to_string(net_seed), oracle);
  }
  expect_pin(oracle, 0xf0b8637f0cd18015ULL);
}

TEST(BatchEquivalence, FuzzedInhibitorHeavyNetsMatchScalarLanes) {
  FuzzOptions options;
  options.timed = true;
  options.lossy_pct = 0;
  options.inhibitor_pct = 80;
  Fingerprint oracle;
  for (std::uint64_t net_seed = 1; net_seed <= 8; ++net_seed) {
    expect_batch_matches_simulator(fuzz_net(net_seed, options), 3, 50 + net_seed, 300, 1,
                                "inhibitor net_seed=" + std::to_string(net_seed), oracle);
  }
  expect_pin(oracle, 0x88250bc366f9197aULL);
}

TEST(BatchEquivalence, FuzzedInterpretedExprNetsMatchScalarLanes) {
  FuzzOptions options;
  options.timed = true;
  options.lossy_pct = 0;
  options.interpreted = true;
  Fingerprint oracle;
  for (std::uint64_t net_seed = 1; net_seed <= 10; ++net_seed) {
    expect_batch_matches_simulator(fuzz_net(net_seed, options), 3, 9000 + net_seed, 300, 1,
                                "expr net_seed=" + std::to_string(net_seed), oracle);
  }
  expect_pin(oracle, 0x4cd0975f7539e4c8ULL);
}

// Per net seed 1..8: the batch engine's AST/DataContext lanes, recorded on
// these nets (3 lanes, base seed 400 + net seed, horizon 300).
constexpr std::uint64_t kFrozenAstLanes[] = {
    0x99af19958d9672f6ULL, 0x176faa30a92cf0bcULL, 0xb7584bc76c9509daULL,
    0x1cb5f1b391557916ULL, 0x3682d765674de9eaULL, 0xabb40918e8593f23ULL,
    0xdebc2a7a010f162bULL, 0x292a7edd533f9696ULL,
};

TEST(BatchEquivalence, FuzzedInterpretedLanesMatchFrozenAstLanes) {
  FuzzOptions options;
  options.timed = true;
  options.lossy_pct = 0;
  options.interpreted = true;
  Fingerprint oracle;
  for (std::uint64_t net_seed = 1; net_seed <= 8; ++net_seed) {
    const std::string label = "frozen net_seed=" + std::to_string(net_seed);
    EXPECT_EQ(expect_batch_matches_simulator(fuzz_net(net_seed, options), 3, 400 + net_seed,
                                          300, 1, label, oracle),
              kFrozenAstLanes[net_seed - 1])
        << label;
  }
  expect_pin(oracle, 0xe5838f9f31633549ULL);
}

TEST(BatchEquivalence, DeadlockingLanesMatchScalarStopReasons) {
  FuzzOptions options;
  options.timed = true;
  options.lossy_pct = 60;  // drifts toward deadlock well before the horizon
  Fingerprint oracle;
  for (std::uint64_t net_seed = 1; net_seed <= 8; ++net_seed) {
    expect_batch_matches_simulator(fuzz_net(net_seed, options), 3, 700 + net_seed, 500, 1,
                                "lossy net_seed=" + std::to_string(net_seed), oracle);
  }
  expect_pin(oracle, 0x3fdda2aa80f2437fULL);
}

TEST(BatchEquivalence, ThreadCountsAreBitIdentical) {
  const Net net = pipeline::build_full_model(cached_config(0.8));
  const auto compiled = CompiledNet::compile(net);
  constexpr std::size_t kLanes = 8;

  auto run_with = [&](unsigned threads) {
    BatchOptions options;
    options.base_seed = 42;
    options.threads = threads;
    auto batch = std::make_unique<BatchSimulator>(compiled, kLanes, options);
    auto traces = std::make_unique<std::vector<RecordedTrace>>(kLanes);
    for (std::size_t k = 0; k < kLanes; ++k) batch->set_sink(k, &(*traces)[k]);
    batch->run(1500);
    return std::pair{std::move(batch), std::move(traces)};
  };

  const auto [baseline, baseline_traces] = run_with(1);
  for (const unsigned threads : {2u, 4u}) {
    const auto [batch, traces] = run_with(threads);
    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::string at = "threads=" + std::to_string(threads) + " lane " +
                             std::to_string(k);
      EXPECT_EQ((*traces)[k], (*baseline_traces)[k]) << at;
      expect_stats_equal(batch->stats(k), baseline->stats(k), at);
      EXPECT_EQ(batch->stop_reason(k), baseline->stop_reason(k)) << at;
    }
  }
}

// --- run_replications compatibility pin ------------------------------------------

/// The pre-batch run_replications, kept verbatim: one StatCollector-sinked
/// Simulator per replication, then the historical summary arithmetic.
ReplicationResult oracle_replications(const Net& net, Time horizon, std::size_t n,
                                      const std::vector<MetricSpec>& metrics,
                                      std::uint64_t base_seed) {
  ReplicationResult result;
  const auto compiled = CompiledNet::compile(net);
  result.runs.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    StatCollector collector;
    collector.set_run_number(static_cast<int>(k + 1));
    Simulator sim(compiled);
    sim.set_sink(&collector);
    sim.reset(base_seed + k);
    sim.run_until(horizon);
    sim.finish();
    result.runs.push_back(collector.stats());
  }
  for (const MetricSpec& spec : metrics) {
    MetricSummary summary;
    summary.name = spec.name;
    summary.replications = n;
    std::vector<double> values;
    values.reserve(n);
    for (const RunStats& run : result.runs) values.push_back(spec.extract(run));
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
    }
    result.metrics.push_back(summary);
  }
  return result;
}

TEST(BatchEquivalence, RunReplicationsReproducesPreBatchResults) {
  const Net net = pipeline::build_full_model(cached_config(0.9));
  const std::vector<MetricSpec> metrics = {
      {"ipc", [](const RunStats& s) { return s.transition(pipeline::names::kIssue).throughput; }},
      {"full_bufs", [](const RunStats& s) { return s.place(pipeline::names::kFullIBuffers).avg_tokens; }},
  };
  const ReplicationResult oracle = oracle_replications(net, 1500, 5, metrics, 77);
  Fingerprint frozen;
  for (const RunStats& run : oracle.runs) frozen.u64(test_support::hash_stats(run));
  for (const MetricSummary& m : oracle.metrics) {
    frozen.str(m.name);
    frozen.u64(m.replications);
    for (const double v : {m.mean, m.stddev, m.min, m.max}) frozen.f64(v);
  }
  expect_pin(frozen, 0xf746d3a66d707824ULL);

  for (const unsigned threads : {1u, 2u, 4u}) {
    const ReplicationResult result = run_replications(net, 1500, 5, metrics, 77, threads);
    const std::string at = "threads=" + std::to_string(threads);
    ASSERT_EQ(result.runs.size(), oracle.runs.size()) << at;
    for (std::size_t k = 0; k < oracle.runs.size(); ++k) {
      expect_stats_equal(result.runs[k], oracle.runs[k],
                         at + " replication " + std::to_string(k));
    }
    ASSERT_EQ(result.metrics.size(), oracle.metrics.size()) << at;
    for (std::size_t i = 0; i < oracle.metrics.size(); ++i) {
      EXPECT_EQ(result.metrics[i].name, oracle.metrics[i].name) << at;
      EXPECT_EQ(result.metrics[i].replications, oracle.metrics[i].replications) << at;
      EXPECT_EQ(result.metrics[i].mean, oracle.metrics[i].mean) << at;
      EXPECT_EQ(result.metrics[i].stddev, oracle.metrics[i].stddev) << at;
      EXPECT_EQ(result.metrics[i].min, oracle.metrics[i].min) << at;
      EXPECT_EQ(result.metrics[i].max, oracle.metrics[i].max) << at;
    }
  }
}

// --- patched lanes vs rebuilt nets -----------------------------------------------

/// Diff one patched batch lane against a Simulator run of `rebuilt` (the net a
/// pre-sweep experiment would have constructed for these parameter values).
void expect_lane_matches_rebuilt(BatchSimulator& batch, RecordedTrace& trace,
                                 std::size_t lane, const Net& rebuilt,
                                 std::uint64_t seed, Time horizon,
                                 const std::string& label) {
  const SimRun run = sim_run(rebuilt, seed, horizon);
  EXPECT_EQ(trace, run.trace) << label;
  expect_stats_equal(batch.stats(lane), run.stats, label);
  EXPECT_EQ(batch.stop_reason(lane), run.stop) << label;
}

TEST(BatchPatch, MemoryLatencyConstantsMatchRebuiltNets) {
  // The paper's memory-latency sweep: the enabling constants of the three
  // bus-release transitions, patched per lane instead of rebuilding.
  const std::vector<Time> latencies = {5, 2, 10};  // lane 0 stays unpatched
  const auto compiled = CompiledNet::compile(pipeline::build_full_model());
  BatchSimulator batch(compiled, latencies.size());
  std::vector<RecordedTrace> traces(latencies.size());
  for (std::size_t k = 0; k < latencies.size(); ++k) {
    batch.set_sink(k, &traces[k]);
    if (k == 0) continue;
    for (const char* name : {pipeline::names::kEndPrefetch, pipeline::names::kEndFetch,
                             pipeline::names::kEndStore}) {
      batch.patch_enabling_constant(k, compiled->transition_named(name), latencies[k]);
    }
  }
  batch.run(2000);
  for (std::size_t k = 0; k < latencies.size(); ++k) {
    pipeline::PipelineConfig config;
    config.memory_cycles = latencies[k];
    expect_lane_matches_rebuilt(batch, traces[k], k, pipeline::build_full_model(config),
                                1 + k, 2000, "memory=" + std::to_string(latencies[k]));
  }
}

TEST(BatchPatch, CacheHitFrequenciesMatchRebuiltNets) {
  const std::vector<double> ratios = {0.5, 0.9, 0.99};  // lane 0 stays unpatched
  const auto compiled = CompiledNet::compile(pipeline::build_full_model(cached_config(0.5)));
  BatchSimulator batch(compiled, ratios.size());
  std::vector<RecordedTrace> traces(ratios.size());
  for (std::size_t k = 0; k < ratios.size(); ++k) {
    batch.set_sink(k, &traces[k]);
    if (k == 0) continue;
    for (const std::string start :
         {std::string(pipeline::names::kStartPrefetch),
          std::string(pipeline::names::kStartFetch),
          std::string(pipeline::names::kStartStore)}) {
      // Same arithmetic as the model builder (hit_ratio and 1 - hit_ratio).
      batch.patch_frequency(k, compiled->transition_named(start + "_hit"), ratios[k]);
      batch.patch_frequency(k, compiled->transition_named(start + "_miss"),
                            1 - ratios[k]);
    }
  }
  batch.run(2000);
  for (std::size_t k = 0; k < ratios.size(); ++k) {
    expect_lane_matches_rebuilt(batch, traces[k], k,
                                pipeline::build_full_model(cached_config(ratios[k])),
                                1 + k, 2000, "hit_ratio=" + std::to_string(ratios[k]));
  }
}

TEST(BatchPatch, InitialTokensMatchRebuiltNet) {
  FuzzOptions options;
  options.timed = true;
  options.lossy_pct = 0;
  const Net net = fuzz_net(3, options);
  Net rebuilt = fuzz_net(3, options);
  const TokenCount patched = net.place(PlaceId(0)).initial_tokens + 2;
  rebuilt.set_initial_tokens(PlaceId(0), patched);

  BatchSimulator batch(CompiledNet::compile(net), 1);
  RecordedTrace trace;
  batch.set_sink(0, &trace);
  batch.patch_initial_tokens(0, PlaceId(0), patched);
  batch.run(300);
  expect_lane_matches_rebuilt(batch, trace, 0, rebuilt, 1, 300, "initial tokens");
}

TEST(BatchPatch, UniformBoundsMatchRebuiltNet) {
  auto make = [](std::int64_t lo, std::int64_t hi) {
    Net net("uniform");
    const PlaceId p = net.add_place("p", 1);
    const PlaceId q = net.add_place("q");
    const TransitionId t = net.add_transition("t");
    net.add_input(t, p);
    net.add_output(t, q);
    net.set_firing_time(t, DelaySpec::uniform_int(lo, hi));
    const TransitionId back = net.add_transition("back");
    net.add_input(back, q);
    net.add_output(back, p);
    net.set_enabling_time(back, DelaySpec::uniform_int(lo, hi));
    net.set_firing_time(back, DelaySpec::constant(1));
    return net;
  };
  const Net net = make(1, 4);
  const auto compiled = CompiledNet::compile(net);
  BatchSimulator batch(compiled, 1);
  RecordedTrace trace;
  batch.set_sink(0, &trace);
  batch.patch_firing_uniform(0, compiled->transition_named("t"), 2, 7);
  batch.patch_enabling_uniform(0, compiled->transition_named("back"), 2, 7);
  batch.run(400);
  expect_lane_matches_rebuilt(batch, trace, 0, make(2, 7), 1, 400, "uniform bounds");
}

TEST(BatchPatch, InitialScalarMatchesRebuiltNet) {
  FuzzOptions options;
  options.timed = true;
  options.lossy_pct = 0;
  options.interpreted = true;
  const Net net = fuzz_net(5, options);
  Net rebuilt = fuzz_net(5, options);
  rebuilt.initial_data().set("x", 2);

  BatchSimulator batch(CompiledNet::compile(net), 1);
  RecordedTrace trace;
  batch.set_sink(0, &trace);
  batch.patch_initial_scalar(0, "x", 2);
  batch.run(300);
  expect_lane_matches_rebuilt(batch, trace, 0, rebuilt, 1, 300, "x=2");
  // The same patch on the batch engine's AST/DataContext lane, recorded.
  Fingerprint fingerprint;
  fingerprint.u64(test_support::hash_trace(trace));
  fingerprint.u64(test_support::hash_stats(batch.stats(0)));
  fingerprint.u64(static_cast<std::uint64_t>(batch.stop_reason(0)));
  EXPECT_EQ(fingerprint.value(), 0x3b20ce53c3a9aee7ULL);
}

TEST(BatchPatch, IrandBoundsMatchRebuiltNet) {
  auto make = [](std::int64_t lo, std::int64_t hi) {
    Net net("irand");
    const PlaceId p = net.add_place("p", 1);
    const TransitionId t = net.add_transition("t");
    net.add_input(t, p);
    net.add_output(t, p);
    net.set_firing_time(t, DelaySpec::constant(1));
    net.initial_data().set("x", 0);
    net.set_action(t, expr::compile_action("x = irand[" + std::to_string(lo) + ", " +
                                           std::to_string(hi) + "]"));
    return net;
  };
  const Net net = make(0, 5);
  const auto compiled = CompiledNet::compile(net);
  BatchSimulator batch(compiled, 1);
  RecordedTrace trace;
  batch.set_sink(0, &trace);
  batch.patch_action_irand(0, compiled->transition_named("t"), 0, 2, 9);
  batch.run(200);
  expect_lane_matches_rebuilt(batch, trace, 0, make(2, 9), 1, 200, "irand bounds");
}

TEST(BatchPatch, IllegalPatchesThrow) {
  const Net net = pipeline::build_full_model();  // End_* have constant delays
  const auto compiled = CompiledNet::compile(net);
  BatchSimulator batch(compiled, 2);
  const TransitionId end = compiled->transition_named(pipeline::names::kEndPrefetch);
  const TransitionId decode = compiled->transition_named(pipeline::names::kDecode);

  // Wrong delay kind / illegal values.
  EXPECT_THROW(batch.patch_enabling_uniform(0, end, 1, 3), std::invalid_argument);
  EXPECT_THROW(batch.patch_enabling_constant(0, end, -1), std::invalid_argument);
  EXPECT_THROW(batch.patch_firing_uniform(0, decode, 3, 1), std::invalid_argument);
  EXPECT_THROW(batch.patch_frequency(0, decode, 0), std::invalid_argument);
  // Capacity still enforced: Empty_I_buffers holds at most 6.
  EXPECT_THROW(
      batch.patch_initial_tokens(0, compiled->place_named(pipeline::names::kEmptyIBuffers), 7),
      std::invalid_argument);
  // No data state, no scalar to patch.
  EXPECT_THROW(batch.patch_initial_scalar(0, "x", 1), std::invalid_argument);
  // No compiled action on this net.
  EXPECT_THROW(batch.patch_action_irand(0, decode, 0, 1, 2), std::invalid_argument);
  // Lane bounds.
  EXPECT_THROW(batch.patch_enabling_constant(2, end, 1), std::invalid_argument);
  // Results before run().
  EXPECT_THROW(static_cast<void>(batch.stats(0)), std::logic_error);
}

}  // namespace
}  // namespace pnut
