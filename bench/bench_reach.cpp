// Reachability-graph throughput: states/second and bytes/state.
//
// Not a paper artifact — this is the repository's perf harness for the
// arena-interned exploration core (analysis/state_store.h) that replaced
// the string-keyed unordered_map state sets. The artifact pass builds the
// graph of the Figure 1 / Figure 4 models and a generated stress net,
// checks the state/edge/deadlock counts against the pre-refactor goldens,
// and writes BENCH_reach.json with the committed string-key baseline kept
// inline so the trajectory stays visible (same convention as
// BENCH_engine.json).
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/reachability.h"
#include "analysis/state_store.h"
#include "analysis/timed_reachability.h"
#include "pipeline/interpreted.h"
#include "reach_models.h"

namespace pnut::bench {
namespace {

using reach_models::Golden;
using reach_models::stress_ring;

struct GraphRun {
  double states_per_second = 0;
  double bytes_per_state = 0;
  bool counts_ok = false;
};

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {samples[samples.size() / 2], samples.front(), samples.back()};
}

/// Build the graph `reps` times; report construction throughput, the
/// arena + edge-pool footprint per state, and whether the counts match the
/// pre-refactor goldens.
GraphRun measure(const Net& net, int reps, const Golden& golden) {
  GraphRun run;
  analysis::ReachOptions options;
  options.max_states = 1'000'000;
  std::size_t states = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < reps; ++k) {
    const analysis::ReachabilityGraph graph(net, options);
    states += graph.num_states();
    if (k == 0) {
      run.bytes_per_state =
          static_cast<double>(graph.memory_bytes()) / static_cast<double>(graph.num_states());
      run.counts_ok = graph.status() == analysis::ReachStatus::kComplete &&
                      graph.num_states() == golden.states &&
                      graph.num_edges() == golden.edges &&
                      graph.deadlock_states().size() == golden.deadlocks;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  run.states_per_second =
      static_cast<double>(states) / std::chrono::duration<double>(t1 - t0).count();
  return run;
}

/// Pre-refactor throughput (string-keyed unordered_map interning,
/// per-state Marking + edge vectors), measured on the reference machine in
/// the PR that introduced the StateStore core. The golden counts are from
/// the same run; the refactor must reproduce them exactly.
struct Model {
  const char* key;
  const char* label;
  Net net;
  int reps;
  double baseline_states_per_second;
  Golden golden;
};

std::vector<Model> make_models() {
  std::vector<Model> models;
  models.push_back({"fig1_prefetch_model", "Figure 1 prefetch",
                    pipeline::build_prefetch_model(), 2000, 8.88e5,
                    reach_models::kFig1Prefetch});
  models.push_back({"fig4_interpreted_pipeline", "Figure 4 interpreted",
                    pipeline::build_interpreted_pipeline(), 50, 3.67e4,
                    reach_models::kFig4Interpreted});
  models.push_back({"full_pipeline_model", "full pipeline",
                    pipeline::build_full_model(), 100, 6.41e5,
                    reach_models::kFullModel});
  models.push_back({"stress_ring_38x5", "stress ring 38x5", stress_ring(38, 5), 1,
                    2.63e5, reach_models::kStressRing38x5});
  return models;
}

/// The interpreted model's numbers before the expression bytecode VM and
/// slot-addressed data state (PR 5): tree-walking AST hooks plus a
/// DataContext snapshot per state. Kept inline so the trajectory of the
/// paper's flagship interpreted scenario stays visible next to the
/// string-key baseline above.
constexpr double kFig4PreVmStatesPerSecond = 97'316;
constexpr double kFig4PreVmBytesPerState = 1688.4;

/// Out-of-core sweep: one ring family at growing sizes, built all-in-RAM
/// and again under a fixed residency budget the larger sizes cannot fit.
/// Reports the throughput cost of going out-of-core and the spilled /
/// peak-resident volumes; answers must match the in-RAM build exactly.
constexpr std::size_t kSpillBudget = std::size_t{32} << 20;
constexpr std::size_t kSpillRingSizes[] = {24, 30, 34, 38};

struct SpillRun {
  GraphRun resident;
  GraphRun spilled;
  bool engaged = false;
  std::size_t spilled_bytes = 0;
  std::size_t peak_resident_bytes = 0;
};

SpillRun measure_spill(const Net& net) {
  SpillRun run;
  analysis::ReachOptions options;
  options.max_states = 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  const analysis::ReachabilityGraph flat(net, options);
  const auto t1 = std::chrono::steady_clock::now();
  options.spill.max_resident_bytes = kSpillBudget;
  const auto t2 = std::chrono::steady_clock::now();
  const analysis::ReachabilityGraph spilled(net, options);
  const auto t3 = std::chrono::steady_clock::now();
  run.resident.states_per_second = static_cast<double>(flat.num_states()) /
                                   std::chrono::duration<double>(t1 - t0).count();
  run.spilled.states_per_second = static_cast<double>(spilled.num_states()) /
                                  std::chrono::duration<double>(t3 - t2).count();
  run.spilled.counts_ok = flat.status() == analysis::ReachStatus::kComplete &&
                          spilled.status() == flat.status() &&
                          spilled.num_states() == flat.num_states() &&
                          spilled.num_edges() == flat.num_edges() &&
                          spilled.deadlock_states().size() ==
                              flat.deadlock_states().size();
  run.engaged = spilled.spill_engaged();
  run.spilled_bytes = spilled.spilled_bytes();
  run.peak_resident_bytes = spilled.peak_resident_bytes();
  return run;
}

/// Layer evidence for the timed graph: builds of the timed and
/// the untimed graph of the same models, at the options `pnut analyze` uses.
/// Each repetition times `builds` back-to-back builds (enough to fill ~50 ms,
/// so sub-millisecond graphs are not timer noise) and yields one states/s
/// sample; the JSON records median, min and max over kLayerReps samples.
constexpr int kLayerReps = 7;
constexpr double kLayerRepSeconds = 0.05;

struct LayerRun {
  std::size_t states = 0;
  int builds = 0;  ///< builds per repetition
  Spread states_per_second;
};

/// `build()` constructs one graph and returns its state count.
template <typename BuildFn>
LayerRun measure_layer(BuildFn&& build) {
  LayerRun run;
  const auto t0 = std::chrono::steady_clock::now();
  run.states = build();  // warm-up, and sizes the repetition
  const double once =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  run.builds = std::max(1, static_cast<int>(kLayerRepSeconds / std::max(once, 1e-6)));
  std::vector<double> samples;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < run.builds; ++b) benchmark::DoNotOptimize(build());
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    samples.push_back(static_cast<double>(run.states) * run.builds / seconds);
  }
  run.states_per_second = spread_of(std::move(samples));
  return run;
}

/// Pre-change baseline: this section's medians on the same host, built from
/// the parent commit of the last change to the timed builders (the wide
/// word hash, the narrower eligibility pass and tick re-tests, and the
/// realloc-grown flat arena), in the run just before the recorded one. The
/// untimed builders share the hash and the arena, so their ratio is their
/// own gain plus host-speed drift, not drift alone — on the shared
/// recording host the same binary varied up to 1.5x between runs minutes
/// apart.
struct LayerModel {
  const char* key;
  const char* label;
  Net net;
  double pre_change_timed_median;
  double pre_change_untimed_median;
};

std::vector<LayerModel> make_layer_models() {
  std::vector<LayerModel> models;
  models.push_back({"full_pipeline_model", "full pipeline", pipeline::build_full_model(),
                    1'219'026, 2'323'709});
  models.push_back({"ring_11x7", "ring 11x7", stress_ring(11, 7), 1'285'944, 1'801'774});
  models.push_back({"timed_race_ring_9x3", "race ring 9/3", reach_models::timed_race_ring(9, 3),
                    1'443'475, 2'301'323});
  models.push_back({"timed_race_ring_13x5", "race ring 13/5",
                    reach_models::timed_race_ring(13, 5), 844'528, 1'735'936});
  return models;
}

struct LayerPair {
  LayerRun timed;
  LayerRun untimed;
};

LayerPair measure_layers(const Net& net) {
  const std::shared_ptr<const CompiledNet> compiled = CompiledNet::compile(net);
  LayerPair pair;
  pair.timed = measure_layer(
      [&] { return analysis::TimedReachabilityGraph(compiled).num_states(); });
  pair.untimed = measure_layer(
      [&] { return analysis::ReachabilityGraph(compiled).num_states(); });
  return pair;
}

void print_spread_json(FILE* json, const char* name, const Spread& s, const char* tail) {
  std::fprintf(json, "\"%s\": {\"median\": %.0f, \"min\": %.0f, \"max\": %.0f}%s", name,
               s.median, s.min, s.max, tail);
}

void print_artifact() {
  print_header("bench_reach", "exploration-core throughput (not a paper artifact)");
  const std::vector<Model> models = make_models();

  std::vector<GraphRun> runs;
  for (const Model& model : models) {
    const GraphRun run = measure(model.net, model.reps, model.golden);
    runs.push_back(run);
    std::printf("%-22s %10.3g states/s  (%+.0f%% vs string-key baseline)  "
                "%5.1f bytes/state  counts %s\n",
                model.label, run.states_per_second,
                100.0 * (run.states_per_second / model.baseline_states_per_second - 1.0),
                run.bytes_per_state, run.counts_ok ? "match golden" : "MISMATCH");
    if (std::string_view(model.key) == "fig4_interpreted_pipeline") {
      std::printf("%-22s %10.2fx states/s, %.2fx bytes/state vs pre-VM "
                  "(AST hooks + DataContext snapshots)\n",
                  "  expr-VM effect", run.states_per_second / kFig4PreVmStatesPerSecond,
                  kFig4PreVmBytesPerState / run.bytes_per_state);
    }
  }
  std::printf("\n");

  // Layer evidence: timed vs untimed graph throughput on the same models.
  const std::vector<LayerModel> layer_models = make_layer_models();
  std::vector<LayerPair> layers;
  for (const LayerModel& model : layer_models) {
    const LayerPair pair = measure_layers(model.net);
    layers.push_back(pair);
    std::printf("%-16s timed %6zu states %9.3g states/s [%.3g, %.3g] %.2fx   untimed "
                "%6zu states %9.3g states/s [%.3g, %.3g] %.2fx  (x = vs pre-change)\n",
                model.label, pair.timed.states, pair.timed.states_per_second.median,
                pair.timed.states_per_second.min, pair.timed.states_per_second.max,
                pair.timed.states_per_second.median / model.pre_change_timed_median,
                pair.untimed.states, pair.untimed.states_per_second.median,
                pair.untimed.states_per_second.min, pair.untimed.states_per_second.max,
                pair.untimed.states_per_second.median / model.pre_change_untimed_median);
  }
  std::printf("\n");

  // Out-of-core sweep across the resident/spilled boundary: the small
  // ring fits the 32 MB budget (spill configured but never engaged), the
  // large ones must stream sealed levels through segment files.
  std::vector<SpillRun> spill_runs;
  for (const std::size_t places : kSpillRingSizes) {
    const SpillRun run = measure_spill(stress_ring(places, 5));
    spill_runs.push_back(run);
    std::printf("spill ring %2zux5 %10.3g states/s in-RAM, %10.3g spilled "
                "(%.2fx)  %s, %zu MiB spilled, peak %zu MiB  %s\n",
                places, run.resident.states_per_second,
                run.spilled.states_per_second,
                run.spilled.states_per_second / run.resident.states_per_second,
                run.engaged ? "engaged" : "all-resident",
                run.spilled_bytes >> 20, run.peak_resident_bytes >> 20,
                run.spilled.counts_ok ? "answers match" : "MISMATCH");
  }
  std::printf("\n");

  FILE* json = std::fopen("BENCH_reach.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"bench_reach\",\n"
                 "  \"metric\": \"reachability_graph_construction\",\n"
                 "  \"models\": {\n");
    for (std::size_t i = 0; i < models.size(); ++i) {
      const Model& model = models[i];
      const GraphRun& run = runs[i];
      std::fprintf(json,
                   "    \"%s\": {\n"
                   "      \"states\": %zu,\n"
                   "      \"edges\": %zu,\n"
                   "      \"deadlocks\": %zu,\n"
                   "      \"counts_match_golden\": %s,\n"
                   "      \"states_per_second\": %.0f,\n"
                   "      \"bytes_per_state\": %.1f\n"
                   "    }%s\n",
                   model.key, model.golden.states, model.golden.edges,
                   model.golden.deadlocks, run.counts_ok ? "true" : "false",
                   run.states_per_second, run.bytes_per_state,
                   i + 1 < models.size() ? "," : "");
    }
    std::fprintf(json, "  },\n");
    std::fprintf(json,
                 "  \"timed_models\": {\n"
                 "    \"note\": \"timed vs untimed graph construction on the "
                 "same models at pnut analyze's options; each of the %d repetitions "
                 "times builds_per_repetition back-to-back builds; states/s median, "
                 "min, max over the repetitions. pre_change_*_median: the same medians "
                 "built from the parent commit of the change that added the wide word "
                 "hash, the narrower timed eligibility pass and tick re-tests, and the "
                 "realloc-grown flat arena (same host and harness, the run just before "
                 "this one); the untimed builders share the hash and the arena, so "
                 "untimed_ratio_vs_pre_change is their gain plus host drift, not drift "
                 "alone\",\n"
                 "    \"repetitions\": %d,\n"
                 "    \"host_hardware_threads\": %u,\n",
                 kLayerReps, kLayerReps, std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < layer_models.size(); ++i) {
      const LayerPair& pair = layers[i];
      std::fprintf(json,
                   "    \"%s\": {\"timed_states\": %zu, \"timed_builds_per_repetition\": "
                   "%d, ",
                   layer_models[i].key, pair.timed.states, pair.timed.builds);
      print_spread_json(json, "timed_states_per_second", pair.timed.states_per_second, ", ");
      std::fprintf(json,
                   "\"pre_change_timed_median\": %.0f, \"timed_ratio_vs_pre_change\": %.2f, "
                   "\"untimed_states\": %zu, \"untimed_builds_per_repetition\": %d, ",
                   layer_models[i].pre_change_timed_median,
                   pair.timed.states_per_second.median /
                       layer_models[i].pre_change_timed_median,
                   pair.untimed.states, pair.untimed.builds);
      print_spread_json(json, "untimed_states_per_second", pair.untimed.states_per_second,
                        ", ");
      std::fprintf(json,
                   "\"pre_change_untimed_median\": %.0f, \"untimed_ratio_vs_pre_change\": "
                   "%.2f}%s\n",
                   layer_models[i].pre_change_untimed_median,
                   pair.untimed.states_per_second.median /
                       layer_models[i].pre_change_untimed_median,
                   i + 1 < layer_models.size() ? "," : "");
    }
    std::fprintf(json, "  },\n");
    std::fprintf(json,
                 "  \"spill_sweep\": {\n"
                 "    \"note\": \"stress_ring(n, 5) built all-in-RAM and again "
                 "under a fixed max_resident_bytes budget; answers are identical, "
                 "the larger sizes must stream sealed levels through mmap'd "
                 "segment files\",\n"
                 "    \"max_resident_bytes\": %zu,\n",
                 kSpillBudget);
    bool spill_counts_ok = true;
    for (std::size_t i = 0; i < spill_runs.size(); ++i) {
      const SpillRun& run = spill_runs[i];
      spill_counts_ok = spill_counts_ok && run.spilled.counts_ok;
      std::fprintf(json,
                   "    \"ring_%zux5\": {\"resident_states_per_second\": %.0f, "
                   "\"spilled_states_per_second\": %.0f, \"slowdown\": %.2f, "
                   "\"engaged\": %s, \"spilled_bytes\": %zu, "
                   "\"peak_resident_bytes\": %zu},\n",
                   kSpillRingSizes[i], run.resident.states_per_second,
                   run.spilled.states_per_second,
                   run.resident.states_per_second / run.spilled.states_per_second,
                   run.engaged ? "true" : "false", run.spilled_bytes,
                   run.peak_resident_bytes);
    }
    std::fprintf(json, "    \"answers_match_resident\": %s\n  },\n",
                 spill_counts_ok ? "true" : "false");
    std::fprintf(json,
                 "  \"pre_vm_baseline\": {\n"
                 "    \"fig4_interpreted_pipeline\": {\"states_per_second\": %.0f, "
                 "\"bytes_per_state\": %.1f},\n"
                 "    \"note\": \"interpreted model before the expression bytecode "
                 "VM and slot-addressed data state: tree-walking AST "
                 "predicates/actions plus one DataContext snapshot per state\"\n"
                 "  },\n",
                 kFig4PreVmStatesPerSecond, kFig4PreVmBytesPerState);
    std::fprintf(json,
                 "  \"pre_refactor_baseline\": {\n");
    for (const Model& model : models) {
      std::fprintf(json, "    \"%s\": %.0f,\n", model.key,
                   model.baseline_states_per_second);
    }
    std::fprintf(json,
                 "    \"note\": \"states/second with string-keyed unordered_map "
                 "interning and per-state heap objects, before the StateStore "
                 "arena core\"\n"
                 "  }\n"
                 "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_reach.json\n\n");
  }
}

void BM_ReachStressRing(benchmark::State& state) {
  const Net net = stress_ring(static_cast<std::size_t>(state.range(0)), 4);
  analysis::ReachOptions options;
  options.max_states = 1'000'000;
  std::size_t states = 0;
  for (auto _ : state) {
    const analysis::ReachabilityGraph graph(net, options);
    states = graph.num_states();
    benchmark::DoNotOptimize(states);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_s"] = benchmark::Counter(
      static_cast<double>(states) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReachStressRing)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void BM_TimedReachFullModel(benchmark::State& state) {
  const Net net = pipeline::build_full_model();
  for (auto _ : state) {
    const analysis::TimedReachabilityGraph graph(net);
    benchmark::DoNotOptimize(graph.num_states());
  }
}
BENCHMARK(BM_TimedReachFullModel);

void BM_TimedReachRaceRing(benchmark::State& state) {
  // The 12x4 race ring: 31,928 timed states.
  const Net net = reach_models::timed_race_ring(12, 4);
  analysis::TimedReachOptions options;
  options.max_states = 1'000'000;
  options.max_time = 1'000'000;
  std::size_t states = 0;
  for (auto _ : state) {
    const analysis::TimedReachabilityGraph graph(net, options);
    states = graph.num_states();
    benchmark::DoNotOptimize(states);
  }
  state.counters["states_per_s"] = benchmark::Counter(
      static_cast<double>(states) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimedReachRaceRing);

void BM_StateStoreIntern(benchmark::State& state) {
  // Raw interning throughput at the bench's word width: first insertion of
  // 64k distinct states, then a re-intern pass (the hot hit path).
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> words(width, 0);
  for (auto _ : state) {
    analysis::StateStore store(width);
    for (std::uint32_t i = 0; i < 65536; ++i) {
      words[i % width] = i;
      store.intern(words);
    }
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["interns_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 65536, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StateStoreIntern)->Arg(8)->Arg(32);

}  // namespace
}  // namespace pnut::bench

PNUT_BENCH_MAIN(pnut::bench::print_artifact)
