// Tests for the paper's pipelined-processor model (Figures 1-3): structure,
// invariants, and the Figure 5 statistics bands.
#include <gtest/gtest.h>

#include "analysis/query.h"
#include "analysis/state_space.h"
#include "pipeline/metrics.h"
#include "pipeline/model.h"
#include "sim/simulator.h"
#include "stat/stat.h"

namespace pnut::pipeline {
namespace {

RecordedTrace run_model(const Net& net, Time horizon, std::uint64_t seed) {
  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(seed);
  sim.run_until(horizon);
  sim.finish();
  return trace;
}

TEST(PipelineModel, BuildsAndValidates) {
  const Net net = build_full_model();
  EXPECT_TRUE(net.validate().empty());
  EXPECT_EQ(net.name(), "pipelined_processor");
  // Every Figure 5 element is present.
  for (const char* place : {names::kBusFree, names::kBusBusy, names::kEmptyIBuffers,
                            names::kFullIBuffers, names::kPreFetching, names::kFetching,
                            names::kStoring, names::kDecoderReady, names::kReadyToIssue,
                            names::kExecutionUnit}) {
    EXPECT_TRUE(net.find_place(place).has_value()) << place;
  }
  for (const char* transition :
       {names::kStartPrefetch, names::kEndPrefetch, names::kDecode, names::kType1,
        names::kType2, names::kType3, names::kCalcEaddr, names::kIssue}) {
    EXPECT_TRUE(net.find_transition(transition).has_value()) << transition;
  }
  for (std::size_t i = 1; i <= 5; ++i) {
    EXPECT_TRUE(net.find_transition(names::exec_type(i)).has_value());
  }
}

TEST(PipelineModel, PaperParametersAreDefaults) {
  const PipelineConfig config;
  EXPECT_EQ(config.ibuffer_words, 6u);
  EXPECT_EQ(config.prefetch_words, 2u);
  EXPECT_EQ(config.decode_cycles, 1.0);
  EXPECT_EQ(config.ea_calc_cycles, 2.0);
  EXPECT_EQ(config.memory_cycles, 5.0);
  EXPECT_EQ(config.type_frequency[0], 70.0);
  EXPECT_EQ(config.store_probability, 0.2);
  ASSERT_EQ(config.exec_classes.size(), 5u);
  EXPECT_EQ(config.exec_classes[4].first, 50.0);
}

TEST(PipelineModel, BusInvariantHoldsOverTrace) {
  const Net net = build_full_model();
  const RecordedTrace trace = run_model(net, 5000, 3);
  const analysis::TraceStateSpace space(trace);
  // The paper's invariant query, verbatim.
  EXPECT_TRUE(
      analysis::eval_query(space, "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]").holds);
}

TEST(PipelineModel, BufferConservationHoldsOverTrace) {
  const Net net = build_full_model();
  const RecordedTrace trace = run_model(net, 5000, 5);
  const analysis::TraceStateSpace space(trace);
  // 6 words live in Empty, Full, in a 2-word prefetch in flight, or inside
  // the one-cycle Decode firing.
  EXPECT_TRUE(analysis::eval_query(space,
                                   "forall s in S [ Empty_I_buffers(s) + "
                                   "Full_I_buffers(s) + 2 * pre_fetching(s) + Decode(s) "
                                   "= 6 ]")
                  .holds);
}

TEST(PipelineModel, StageResourceInvariants) {
  const Net net = build_full_model();
  const RecordedTrace trace = run_model(net, 5000, 7);
  const analysis::TraceStateSpace space(trace);
  // Stage 2: the decoder is free or exactly one instruction occupies it.
  EXPECT_TRUE(analysis::eval_query(
                  space,
                  "forall s in S [ Decoder_ready(s) + Decode(s) + "
                  "Decoded_instruction(s) + Type2_pending(s) + Type3_pending(s) + "
                  "ready_to_issue_instruction(s) = 1 ]")
                  .holds);
  // Stage 3: execution unit free or occupied by exactly one instruction.
  EXPECT_TRUE(analysis::eval_query(
                  space,
                  "forall s in S [ Execution_unit(s) + Issued_instruction(s) + "
                  "exec_type_1(s) + exec_type_2(s) + exec_type_3(s) + exec_type_4(s) + "
                  "exec_type_5(s) + Executed_instruction(s) + Result_store_pending(s) + "
                  "storing(s) = 1 ]")
                  .holds);
}

TEST(PipelineModel, PrefetchInhibitedWhileMemoryRequestsPending) {
  const Net net = build_full_model();
  const RecordedTrace trace = run_model(net, 5000, 11);
  // Scan the raw events: Start_prefetch must never fire from a state where
  // Operand_fetch_pending or Result_store_pending is marked.
  TraceCursor cursor(trace);
  const TransitionId start_prefetch = net.transition_named(names::kStartPrefetch);
  const PlaceId ofp = net.place_named(names::kOperandFetchPending);
  const PlaceId rsp = net.place_named(names::kResultStorePending);
  while (!cursor.at_end()) {
    const TraceEvent& ev = cursor.pending_event();
    if (ev.kind == TraceEvent::Kind::kStart && ev.transition == start_prefetch) {
      ASSERT_EQ(cursor.marking()[ofp], 0u) << "prefetch started with operand fetch pending";
      ASSERT_EQ(cursor.marking()[rsp], 0u) << "prefetch started with result store pending";
    }
    cursor.step();
  }
}

TEST(PipelineModel, Figure5StatisticsBands) {
  // Shape reproduction of Figure 5 (length 10000). Paper values: Issue
  // throughput .1238, bus .658 (prefetch .311 / fetch .228 / store .120),
  // Full 4.62, Empty .76, Decoder_ready .0014, Execution_unit .274.
  const Net net = build_full_model();
  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(1988);
  sim.run_until(10000);
  sim.finish();
  const PipelineMetrics m = PipelineMetrics::from_stats(stats.stats());

  EXPECT_NEAR(m.instructions_per_cycle, 0.124, 0.012);
  EXPECT_NEAR(m.bus_utilization, 0.66, 0.05);
  EXPECT_NEAR(m.bus_prefetch_fraction, 0.31, 0.04);
  EXPECT_NEAR(m.bus_operand_fetch_fraction, 0.23, 0.04);
  EXPECT_NEAR(m.bus_store_fraction, 0.12, 0.03);
  EXPECT_NEAR(m.avg_full_ibuffer_words, 4.6, 0.5);
  EXPECT_GT(m.decoder_busy, 0.98);
  EXPECT_NEAR(m.exec_unit_busy, 0.72, 0.06);
  // Breakdown sums to the total bus utilization.
  EXPECT_NEAR(m.bus_prefetch_fraction + m.bus_operand_fetch_fraction + m.bus_store_fraction,
              m.bus_utilization, 1e-9);
}

TEST(PipelineModel, InstructionMixMatchesFrequencies) {
  const Net net = build_full_model();
  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(6);
  sim.run_until(50000);
  sim.finish();
  const RunStats& r = stats.stats();
  const double total = static_cast<double>(r.transition(names::kType1).ends +
                                           r.transition(names::kType2).ends +
                                           r.transition(names::kType3).ends);
  EXPECT_NEAR(r.transition(names::kType1).ends / total, 0.70, 0.02);
  EXPECT_NEAR(r.transition(names::kType2).ends / total, 0.20, 0.02);
  EXPECT_NEAR(r.transition(names::kType3).ends / total, 0.10, 0.02);
}

TEST(PipelineModel, ExecutionClassMixMatchesProbabilities) {
  const Net net = build_full_model();
  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(9);
  sim.run_until(50000);
  sim.finish();
  const PipelineMetrics m = PipelineMetrics::from_stats(stats.stats());
  double total = 0;
  for (std::uint64_t c : m.exec_class_counts) total += static_cast<double>(c);
  const double expected[5] = {0.5, 0.3, 0.1, 0.05, 0.05};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(m.exec_class_counts[i] / total, expected[i], 0.02) << "class " << i + 1;
  }
}

TEST(PipelineModel, ThroughputConsistency) {
  // Issue throughput = sum of type throughputs = sum of exec throughputs
  // (in steady state, within one in-flight instruction of each other).
  const Net net = build_full_model();
  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(12);
  sim.run_until(20000);
  sim.finish();
  const RunStats& r = stats.stats();
  const double issue = r.transition(names::kIssue).throughput;
  double types = 0;
  for (const char* t : {names::kType1, names::kType2, names::kType3}) {
    types += r.transition(t).throughput;
  }
  double execs = 0;
  for (std::size_t i = 1; i <= 5; ++i) execs += r.transition(names::exec_type(i)).throughput;
  EXPECT_NEAR(issue, types, 0.001);
  EXPECT_NEAR(issue, execs, 0.001);
}

TEST(PipelineModel, SlowerMemoryLowersThroughput) {
  // The intro's motivating claim: memory speed has a strong impact.
  auto ipc_with_memory = [](Time memory_cycles) {
    PipelineConfig config;
    config.memory_cycles = memory_cycles;
    const Net net = build_full_model(config);
    StatCollector stats;
    Simulator sim(net);
    sim.set_sink(&stats);
    sim.reset(21);
    sim.run_until(20000);
    sim.finish();
    return PipelineMetrics::from_stats(stats.stats()).instructions_per_cycle;
  };
  const double fast = ipc_with_memory(1);
  const double mid = ipc_with_memory(5);
  const double slow = ipc_with_memory(12);
  EXPECT_GT(fast, mid);
  EXPECT_GT(mid, slow);
  EXPECT_GT(fast, 1.5 * slow) << "impact should be strong, not marginal";
}

TEST(PipelineModel, CachesImproveThroughput) {
  PipelineConfig cached;
  cached.icache = CacheConfig{0.9, 1};
  cached.dcache = CacheConfig{0.9, 1};
  const Net cached_net = build_full_model(cached);
  const Net base_net = build_full_model();

  auto ipc = [](const Net& net) {
    StatCollector stats;
    Simulator sim(net);
    sim.set_sink(&stats);
    sim.reset(33);
    sim.run_until(20000);
    sim.finish();
    return stats.stats().transition(names::kIssue).throughput;
  };
  EXPECT_GT(ipc(cached_net), 1.2 * ipc(base_net));
}

TEST(PipelineModel, CacheModelSplitsAccessPaths) {
  PipelineConfig config;
  config.icache = CacheConfig{0.75, 1};
  const Net net = build_full_model(config);
  // The single Start/End prefetch pair becomes hit/miss pairs.
  EXPECT_FALSE(net.find_transition(names::kStartPrefetch).has_value());
  EXPECT_TRUE(net.find_transition("Start_prefetch_hit").has_value());
  EXPECT_TRUE(net.find_transition("Start_prefetch_miss").has_value());

  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(44);
  sim.run_until(30000);
  sim.finish();
  const RunStats& r = stats.stats();
  const double hits = static_cast<double>(r.transition("Start_prefetch_hit").ends);
  const double misses = static_cast<double>(r.transition("Start_prefetch_miss").ends);
  EXPECT_NEAR(hits / (hits + misses), 0.75, 0.03);
}

TEST(PipelineModel, StoreProbabilityZeroAndOneEdgeCases) {
  PipelineConfig no_store;
  no_store.store_probability = 0;
  const Net net0 = build_full_model(no_store);
  EXPECT_FALSE(net0.find_transition(names::kNeedStore).has_value());
  Simulator sim0(net0);
  sim0.run_until(2000);
  EXPECT_GT(sim0.completed_firings(net0.transition_named(names::kIssue)), 100u);

  PipelineConfig always_store;
  always_store.store_probability = 1;
  const Net net1 = build_full_model(always_store);
  EXPECT_FALSE(net1.find_transition(names::kNoStore).has_value());
  Simulator sim1(net1);
  sim1.run_until(2000);
  const auto issues = sim1.completed_firings(net1.transition_named(names::kIssue));
  const auto stores = sim1.completed_firings(net1.transition_named(names::kEndStore));
  EXPECT_GT(issues, 50u);
  EXPECT_NEAR(static_cast<double>(stores), static_cast<double>(issues), 2.0);
}

TEST(PipelineModel, ConfigValidation) {
  PipelineConfig bad;
  bad.prefetch_words = 8;  // > ibuffer_words
  EXPECT_THROW(build_full_model(bad), std::invalid_argument);
  PipelineConfig bad2;
  bad2.exec_classes.clear();
  EXPECT_THROW(build_full_model(bad2), std::invalid_argument);
  PipelineConfig bad3;
  bad3.store_probability = 1.5;
  EXPECT_THROW(build_full_model(bad3), std::invalid_argument);
  PipelineConfig bad4;
  bad4.ibuffer_words = 0;
  EXPECT_THROW(build_full_model(bad4), std::invalid_argument);
  PipelineConfig bad5;
  bad5.icache = CacheConfig{1.5, 1};
  EXPECT_THROW(build_full_model(bad5), std::invalid_argument);
}

TEST(PipelineMetrics, ToStringPrintsEveryMappingAndExecClass) {
  // A class time without a count prints count 0.
  PipelineMetrics m;
  m.instructions_per_cycle = 0.25;
  m.bus_utilization = 0.5;
  m.bus_prefetch_fraction = 0.125;
  m.bus_operand_fetch_fraction = 0.0625;
  m.bus_store_fraction = 0.3125;
  m.decoder_busy = 0.75;
  m.exec_unit_busy = 1;
  m.avg_full_ibuffer_words = 1.5;
  m.avg_empty_ibuffer_words = 0.5;
  m.exec_class_time = {0.375, 0};
  m.exec_class_counts = {12};
  EXPECT_EQ(m.to_string(),
            "  instructions / cycle           0.2500\n"
            "  bus utilization                0.5000\n"
            "    prefetch fraction            0.1250\n"
            "    operand-fetch fraction       0.0625\n"
            "    result-store fraction        0.3125\n"
            "  decoder busy                   0.7500\n"
            "  execution unit busy            1.0000\n"
            "  avg full I-buffer words        1.5000\n"
            "  avg empty I-buffer words       0.5000\n"
            "  exec class 1: time  0.3750, count 12\n"
            "  exec class 2: time  0.0000, count 0\n");
}

TEST(PipelineModel, PrefetchStandaloneModelRuns) {
  const Net net = build_prefetch_model();
  EXPECT_TRUE(net.validate().empty());
  Simulator sim(net);
  sim.reset(2);
  sim.run_until(1000);
  // Steady state: a prefetch every ~5 cycles delivers 2 words; decode and
  // consume drain them.
  EXPECT_GT(sim.completed_firings(net.transition_named(names::kDecode)), 100u);
  EXPECT_EQ(sim.marking()[net.place_named(names::kBusFree)] +
                sim.marking()[net.place_named(names::kBusBusy)],
            1u);
}

}  // namespace
}  // namespace pnut::pipeline
