// Unit tests for the statistics tool: hand-computed time-weighted averages,
// throughput, concurrent-firing stats, report formatting, replications.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/simulator.h"
#include "stat/replication.h"
#include "stat/stat.h"

namespace pnut {
namespace {

// One deterministic firing: P holds 1 token over [0,4), 0 after; transition
// T fires (consume at 4 after enabling delay... no — enabling 4, atomic).
TEST(Stat, HandComputedPlaceAverage) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, q);
  net.set_enabling_time(t, DelaySpec::constant(4));

  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(1);
  sim.run_until(10);
  sim.finish();

  const RunStats& r = stats.stats();
  EXPECT_EQ(r.length, 10.0);
  // P: 1 over [0,4), 0 over [4,10) -> avg 0.4; variance 0.4 - 0.16 = 0.24.
  EXPECT_NEAR(r.place("P").avg_tokens, 0.4, 1e-12);
  EXPECT_NEAR(r.place("P").stddev_tokens, std::sqrt(0.24), 1e-12);
  EXPECT_EQ(r.place("P").min_tokens, 0u);
  EXPECT_EQ(r.place("P").max_tokens, 1u);
  // Q: 0 over [0,4), 1 over [4,10) -> avg 0.6.
  EXPECT_NEAR(r.place("Q").avg_tokens, 0.6, 1e-12);
  EXPECT_EQ(r.transition("T").starts, 1u);
  EXPECT_EQ(r.transition("T").ends, 1u);
  EXPECT_NEAR(r.transition("T").throughput, 0.1, 1e-12);
}

TEST(Stat, ConcurrentFiringAverage) {
  // T fires with firing time 3 on a recycling token: busy 3 of every 4
  // cycles (1-cycle enabling gap via a return transition).
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, q);
  net.set_firing_time(t, DelaySpec::constant(3));
  const TransitionId back = net.add_transition("back");
  net.add_input(back, q);
  net.add_output(back, p);
  net.set_enabling_time(back, DelaySpec::constant(1));

  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(1);
  sim.run_until(4000);
  sim.finish();

  const RunStats& r = stats.stats();
  EXPECT_NEAR(r.transition("T").avg_concurrent, 0.75, 0.01);
  EXPECT_EQ(r.transition("T").max_concurrent, 1u);
  EXPECT_NEAR(r.transition("T").throughput, 0.25, 0.01);
  // Utilization interpretation (Section 4.2): avg_concurrent of a
  // single-server transition = fraction of time busy.
}

TEST(Stat, InfiniteServerConcurrency) {
  Net net;
  const PlaceId p = net.add_place("P", 4);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(2));
  net.set_policy(t, FiringPolicy::kInfiniteServer);

  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(1);
  sim.run_until(1000);
  sim.finish();

  // All four tokens permanently in flight.
  EXPECT_EQ(stats.stats().transition("T").max_concurrent, 4u);
  EXPECT_NEAR(stats.stats().transition("T").avg_concurrent, 4.0, 0.05);
}

TEST(Stat, MinMaxTrackTokenExtremes) {
  Net net;
  const PlaceId p = net.add_place("P", 2);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p, 2);
  net.add_output(t, q, 2);
  net.set_enabling_time(t, DelaySpec::constant(1));
  const TransitionId back = net.add_transition("back");
  net.add_input(back, q, 2);
  net.add_output(back, p, 2);
  net.set_enabling_time(back, DelaySpec::constant(1));

  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(1);
  sim.run_until(100);
  sim.finish();

  EXPECT_EQ(stats.stats().place("P").min_tokens, 0u);
  EXPECT_EQ(stats.stats().place("P").max_tokens, 2u);
}

TEST(Stat, CollectFromRecordedTraceMatchesLive) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::uniform_int(1, 4));

  RecordedTrace trace;
  StatCollector live;
  MultiSink fan;
  fan.add(trace);
  fan.add(live);
  Simulator sim(net);
  sim.set_sink(&fan);
  sim.reset(8);
  sim.run_until(500);
  sim.finish();

  const RunStats offline = collect_stats(trace);
  const RunStats& online = live.stats();
  ASSERT_EQ(offline.places.size(), online.places.size());
  EXPECT_NEAR(offline.place("P").avg_tokens, online.place("P").avg_tokens, 1e-12);
  EXPECT_EQ(offline.transition("T").starts, online.transition("T").starts);
  EXPECT_EQ(offline.events_started, online.events_started);
}

TEST(Stat, StatsBeforeEndThrows) {
  StatCollector stats;
  TraceHeader header;
  header.place_names = {"P"};
  header.transition_names = {"T"};
  header.initial_marking = Marking(1);
  stats.begin(header);
  EXPECT_THROW((void)stats.stats(), std::logic_error);
}

TEST(Stat, ZeroLengthRunProducesZeroAverages) {
  Net net;
  const PlaceId p = net.add_place("P", 3);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_enabling_time(t, DelaySpec::constant(5));

  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(1);
  sim.finish();  // end at t=0 immediately

  const RunStats& r = stats.stats();
  EXPECT_EQ(r.length, 0.0);
  EXPECT_EQ(r.place("P").avg_tokens, 0.0);
  EXPECT_EQ(r.transition("T").throughput, 0.0);
}

TEST(Stat, ReportContainsFigure5Sections) {
  Net net;
  const PlaceId p = net.add_place("Bus_busy", 1);
  const TransitionId t = net.add_transition("Issue");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(1));

  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(1);
  sim.run_until(100);
  sim.finish();

  const std::string report = format_report(stats.stats());
  EXPECT_NE(report.find("RUN STATISTICS"), std::string::npos);
  EXPECT_NE(report.find("EVENT STATISTICS"), std::string::npos);
  EXPECT_NE(report.find("PLACE STATISTICS"), std::string::npos);
  EXPECT_NE(report.find("Issue"), std::string::npos);
  EXPECT_NE(report.find("Bus_busy"), std::string::npos);
  EXPECT_NE(report.find("Throughput"), std::string::npos);
}

TEST(Stat, TblReportIsTroffMarkup) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(1));

  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(1);
  sim.run_until(10);
  sim.finish();

  const std::string tbl = format_report_tbl(stats.stats());
  EXPECT_EQ(tbl.rfind(".TS", 0), 0u);
  EXPECT_NE(tbl.find(".TE"), std::string::npos);
  EXPECT_NE(tbl.find('\t'), std::string::npos);
}

TEST(Stat, UnknownNamesThrow) {
  RunStats r;
  EXPECT_THROW((void)r.place("nope"), std::invalid_argument);
  EXPECT_THROW((void)r.transition("nope"), std::invalid_argument);
}

TEST(Replication, AggregatesAcrossSeeds) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::uniform_int(1, 3));

  const std::vector<MetricSpec> metrics = {
      {"throughput", [](const RunStats& r) { return r.transition("T").throughput; }},
  };
  const ReplicationResult result = run_replications(net, 2000, 8, metrics, 100);
  ASSERT_EQ(result.runs.size(), 8u);
  ASSERT_EQ(result.metrics.size(), 1u);
  const MetricSummary& m = result.metrics[0];
  EXPECT_EQ(m.replications, 8u);
  // Mean period 2 -> throughput 0.5.
  EXPECT_NEAR(m.mean, 0.5, 0.03);
  EXPECT_GT(m.stddev, 0.0);
  EXPECT_LE(m.min, m.mean);
  EXPECT_GE(m.max, m.mean);

  // Runs used distinct seeds: not all throughputs identical.
  bool all_same = true;
  for (const RunStats& run : result.runs) {
    all_same &= run.transition("T").throughput == result.runs[0].transition("T").throughput;
  }
  EXPECT_FALSE(all_same);

  const std::string table = format_metric_summaries(result.metrics);
  EXPECT_NE(table.find("throughput"), std::string::npos);
  EXPECT_NE(table.find("+/-"), std::string::npos);
}

TEST(Replication, ParallelRunsAreBitIdenticalToSequential) {
  // Each replication is a pure function of (net, base_seed + k, horizon)
  // and results merge in k order, so the thread count must not change a
  // single bit of the output.
  Net net;
  const PlaceId p = net.add_place("P", 2);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, q);
  const TransitionId u = net.add_transition("U");
  net.add_input(u, q);
  net.add_output(u, p);
  net.set_firing_time(t, DelaySpec::uniform_int(1, 4));
  net.set_enabling_time(u, DelaySpec::uniform_int(0, 2));

  const std::vector<MetricSpec> metrics = {
      {"throughput", [](const RunStats& r) { return r.transition("T").throughput; }},
      {"mean_q", [](const RunStats& r) { return r.place("Q").avg_tokens; }},
  };
  const ReplicationResult sequential = run_replications(net, 3000, 12, metrics, 7, 1);
  for (const unsigned threads : {2u, 4u, 16u}) {
    const ReplicationResult parallel = run_replications(net, 3000, 12, metrics, 7, threads);
    ASSERT_EQ(parallel.runs.size(), sequential.runs.size());
    for (std::size_t k = 0; k < sequential.runs.size(); ++k) {
      EXPECT_EQ(parallel.runs[k].run_number, sequential.runs[k].run_number);
      EXPECT_EQ(parallel.runs[k].events_started, sequential.runs[k].events_started);
      EXPECT_EQ(parallel.runs[k].transition("T").throughput,
                sequential.runs[k].transition("T").throughput);
      EXPECT_EQ(parallel.runs[k].place("Q").avg_tokens,
                sequential.runs[k].place("Q").avg_tokens);
    }
    for (std::size_t m = 0; m < sequential.metrics.size(); ++m) {
      EXPECT_EQ(parallel.metrics[m].mean, sequential.metrics[m].mean);
      EXPECT_EQ(parallel.metrics[m].stddev, sequential.metrics[m].stddev);
    }
  }
}

}  // namespace
}  // namespace pnut
