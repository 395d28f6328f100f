// Unit tests for the analytic marked-graph cycle-time bound, including
// agreement with the simulator on the same nets.
#include <gtest/gtest.h>

#include "analysis/marked_graph.h"
#include "expr/compile.h"
#include "sim/simulator.h"

namespace pnut::analysis {
namespace {

/// Ring of n transitions with given delays and one token.
Net ring(const std::vector<Time>& delays, TokenCount tokens_on_first = 1) {
  Net net("ring");
  std::vector<PlaceId> places;
  for (std::size_t i = 0; i < delays.size(); ++i) {
    places.push_back(net.add_place("p" + std::to_string(i), i == 0 ? tokens_on_first : 0));
  }
  for (std::size_t i = 0; i < delays.size(); ++i) {
    const TransitionId t = net.add_transition("t" + std::to_string(i));
    net.add_input(t, places[i]);
    net.add_output(t, places[(i + 1) % delays.size()]);
    net.set_firing_time(t, DelaySpec::constant(delays[i]));
    // Ramchandani's cycle-time result assumes re-entrant transitions (a
    // transition may fire again while a previous firing is in flight);
    // match that in the simulator via infinite-server policy.
    net.set_policy(t, FiringPolicy::kInfiniteServer);
  }
  return net;
}

TEST(MarkedGraph, SingleRingCycleTime) {
  // One token, total delay 2+3+5 = 10 -> cycle time 10.
  const Net net = ring({2, 3, 5});
  const CycleTimeResult r = marked_graph_cycle_time(net);
  EXPECT_FALSE(r.has_token_free_cycle);
  EXPECT_NEAR(r.cycle_time, 10.0, 1e-6);
  EXPECT_EQ(r.critical_cycle.size(), 3u);
}

TEST(MarkedGraph, MoreTokensDivideCycleTime) {
  // Two tokens on the same ring halve the cycle time.
  const Net net = ring({2, 3, 5}, 2);
  const CycleTimeResult r = marked_graph_cycle_time(net);
  EXPECT_NEAR(r.cycle_time, 5.0, 1e-6);
}

TEST(MarkedGraph, MaxOverTwoRings) {
  // Two independent rings sharing nothing: result is the slower ratio.
  Net net("two_rings");
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b");
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t1, a);
  net.add_output(t1, b);
  net.add_input(t2, b);
  net.add_output(t2, a);
  net.set_firing_time(t1, DelaySpec::constant(1));
  net.set_firing_time(t2, DelaySpec::constant(1));  // ratio 2

  const PlaceId c = net.add_place("c", 1);
  const PlaceId d = net.add_place("d");
  const TransitionId t3 = net.add_transition("t3");
  const TransitionId t4 = net.add_transition("t4");
  net.add_input(t3, c);
  net.add_output(t3, d);
  net.add_input(t4, d);
  net.add_output(t4, c);
  net.set_firing_time(t3, DelaySpec::constant(4));
  net.set_firing_time(t4, DelaySpec::constant(3));  // ratio 7

  const CycleTimeResult r = marked_graph_cycle_time(net);
  EXPECT_NEAR(r.cycle_time, 7.0, 1e-6);
}

TEST(MarkedGraph, TokenFreeCycleIsDead) {
  Net net;
  const PlaceId a = net.add_place("a");  // no tokens anywhere on the cycle
  const PlaceId b = net.add_place("b");
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t1, a);
  net.add_output(t1, b);
  net.add_input(t2, b);
  net.add_output(t2, a);
  net.set_firing_time(t1, DelaySpec::constant(1));
  const CycleTimeResult r = marked_graph_cycle_time(net);
  EXPECT_TRUE(r.has_token_free_cycle);
}

TEST(MarkedGraph, AcyclicGraphHasZeroCycleTime) {
  Net net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b");
  const PlaceId c = net.add_place("c");
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t1, a);
  net.add_output(t1, b);
  net.add_input(t2, b);
  net.add_output(t2, c);
  net.set_firing_time(t1, DelaySpec::constant(9));
  const CycleTimeResult r = marked_graph_cycle_time(net);
  EXPECT_FALSE(r.has_token_free_cycle);
  EXPECT_EQ(r.cycle_time, 0.0);
}

TEST(MarkedGraph, EnablingTimesCountAsDelay) {
  Net net = ring({0, 0});
  net.set_enabling_time(net.transition_named("t0"), DelaySpec::constant(4));
  const CycleTimeResult r = marked_graph_cycle_time(net);
  EXPECT_NEAR(r.cycle_time, 4.0, 1e-6);
}

TEST(MarkedGraph, RejectsNonMarkedGraphs) {
  Net net;
  const PlaceId shared = net.add_place("shared", 1);
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t1, shared);
  net.add_output(t1, shared);
  net.add_input(t2, shared);
  net.add_output(t2, shared);
  EXPECT_THROW(marked_graph_cycle_time(net), std::invalid_argument);
}

TEST(MarkedGraph, RejectsComputedDelays) {
  Net net = ring({1, 1});
  net.set_firing_time(net.transition_named("t0"), expr::compile_delay("1"));
  EXPECT_THROW(marked_graph_cycle_time(net), std::invalid_argument);
}

TEST(MarkedGraph, AgreesWithSimulation) {
  // Cross-check: long-run simulated throughput = 1 / analytic cycle time.
  const Net net = ring({2, 3, 5});
  const CycleTimeResult analytic = marked_graph_cycle_time(net);

  Simulator sim(net);
  sim.run_until(100000);
  const double throughput =
      static_cast<double>(sim.completed_firings(net.transition_named("t0"))) / 100000.0;
  EXPECT_NEAR(throughput, 1.0 / analytic.cycle_time, 1e-3);
}

TEST(MarkedGraph, AgreesWithSimulationTwoTokens) {
  const Net net = ring({4, 1}, 2);
  const CycleTimeResult analytic = marked_graph_cycle_time(net);
  // Two tokens, delays 4+1: ratio 5/2 = 2.5.
  EXPECT_NEAR(analytic.cycle_time, 2.5, 1e-6);

  Simulator sim(net);
  sim.run_until(50000);
  const double throughput =
      static_cast<double>(sim.completed_firings(net.transition_named("t0"))) / 50000.0;
  EXPECT_NEAR(throughput, 1.0 / 2.5, 1e-2);
}

TEST(MarkedGraph, PipelineShapedChain) {
  // A 3-stage pipeline as a marked graph: forward places carry the job,
  // backward places model single-buffering; stage delays 1, 4, 2.
  // Bottleneck = slowest stage loop: (1 token, delay 4) -> cycle time 4.
  Net net("pipe3");
  const Time delays[3] = {1, 4, 2};
  std::vector<TransitionId> stage;
  for (int i = 0; i < 3; ++i) {
    stage.push_back(net.add_transition("stage" + std::to_string(i)));
    net.set_firing_time(stage[static_cast<std::size_t>(i)],
                        DelaySpec::constant(delays[i]));
  }
  for (int i = 0; i < 2; ++i) {
    const PlaceId fwd = net.add_place("fwd" + std::to_string(i));
    net.add_output(stage[static_cast<std::size_t>(i)], fwd);
    net.add_input(stage[static_cast<std::size_t>(i) + 1], fwd);
    const PlaceId back = net.add_place("back" + std::to_string(i), 1);
    net.add_output(stage[static_cast<std::size_t>(i) + 1], back);
    net.add_input(stage[static_cast<std::size_t>(i)], back);
  }
  // Self-loop giving each stage a job source/sink: close the ends.
  const PlaceId wrap = net.add_place("wrap", 1);
  net.add_input(stage[0], wrap);
  net.add_output(stage[2], wrap);

  const CycleTimeResult r = marked_graph_cycle_time(net);
  // Stage1-stage2 loop: delay 1+4 over 1 token = 5; full wrap cycle:
  // (1+4+2)/1 = 7 via wrap token.
  EXPECT_NEAR(r.cycle_time, 7.0, 1e-6);

  Simulator sim(net);
  sim.run_until(70000);
  const double throughput =
      static_cast<double>(sim.completed_firings(stage[2])) / 70000.0;
  EXPECT_NEAR(throughput, 1.0 / r.cycle_time, 1e-3);
}

}  // namespace
}  // namespace pnut::analysis
