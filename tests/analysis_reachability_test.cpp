// Unit tests for the reachability-graph analyzer.
#include <gtest/gtest.h>

#include "analysis/reachability.h"
#include "expr/compile.h"
#include "support/variable_named.h"

namespace pnut::analysis {
namespace {

using test_support::variable_named;

/// Two-transition ring: P(1) <-> Q via t1, t2. Two states.
Net ring_net() {
  Net net("ring");
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t1, p);
  net.add_output(t1, q);
  net.add_input(t2, q);
  net.add_output(t2, p);
  return net;
}

TEST(Reachability, RingHasTwoStates) {
  const Net net = ring_net();
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), 2u);
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_TRUE(graph.deadlock_states().empty());
  EXPECT_TRUE(graph.is_reversible());
  EXPECT_TRUE(graph.dead_transitions().empty());
}

TEST(Reachability, InitialStateIsIndexZero) {
  const Net net = ring_net();
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.marking(0), Marking::initial(net));
}

TEST(Reachability, DeadlockStateDetected) {
  Net net("oneshot");
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, q);
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.num_states(), 2u);
  const auto deadlocks = graph.deadlock_states();
  ASSERT_EQ(deadlocks.size(), 1u);
  EXPECT_EQ(graph.marking(deadlocks[0])[q], 1u);
  EXPECT_FALSE(graph.is_reversible());
}

TEST(Reachability, DeadTransitionDetected) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId never = net.add_place("Never");
  const TransitionId live = net.add_transition("live");
  net.add_input(live, p);
  net.add_output(live, p);
  const TransitionId dead = net.add_transition("dead");
  net.add_input(dead, never);
  net.add_output(dead, p);
  const ReachabilityGraph graph(net);
  const auto dead_list = graph.dead_transitions();
  ASSERT_EQ(dead_list.size(), 1u);
  EXPECT_EQ(dead_list[0], net.transition_named("dead"));
}

TEST(Reachability, WeightedArcsChangeStateCount) {
  // P(4) consumed 2-at-a-time: markings 4, 2, 0 -> 3 states.
  Net net;
  const PlaceId p = net.add_place("P", 4);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p, 2);
  net.add_output(t, q, 2);
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.num_states(), 3u);
  EXPECT_EQ(graph.place_bound(q), 4u);
}

TEST(Reachability, InhibitorPrunesFirings) {
  Net net;
  const PlaceId p = net.add_place("P", 2);
  const PlaceId g = net.add_place("G");
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_inhibitor(t, g);
  net.add_output(t, q);
  const TransitionId filler = net.add_transition("filler");
  net.add_input(filler, q);
  net.add_output(filler, g);

  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  // No edge may fire t from a state where G is marked.
  for (std::size_t s = 0; s < graph.num_states(); ++s) {
    for (const auto& e : graph.edges(s)) {
      if (e.transition == net.transition_named("t")) {
        EXPECT_EQ(graph.marking(s)[g], 0u);
      }
    }
  }
}

TEST(Reachability, UnboundedNetReported) {
  Net net("unbounded");
  const PlaceId p = net.add_place("P");
  const TransitionId src = net.add_transition("src");
  net.add_output(src, p);
  ReachOptions options;
  options.place_bound = 50;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kUnbounded);
}

TEST(Reachability, TruncationAtMaxStates) {
  Net net;
  const PlaceId a = net.add_place("A", 10);
  const PlaceId b = net.add_place("B");
  const TransitionId t1 = net.add_transition("t1");
  net.add_input(t1, a);
  net.add_output(t1, b);
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t2, b);
  net.add_output(t2, a);
  ReachOptions options;
  options.max_states = 5;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kTruncated);
  EXPECT_LE(graph.num_states(), 7u);
}

TEST(Reachability, TruncationReportsNoPhantomDeadlocks) {
  // A live exchange net cut off by max_states: frontier leftovers past the
  // expanded prefix have empty edge rows, but they are unexplored, not
  // stuck — deadlock_states() must never include them. This net never
  // deadlocks (t1/t2 always exchange), so the honest answer is "none".
  Net net;
  const PlaceId a = net.add_place("A", 10);
  const PlaceId b = net.add_place("B");
  const TransitionId t1 = net.add_transition("t1");
  net.add_input(t1, a);
  net.add_output(t1, b);
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t2, b);
  net.add_output(t2, a);
  ReachOptions options;
  options.max_states = 5;
  const ReachabilityGraph graph(net, options);
  ASSERT_EQ(graph.status(), ReachStatus::kTruncated);
  ASSERT_LT(graph.num_expanded(), graph.num_states());
  EXPECT_TRUE(graph.deadlock_states().empty());
  EXPECT_TRUE(graph.state_expanded(0));
  EXPECT_FALSE(graph.state_expanded(graph.num_states() - 1));
}

TEST(Reachability, TruncatedReversibilityIgnoresUnexpandedLeftovers) {
  // The exchange net is reversible; on the truncated prefix every expanded
  // state can return to the initial marking, and the never-expanded
  // leftovers (whose onward edges are unknown) must not flip the answer.
  Net net;
  const PlaceId a = net.add_place("A", 10);
  const PlaceId b = net.add_place("B");
  const TransitionId t1 = net.add_transition("t1");
  net.add_input(t1, a);
  net.add_output(t1, b);
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t2, b);
  net.add_output(t2, a);
  ReachOptions options;
  options.max_states = 5;
  const ReachabilityGraph graph(net, options);
  ASSERT_EQ(graph.status(), ReachStatus::kTruncated);
  EXPECT_TRUE(graph.is_reversible());
}

TEST(Reachability, UnboundedStopKeepsDeadlocksHonest) {
  // The pump's stopping state has a partial edge row (its over-bound firing
  // recorded nothing); neither it nor the leftovers may read as deadlocks.
  Net net("pump");
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.add_output(t, q, 2);
  ReachOptions options;
  options.place_bound = 16;
  const ReachabilityGraph graph(net, options);
  ASSERT_EQ(graph.status(), ReachStatus::kUnbounded);
  EXPECT_LT(graph.num_expanded(), graph.num_states());
  EXPECT_TRUE(graph.deadlock_states().empty());
}

TEST(Reachability, CompleteGraphsStillReportTrueDeadlocks) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, a);
  net.add_output(t, b);
  const ReachabilityGraph graph(net);
  ASSERT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_expanded(), graph.num_states());
  EXPECT_EQ(graph.deadlock_states(), (std::vector<std::size_t>{1}));
}

TEST(Reachability, RespectCapacitiesBlocksOverflowingFirings) {
  Net net;
  const PlaceId p = net.add_place("P", 2);
  const PlaceId q = net.add_place("Q", 0, 1);  // capacity 1
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, q);
  ReachOptions options;
  options.respect_capacities = true;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.place_bound(q), 1u);
  // Without capacities, Q reaches 2.
  const ReachabilityGraph unrestricted(net);
  EXPECT_EQ(unrestricted.place_bound(q), 2u);
}

TEST(Reachability, TransitionActivityIsEnabledness) {
  const Net net = ring_net();
  const ReachabilityGraph graph(net);
  const TransitionId t1 = net.transition_named("t1");
  const TransitionId t2 = net.transition_named("t2");
  EXPECT_EQ(graph.transition_activity(0, t1), 1);
  EXPECT_EQ(graph.transition_activity(0, t2), 0);
}

TEST(Reachability, InterpretedDeterministicActionTracked) {
  // A counter in data: P recycles, action increments x mod 3. The graph
  // must distinguish data states: 3 states, not 1.
  Net net;
  net.initial_data().set("x", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_action(t, expr::compile_action("x = (x + 1) % 3"));
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.num_states(), 3u);
  EXPECT_TRUE(graph.is_reversible());
  EXPECT_EQ(variable_named(graph, 0, "x"), 0);
}

TEST(Reachability, StochasticActionFansOut) {
  // Action draws x in [1,3]: one marking, data outcomes 1..3 plus initial 0.
  Net net;
  net.initial_data().set("x", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_action(t, expr::compile_action("x = irand[1, 3]"));
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.num_states(), 4u);
}

TEST(Reachability, PredicateLimitsStateSpace) {
  Net net;
  net.initial_data().set("x", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId inc = net.add_transition("inc");
  net.add_input(inc, p);
  net.add_output(inc, p);
  net.set_predicate(inc, expr::compile_predicate("x < 5"));
  net.set_action(inc, expr::compile_action("x = x + 1"));
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.num_states(), 6u);  // x = 0..5
  ASSERT_EQ(graph.deadlock_states().size(), 1u);
  EXPECT_EQ(variable_named(graph, graph.deadlock_states()[0], "x"), 5);
}

TEST(Reachability, ActionCreatedVariableAbsentUntilAssigned) {
  // An action may create a variable mid-exploration: "absent" and "= 0"
  // are distinct data states (the encoding carries a presence bit).
  Net net;
  net.initial_data().set("x", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_action(t, expr::compile_action("y = x; x = min[x + 1, 2]"));
  const ReachabilityGraph graph(net);
  // States: {x=0}, {x=1,y=0}, {x=2,y=1}, {x=2,y=2}.
  EXPECT_EQ(graph.num_states(), 4u);
  EXPECT_EQ(variable_named(graph, 0, "y"), std::nullopt);
  EXPECT_EQ(variable_named(graph, 1, "y"), 0);
  EXPECT_EQ(variable_named(graph, 3, "y"), 2);
}

TEST(Reachability, ActionWritingAnUndeclaredTableRaises) {
  // Actions cannot create tables (the data schema is frozen from the
  // initial data); the write fails with the evaluator's error.
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_action(t, expr::compile_action("T[0] = 1"));
  EXPECT_THROW(ReachabilityGraph{net}, expr::EvalError);
}

// --- ReachKernel: the untimed successor rule's edge cases ---

/// Per state, the x value of each out-edge target in edge order.
std::vector<std::vector<std::int64_t>> x_rows(const ReachabilityGraph& graph) {
  std::vector<std::vector<std::int64_t>> rows;
  for (std::size_t s = 0; s < graph.num_states(); ++s) {
    rows.emplace_back();
    for (const ReachabilityGraph::Edge& e : graph.edges(s)) {
      rows.back().push_back(variable_named(graph, e.target, "x").value_or(-1));
    }
  }
  return rows;
}

TEST(ReachKernel, InitialMarkingOverBoundOffTheFiringIsUnboundedAtStateZero) {
  // A holds 5 > place_bound 3, and the ring's first firing never touches
  // A: the whole-marking check when state 0 is expanded still stops the
  // build there, before any edge.
  Net net = ring_net();
  net.add_place("A", 5);
  ReachOptions options;
  options.place_bound = 3;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kUnbounded);
  EXPECT_EQ(graph.num_states(), 1u);
  EXPECT_EQ(graph.num_edges(), 0u);
  EXPECT_EQ(graph.num_expanded(), 0u);
  EXPECT_TRUE(graph.deadlock_states().empty());
}

TEST(ReachKernel, InitialStateOverBoundWithNothingEnabledIsComplete) {
  // The bound is checked on firings only: with no enabled transition the
  // over-bound initial marking is never looked at.
  Net net;
  net.add_place("A", 5);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, b);
  ReachOptions options;
  options.place_bound = 3;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), 1u);
  EXPECT_EQ(graph.num_edges(), 0u);
  EXPECT_EQ(graph.deadlock_states(), std::vector<std::size_t>{0});
}

Net irand_collision_net() {
  Net net;
  net.initial_data().set("x", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_action(t, expr::compile_action("x = irand[1, 2]"));
  return net;
}

TEST(ReachKernel, IrandCollisionsKeepFirstOccurrencesInOrder) {
  // 64 samples over two values collide constantly; the distinct outcomes
  // become successors in order of first occurrence.
  const Net net = irand_collision_net();
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  ASSERT_EQ(graph.num_states(), 3u);
  EXPECT_EQ(variable_named(graph, 1, "x"), 1);
  EXPECT_EQ(variable_named(graph, 2, "x"), 2);
  const std::vector<std::vector<std::int64_t>> expected = {{1, 2}, {1, 2}, {2, 1}};
  EXPECT_EQ(x_rows(graph), expected);
}

TEST(ReachKernel, IrandFanoutLimitOneKeepsTheFirstSample) {
  const Net net = irand_collision_net();
  ReachOptions options;
  options.irand_fanout_limit = 1;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), 2u);
  const std::vector<std::vector<std::int64_t>> expected = {{1}, {1}};
  EXPECT_EQ(x_rows(graph), expected);
}

/// P0 -> P1 -> P2 chain; `bad` loops on P2 behind a predicate that always
/// divides by zero, and `never` (no tokens ever) carries the same predicate.
Net throwing_predicate_net() {
  Net net;
  net.initial_data().set("z", 0);
  const PlaceId p0 = net.add_place("P0", 1);
  const PlaceId p1 = net.add_place("P1");
  const PlaceId p2 = net.add_place("P2");
  const PlaceId empty = net.add_place("E");
  const TransitionId t0 = net.add_transition("t0");
  net.add_input(t0, p0);
  net.add_output(t0, p1);
  const TransitionId t1 = net.add_transition("t1");
  net.add_input(t1, p1);
  net.add_output(t1, p2);
  const TransitionId never = net.add_transition("never");
  net.add_input(never, empty);
  net.set_predicate(never, expr::compile_predicate("1 / z > 0"));
  const TransitionId bad = net.add_transition("bad");
  net.add_input(bad, p2);
  net.add_output(bad, p2);
  net.set_predicate(bad, expr::compile_predicate("1 / z > 0"));
  return net;
}

TEST(ReachKernel, ThrowingPredicateRaisesAtItsFirstEnabledTest) {
  // Action-free: the predicate is evaluated only once its transition is
  // token-enabled (state 2 for `bad`, never for `never`), and its error
  // surfaces there with the evaluator's text.
  const Net net = throwing_predicate_net();
  try {
    const ReachabilityGraph graph(net);
    ADD_FAILURE() << "expected the predicate's EvalError";
  } catch (const expr::EvalError& e) {
    EXPECT_STREQ(e.what(), "division by zero");
  }
  // Truncated before state 2 is expanded: the predicate never runs.
  ReachOptions options;
  options.max_states = 2;
  const ReachabilityGraph prefix(net, options);
  EXPECT_EQ(prefix.status(), ReachStatus::kTruncated);
  EXPECT_EQ(prefix.num_states(), 3u);
  EXPECT_EQ(prefix.num_expanded(), 1u);
}

TEST(Reachability, InvalidNetRejected) {
  Net net;
  net.add_place("X", 0);
  net.add_place("X", 0);
  EXPECT_THROW(ReachabilityGraph{net}, std::invalid_argument);
}

}  // namespace
}  // namespace pnut::analysis
