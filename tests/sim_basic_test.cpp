// Unit tests for basic simulation semantics: immediate firings, token flow,
// weighted arcs, inhibitors, conflicts, server policies, predicates and
// actions, stop reasons.
#include <gtest/gtest.h>

#include "expr/compile.h"
#include "sim/simulator.h"

namespace pnut {
namespace {

TEST(SimBasic, ImmediateTransitionFiresAtReset) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_output(t, b);

  Simulator sim(net);
  EXPECT_EQ(sim.marking()[a], 0u);
  EXPECT_EQ(sim.marking()[b], 1u);
  EXPECT_EQ(sim.completed_firings(t), 1u);
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(SimBasic, ChainOfImmediatesCascades) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C");
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t1, a);
  net.add_output(t1, b);
  net.add_input(t2, b);
  net.add_output(t2, c);

  Simulator sim(net);
  EXPECT_EQ(sim.marking()[c], 1u);
  EXPECT_EQ(sim.marking()[a], 0u);
  EXPECT_EQ(sim.marking()[b], 0u);
}

TEST(SimBasic, WeightedArcsConsumeAndProduceInBulk) {
  // The prefetch pattern: 2 tokens consumed per firing, 2 produced.
  Net net;
  const PlaceId empty = net.add_place("Empty", 6);
  const PlaceId full = net.add_place("Full");
  const TransitionId t = net.add_transition("fetch");
  net.add_input(t, empty, 2);
  net.add_output(t, full, 2);
  net.set_firing_time(t, DelaySpec::constant(1));

  Simulator sim(net);
  sim.run_until(10);
  // All six words moved, two at a time, three firings.
  EXPECT_EQ(sim.marking()[empty], 0u);
  EXPECT_EQ(sim.marking()[full], 6u);
  EXPECT_EQ(sim.completed_firings(t), 3u);
}

TEST(SimBasic, InhibitorBlocksUntilCleared) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId guard = net.add_place("Guard", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId blocked = net.add_transition("blocked");
  net.add_input(blocked, a);
  net.add_inhibitor(blocked, guard);
  net.add_output(blocked, b);
  const TransitionId clearer = net.add_transition("clearer");
  net.add_input(clearer, guard);
  net.set_enabling_time(clearer, DelaySpec::constant(5));

  Simulator sim(net);
  sim.run_until(4);
  EXPECT_EQ(sim.marking()[b], 0u) << "inhibited while Guard is marked";
  sim.run_until(5);
  EXPECT_EQ(sim.marking()[b], 1u) << "fires once the guard token is consumed";
}

TEST(SimBasic, ConflictResolutionFollowsFrequencies) {
  // Two transitions compete for one recycling token with frequencies 70/30.
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  for (const TransitionId t : {t1, t2}) {
    net.add_input(t, p);
    net.add_output(t, p);
    net.set_firing_time(t, DelaySpec::constant(1));
  }
  net.set_frequency(t1, 70);
  net.set_frequency(t2, 30);

  Simulator sim(net);
  sim.reset(2024);
  sim.run_until(20000);
  const double total =
      static_cast<double>(sim.completed_firings(t1) + sim.completed_firings(t2));
  EXPECT_NEAR(sim.completed_firings(t1) / total, 0.70, 0.02);
}

TEST(SimBasic, EqualFrequenciesSplitEvenly) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  for (const TransitionId t : {t1, t2}) {
    net.add_input(t, p);
    net.add_output(t, p);
    net.set_firing_time(t, DelaySpec::constant(1));
  }
  Simulator sim(net);
  sim.reset(7);
  sim.run_until(10000);
  const double total =
      static_cast<double>(sim.completed_firings(t1) + sim.completed_firings(t2));
  EXPECT_NEAR(sim.completed_firings(t1) / total, 0.50, 0.03);
}

TEST(SimBasic, SingleServerSerializesFirings) {
  Net net;
  const PlaceId p = net.add_place("P", 3);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, q);
  net.set_firing_time(t, DelaySpec::constant(10));

  Simulator sim(net);
  sim.run_until(5);
  EXPECT_EQ(sim.active_firings(t), 1u);
  sim.run_until(35);
  EXPECT_EQ(sim.marking()[q], 3u);  // completions at 10, 20, 30
}

TEST(SimBasic, InfiniteServerFiresConcurrently) {
  Net net;
  const PlaceId p = net.add_place("P", 3);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, q);
  net.set_firing_time(t, DelaySpec::constant(10));
  net.set_policy(t, FiringPolicy::kInfiniteServer);

  Simulator sim(net);
  sim.run_until(5);
  EXPECT_EQ(sim.active_firings(t), 3u);
  sim.run_until(10);
  EXPECT_EQ(sim.marking()[q], 3u);  // all complete together
}

TEST(SimBasic, DeadlockReported) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_output(t, b);
  net.set_firing_time(t, DelaySpec::constant(1));

  Simulator sim(net);
  const StopReason reason = sim.run_until(100);
  EXPECT_EQ(reason, StopReason::kDeadlock);
  EXPECT_TRUE(sim.deadlocked());
  EXPECT_EQ(sim.marking()[b], 1u);
}

TEST(SimBasic, TimeLimitReported) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(1));

  Simulator sim(net);
  EXPECT_EQ(sim.run_until(50), StopReason::kTimeLimit);
  EXPECT_EQ(sim.now(), 50.0);
  EXPECT_FALSE(sim.deadlocked());
}

TEST(SimBasic, EventLimitReported) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(1));

  Simulator sim(net);
  EXPECT_EQ(sim.run_until(1000, 10), StopReason::kEventLimit);
  EXPECT_LT(sim.now(), 1000.0);
}

TEST(SimBasic, ImmediateLivelockDetected) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("spin");
  net.add_input(t, p);
  net.add_output(t, p);

  SimOptions options;
  options.max_immediate_firings_per_instant = 500;
  // The livelock hits during the constructor's reset.
  EXPECT_THROW(Simulator(net, options), std::runtime_error);
}

TEST(SimBasic, PredicateGatesFiringUntilActionEnablesIt) {
  Net net;
  net.initial_data().set("go", 0);
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const PlaceId trigger = net.add_place("Trigger", 1);

  const TransitionId gated = net.add_transition("gated");
  net.add_input(gated, p);
  net.add_output(gated, q);
  net.set_predicate(gated, expr::compile_predicate("go != 0"));

  const TransitionId enabler = net.add_transition("enabler");
  net.add_input(enabler, trigger);
  net.set_enabling_time(enabler, DelaySpec::constant(3));
  net.set_action(enabler, expr::compile_action("go = 1"));

  Simulator sim(net);
  sim.run_until(2);
  EXPECT_EQ(sim.marking()[q], 0u);
  sim.run_until(3);
  EXPECT_EQ(sim.marking()[q], 1u) << "action at t=3 satisfies the predicate";
  EXPECT_EQ(sim.data().get("go"), 1);
}

TEST(SimBasic, RunUntilIsResumable) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(2));

  Simulator sim(net);
  sim.run_until(10);
  const std::uint64_t at10 = sim.completed_firings(t);
  sim.run_until(20);
  EXPECT_EQ(sim.completed_firings(t), 2 * at10);
}

TEST(SimBasic, ResetRestoresInitialState) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, q);
  net.set_firing_time(t, DelaySpec::constant(1));

  Simulator sim(net);
  sim.run_until(10);
  EXPECT_EQ(sim.marking()[q], 1u);
  sim.reset();
  EXPECT_EQ(sim.marking()[q], 0u);
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.completed_firings(t), 0u);
}

TEST(SimBasic, InvalidNetRejectedAtConstruction) {
  Net net;
  net.add_place("X", 0);
  net.add_place("X", 0);
  EXPECT_THROW(Simulator{net}, std::invalid_argument);
}

TEST(SimBasic, SourceTransitionGeneratesTokens) {
  Net net;
  const PlaceId sink = net.add_place("Sink");
  const TransitionId src = net.add_transition("src");
  net.add_output(src, sink);
  net.set_firing_time(src, DelaySpec::constant(5));

  Simulator sim(net);
  sim.run_until(27);
  // Fires at 0 (completes 5), 5 (10), 10 (15), 15 (20), 20 (25), 25 (30).
  EXPECT_EQ(sim.marking()[sink], 5u);
}

TEST(SimBasic, ActionUpdatesAppearInTrace) {
  Net net;
  net.initial_data().set("count", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.set_action(t, expr::compile_action("count = count + 1"));

  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset();
  sim.finish();

  // Zero-duration firing: one atomic event carrying the action's updates.
  ASSERT_EQ(trace.events().size(), 1u);
  const TraceEvent& fired = trace.events()[0];
  EXPECT_EQ(fired.kind, TraceEvent::Kind::kAtomic);
  ASSERT_EQ(fired.scalar_updates.size(), 1u);
  EXPECT_EQ(fired.scalar_updates[0].name, "count");
  EXPECT_EQ(fired.scalar_updates[0].value, 1);
}

}  // namespace
}  // namespace pnut
