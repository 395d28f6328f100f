// Tests for the two forms of time (Section 1): firing times vs enabling
// times, continuous-enablement resets, and the paper's claim that "firing
// times can be easily simulated using enabling times but the opposite is
// not true".
#include <gtest/gtest.h>

#include <map>

#include "expr/compile.h"
#include "sim/simulator.h"

namespace pnut {
namespace {

TEST(SimTiming, FiringTimeHoldsTokensInTransit) {
  // "During the firing of a transition tokens are neither on the inputs nor
  // on the outputs."
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_output(t, b);
  net.set_firing_time(t, DelaySpec::constant(4));

  Simulator sim(net);
  sim.run_until(2);
  EXPECT_EQ(sim.marking()[a], 0u);
  EXPECT_EQ(sim.marking()[b], 0u);
  EXPECT_EQ(sim.active_firings(t), 1u);
  sim.run_until(4);
  EXPECT_EQ(sim.marking()[b], 1u);
  EXPECT_EQ(sim.active_firings(t), 0u);
}

TEST(SimTiming, EnablingTimeLeavesTokensUntilAtomicFiring) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_output(t, b);
  net.set_enabling_time(t, DelaySpec::constant(4));

  Simulator sim(net);
  sim.run_until(3);
  EXPECT_EQ(sim.marking()[a], 1u) << "input tokens stay in place during the enabling delay";
  EXPECT_EQ(sim.marking()[b], 0u);
  EXPECT_EQ(sim.active_firings(t), 0u);
  sim.run_until(4);
  EXPECT_EQ(sim.marking()[a], 0u);
  EXPECT_EQ(sim.marking()[b], 1u);
}

TEST(SimTiming, DisablementResetsEnablingTimer) {
  // T needs {A, G} continuously for 5. A thief consumes G at t=2 and never
  // returns it: T must never fire.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId g = net.add_place("G", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_input(t, g);
  net.add_output(t, b);
  net.set_enabling_time(t, DelaySpec::constant(5));
  const TransitionId thief = net.add_transition("thief");
  net.add_input(thief, g);
  net.add_output(thief, c);
  net.set_enabling_time(thief, DelaySpec::constant(2));

  Simulator sim(net);
  const StopReason reason = sim.run_until(100);
  EXPECT_EQ(reason, StopReason::kDeadlock);
  EXPECT_EQ(sim.marking()[b], 0u);
  EXPECT_EQ(sim.marking()[c], 1u);
}

TEST(SimTiming, TimerRestartsAfterReEnablement) {
  // Same as above but the (one-shot) thief returns the guard token at t=3;
  // T's 5-cycle window then runs 3..8, so B appears at 8, not 5.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId g = net.add_place("G", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C");
  const PlaceId once = net.add_place("Once", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_input(t, g);
  net.add_output(t, b);
  net.set_enabling_time(t, DelaySpec::constant(5));
  const TransitionId thief = net.add_transition("thief");
  net.add_input(thief, g);
  net.add_input(thief, once);
  net.add_output(thief, c);
  net.set_enabling_time(thief, DelaySpec::constant(2));
  const TransitionId restore = net.add_transition("restore");
  net.add_input(restore, c);
  net.add_output(restore, g);
  net.set_enabling_time(restore, DelaySpec::constant(1));

  Simulator sim(net);
  sim.run_until(7.5);
  EXPECT_EQ(sim.marking()[b], 0u) << "old partial enablement must not count";
  sim.run_until(8);
  EXPECT_EQ(sim.marking()[b], 1u);
}

TEST(SimTiming, CombinedEnablingThenFiring) {
  // enabling 3 to start, firing 2 to complete: consume at 3, produce at 5.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_output(t, b);
  net.set_enabling_time(t, DelaySpec::constant(3));
  net.set_firing_time(t, DelaySpec::constant(2));

  Simulator sim(net);
  sim.run_until(2.5);
  EXPECT_EQ(sim.marking()[a], 1u);
  sim.run_until(3);
  EXPECT_EQ(sim.marking()[a], 0u);
  EXPECT_EQ(sim.marking()[b], 0u);
  EXPECT_EQ(sim.active_firings(t), 1u);
  sim.run_until(5);
  EXPECT_EQ(sim.marking()[b], 1u);
}

TEST(SimTiming, FiringTimeSimulatedByEnablingTime) {
  // The paper: a firing time f on T is equivalent to an immediate start
  // transition moving the token to a hidden place followed by an end
  // transition with enabling time f. Compare a 3-cycle ring both ways.
  Net direct;
  {
    const PlaceId p = direct.add_place("P", 1);
    const TransitionId t = direct.add_transition("T");
    direct.add_input(t, p);
    direct.add_output(t, p);
    direct.set_firing_time(t, DelaySpec::constant(3));
  }
  Net split;
  {
    const PlaceId p = split.add_place("P", 1);
    const PlaceId hidden = split.add_place("Hidden");
    const TransitionId start = split.add_transition("T_start");
    split.add_input(start, p);
    split.add_output(start, hidden);
    const TransitionId end = split.add_transition("T_end");
    split.add_input(end, hidden);
    split.add_output(end, p);
    split.set_enabling_time(end, DelaySpec::constant(3));
  }

  Simulator sim_direct(direct);
  Simulator sim_split(split);
  sim_direct.run_until(300);
  sim_split.run_until(300);
  EXPECT_EQ(sim_direct.completed_firings(direct.transition_named("T")),
            sim_split.completed_firings(split.transition_named("T_end")));
  // 100 cycles of period 3 each.
  EXPECT_EQ(sim_direct.completed_firings(direct.transition_named("T")), 100u);
}

TEST(SimTiming, EnablingTimeNotSimulableByFiringTimeUnderPreemption) {
  // The asymmetry the paper points out ("the opposite is not true"):
  // an enabling-time transition can be preempted and leaves its tokens
  // available; a firing-time encoding grabs the token and cannot be
  // preempted. A high-priority competitor arriving at t=2 steals the token
  // from the enabling-time transition but not from the firing-time one.
  auto build = [](bool use_enabling) {
    Net net;
    const PlaceId p = net.add_place("P", 1);
    const PlaceId late = net.add_place("LateArm", 1);
    const PlaceId slow_done = net.add_place("SlowDone");
    const PlaceId fast_done = net.add_place("FastDone");

    const TransitionId slow = net.add_transition("slow");
    net.add_input(slow, p);
    net.add_output(slow, slow_done);
    if (use_enabling) {
      net.set_enabling_time(slow, DelaySpec::constant(5));
    } else {
      net.set_firing_time(slow, DelaySpec::constant(5));
    }

    // Arms at t=2, then grabs P instantly if still there.
    const TransitionId arm = net.add_transition("arm");
    net.add_input(arm, late);
    const PlaceId armed = net.add_place("Armed");
    net.add_output(arm, armed);
    net.set_enabling_time(arm, DelaySpec::constant(2));
    const TransitionId fast = net.add_transition("fast");
    net.add_input(fast, armed);
    net.add_input(fast, p);
    net.add_output(fast, fast_done);
    return net;
  };

  Net enabling_net = build(true);
  Simulator sim_e(enabling_net);
  sim_e.run_until(100);
  EXPECT_EQ(sim_e.marking()[enabling_net.place_named("FastDone")], 1u)
      << "enabling-time transition is preempted at t=2";
  EXPECT_EQ(sim_e.marking()[enabling_net.place_named("SlowDone")], 0u);

  Net firing_net = build(false);
  Simulator sim_f(firing_net);
  sim_f.run_until(100);
  EXPECT_EQ(sim_f.marking()[firing_net.place_named("SlowDone")], 1u)
      << "firing-time transition committed at t=0 and cannot be preempted";
  EXPECT_EQ(sim_f.marking()[firing_net.place_named("FastDone")], 0u);
}

TEST(SimTiming, UniformDelayStaysInBounds) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::uniform_int(2, 4));

  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(5);
  sim.run_until(1000);
  sim.finish();

  // Check every start/end gap is in [2, 4].
  std::map<std::uint64_t, Time> starts;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind == TraceEvent::Kind::kStart) {
      starts[ev.firing_id] = ev.time;
    } else {
      const Time gap = ev.time - starts.at(ev.firing_id);
      ASSERT_GE(gap, 2.0);
      ASSERT_LE(gap, 4.0);
    }
  }
}

TEST(SimTiming, ComputedDelayFollowsData) {
  Net net;
  net.initial_data().set("d", 7);
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, q);
  net.set_firing_time(t, expr::compile_delay("d"));

  Simulator sim(net);
  sim.run_until(6.5);
  EXPECT_EQ(sim.marking()[q], 0u);
  sim.run_until(7);
  EXPECT_EQ(sim.marking()[q], 1u);
}

TEST(SimTiming, NegativeComputedDelayClampsToZero) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, q);
  net.set_firing_time(t, expr::compile_delay("0 - 3"));

  // A zero-duration firing: consumed and produced in one atomic event.
  Simulator sim(net);
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.marking()[q], 1u);
}

TEST(SimTiming, ZeroEnablingDelaySampledActsImmediate) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, q);
  net.set_enabling_time(t, DelaySpec::uniform_int(0, 0));

  Simulator sim(net);
  EXPECT_EQ(sim.marking()[q], 1u);
}

}  // namespace
}  // namespace pnut
