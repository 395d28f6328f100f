// Determinism and trace-consistency tests: a run is a pure function of
// (net, seed, horizon), and the trace faithfully reconstructs the run.
#include <gtest/gtest.h>

#include <map>

#include "expr/compile.h"
#include "sim/simulator.h"
#include "trace/trace_text.h"

namespace pnut {
namespace {

/// A small stochastic net exercising all delay kinds and conflicts.
Net stochastic_net() {
  Net net("stochastic");
  const PlaceId p = net.add_place("P", 2);
  const PlaceId q = net.add_place("Q");
  const TransitionId fast = net.add_transition("fast");
  net.add_input(fast, p);
  net.add_output(fast, q);
  net.set_firing_time(fast, DelaySpec::uniform_int(1, 3));
  net.set_frequency(fast, 3);
  const TransitionId slow = net.add_transition("slow");
  net.add_input(slow, p);
  net.add_output(slow, q);
  net.set_firing_time(slow, DelaySpec::discrete({{2, 0.5}, {7, 0.5}}));
  const TransitionId recycle = net.add_transition("recycle");
  net.add_input(recycle, q);
  net.add_output(recycle, p);
  net.set_enabling_time(recycle, DelaySpec::constant(1));
  return net;
}

RecordedTrace run_seeded(const Net& net, std::uint64_t seed, Time horizon) {
  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(seed);
  sim.run_until(horizon);
  sim.finish();
  return trace;
}

TEST(SimDeterminism, SameSeedIdenticalTrace) {
  const Net net = stochastic_net();
  const RecordedTrace a = run_seeded(net, 42, 500);
  const RecordedTrace b = run_seeded(net, 42, 500);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_EQ(a, b);
}

TEST(SimDeterminism, DifferentSeedsDifferentTraces) {
  const Net net = stochastic_net();
  const RecordedTrace a = run_seeded(net, 1, 500);
  const RecordedTrace b = run_seeded(net, 2, 500);
  EXPECT_NE(a, b);
}

TEST(SimDeterminism, ReusedSimulatorReproducesAfterReset) {
  const Net net = stochastic_net();
  RecordedTrace first;
  RecordedTrace second;
  Simulator sim(net);
  sim.set_sink(&first);
  sim.reset(9);
  sim.run_until(300);
  sim.finish();
  sim.set_sink(&second);
  sim.reset(9);
  sim.run_until(300);
  sim.finish();
  EXPECT_EQ(first, second);
}

TEST(SimDeterminism, CursorReplayMatchesLiveState) {
  const Net net = stochastic_net();
  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(123);
  sim.run_until(400);
  sim.finish();

  TraceCursor cursor(trace);
  while (!cursor.at_end()) cursor.step();
  EXPECT_EQ(cursor.marking(), sim.marking());
  EXPECT_EQ(cursor.data(), sim.data());
  for (std::uint32_t i = 0; i < net.num_transitions(); ++i) {
    EXPECT_EQ(cursor.active_firings(TransitionId(i)), sim.active_firings(TransitionId(i)));
  }
}

TEST(SimDeterminism, EventsAreTimeOrderedWithPairedFirings) {
  const Net net = stochastic_net();
  const RecordedTrace trace = run_seeded(net, 77, 1000);
  Time last = 0;
  std::map<std::uint64_t, Time> open;
  for (const TraceEvent& ev : trace.events()) {
    ASSERT_GE(ev.time, last);
    last = ev.time;
    if (ev.kind == TraceEvent::Kind::kAtomic) {
      continue;  // self-contained, no pairing
    }
    if (ev.kind == TraceEvent::Kind::kStart) {
      ASSERT_TRUE(open.emplace(ev.firing_id, ev.time).second)
          << "firing id reused while open";
    } else {
      auto it = open.find(ev.firing_id);
      ASSERT_NE(it, open.end()) << "End without Start";
      ASSERT_GE(ev.time, it->second);
      open.erase(it);
    }
  }
  // Only in-flight firings may remain open at the horizon.
  TraceCursor cursor(trace);
  while (!cursor.at_end()) cursor.step();
  std::uint64_t in_flight = 0;
  for (std::uint32_t i = 0; i < net.num_transitions(); ++i) {
    in_flight += cursor.active_firings(TransitionId(i));
  }
  EXPECT_EQ(open.size(), in_flight);
}

TEST(SimDeterminism, TextRoundTripPreservesTrace) {
  const Net net = stochastic_net();
  const RecordedTrace trace = run_seeded(net, 55, 500);
  const std::string text = write_trace_text(trace);
  const RecordedTrace parsed = read_trace_text(text);
  EXPECT_EQ(parsed, trace);
}

TEST(SimDeterminism, InterpretedRunIsDeterministic) {
  Net net("interp");
  net.initial_data().set("x", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(1));
  net.set_action(t, expr::compile_action("x = irand[0, 1000]"));

  const RecordedTrace a = run_seeded(net, 31337, 200);
  const RecordedTrace b = run_seeded(net, 31337, 200);
  EXPECT_EQ(a, b);

  TraceCursor cursor(a);
  while (!cursor.at_end()) cursor.step();
  EXPECT_TRUE(cursor.data().has("x"));
}

}  // namespace
}  // namespace pnut
