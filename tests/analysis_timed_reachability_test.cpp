// Unit tests for the timed reachability analyzer ([RP84]).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/timed_reachability.h"
#include "cli/cli.h"
#include "expr/compile.h"
#include "pipeline/model.h"
#include "sim/simulator.h"
#include "support/golden_hash.h"

namespace pnut::analysis {
namespace {

/// Marking predicate: named place holds >= n tokens.
auto marked(const Net& net, const char* place, TokenCount n = 1) {
  const PlaceId p = net.place_named(place);
  return [p, n](const Marking& m) { return m[p] >= n; };
}

TEST(TimedReach, EnablingDelayCountsTicks) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_output(t, b);
  net.set_enabling_time(t, DelaySpec::constant(3));

  const TimedReachabilityGraph graph(net);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  // Timer states 3,2,1,0-fires plus the final marking: 5 timed states
  // versus 2 untimed ones.
  EXPECT_EQ(graph.num_states(), 5u);

  const auto bounds = graph.time_bounds(marked(net, "B"));
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->earliest, 3u);
  EXPECT_EQ(bounds->latest, 3u);
}

TEST(TimedReach, FiringDelayHoldsTokensInFlight) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_output(t, b);
  net.set_firing_time(t, DelaySpec::constant(2));

  const TimedReachabilityGraph graph(net);
  const auto bounds = graph.time_bounds(marked(net, "B"));
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->earliest, 2u);
  EXPECT_EQ(bounds->latest, 2u);
  // Some state has the token in neither place.
  bool saw_in_flight = false;
  for (std::size_t s = 0; s < graph.num_states(); ++s) {
    saw_in_flight |= (graph.marking(s)[a] == 0 && graph.marking(s)[b] == 0);
  }
  EXPECT_TRUE(saw_in_flight);
}

TEST(TimedReach, TimingPrunesRaces) {
  // fast (enabling 2) and slow (enabling 5) race for one token: in the
  // timed graph only fast can ever fire — the untimed graph would allow
  // both outcomes.
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId fast_done = net.add_place("FastDone");
  const PlaceId slow_done = net.add_place("SlowDone");
  const TransitionId fast = net.add_transition("fast");
  net.add_input(fast, p);
  net.add_output(fast, fast_done);
  net.set_enabling_time(fast, DelaySpec::constant(2));
  const TransitionId slow = net.add_transition("slow");
  net.add_input(slow, p);
  net.add_output(slow, slow_done);
  net.set_enabling_time(slow, DelaySpec::constant(5));

  const TimedReachabilityGraph graph(net);
  EXPECT_TRUE(graph.time_bounds(marked(net, "FastDone")).has_value());
  EXPECT_FALSE(graph.time_bounds(marked(net, "SlowDone")).has_value())
      << "slow must never win a 2-vs-5 race in the timed semantics";
  for (std::size_t s = 0; s < graph.num_states(); ++s) {
    for (const auto& e : graph.edges(s)) {
      if (e.transition) EXPECT_NE(*e.transition, slow);
    }
  }
}

TEST(TimedReach, TieRaceBranches) {
  // Equal delays: both outcomes are timing-feasible -> branching.
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId a_done = net.add_place("ADone");
  const PlaceId b_done = net.add_place("BDone");
  const TransitionId ta = net.add_transition("ta");
  net.add_input(ta, p);
  net.add_output(ta, a_done);
  net.set_enabling_time(ta, DelaySpec::constant(3));
  const TransitionId tb = net.add_transition("tb");
  net.add_input(tb, p);
  net.add_output(tb, b_done);
  net.set_enabling_time(tb, DelaySpec::constant(3));

  const TimedReachabilityGraph graph(net);
  ASSERT_TRUE(graph.time_bounds(marked(net, "ADone")).has_value());
  ASSERT_TRUE(graph.time_bounds(marked(net, "BDone")).has_value());
  EXPECT_EQ(graph.time_bounds(marked(net, "ADone"))->earliest, 3u);
}

TEST(TimedReach, WorstCaseOverBranches) {
  // Immediate choice: a short path (2 ticks) and a long path (7 ticks) to
  // Done. Worst-case first-hit = 7, best = 2.
  Net net;
  const PlaceId start = net.add_place("Start", 1);
  const PlaceId short_way = net.add_place("ShortWay");
  const PlaceId long_way = net.add_place("LongWay");
  const PlaceId done = net.add_place("Done");
  const TransitionId pick_short = net.add_transition("pick_short");
  net.add_input(pick_short, start);
  net.add_output(pick_short, short_way);
  const TransitionId pick_long = net.add_transition("pick_long");
  net.add_input(pick_long, start);
  net.add_output(pick_long, long_way);
  const TransitionId go_short = net.add_transition("go_short");
  net.add_input(go_short, short_way);
  net.add_output(go_short, done);
  net.set_enabling_time(go_short, DelaySpec::constant(2));
  const TransitionId go_long = net.add_transition("go_long");
  net.add_input(go_long, long_way);
  net.add_output(go_long, done);
  net.set_enabling_time(go_long, DelaySpec::constant(7));

  const TimedReachabilityGraph graph(net);
  const auto bounds = graph.time_bounds(marked(net, "Done"));
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->earliest, 2u);
  EXPECT_EQ(bounds->latest, 7u);
}

TEST(TimedReach, UnboundedWorstCaseWhenAvoidable) {
  // A loop that can spin forever without ever taking the exit.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId out = net.add_place("Out");
  const TransitionId spin1 = net.add_transition("spin1");
  net.add_input(spin1, a);
  net.add_output(spin1, b);
  net.set_enabling_time(spin1, DelaySpec::constant(1));
  const TransitionId spin2 = net.add_transition("spin2");
  net.add_input(spin2, b);
  net.add_output(spin2, a);
  net.set_enabling_time(spin2, DelaySpec::constant(1));
  const TransitionId exit = net.add_transition("exit");
  net.add_input(exit, a);
  net.add_output(exit, out);
  net.set_enabling_time(exit, DelaySpec::constant(1));

  const TimedReachabilityGraph graph(net);
  const auto bounds = graph.time_bounds(marked(net, "Out"));
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->earliest, 1u);
  EXPECT_EQ(bounds->latest, UINT64_MAX);
}

TEST(TimedReach, DeadlockStatesHaveNoEdges) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_output(t, b);
  net.set_enabling_time(t, DelaySpec::constant(2));

  const TimedReachabilityGraph graph(net);
  const auto deadlocks = graph.deadlock_states();
  ASSERT_EQ(deadlocks.size(), 1u);
  EXPECT_EQ(graph.marking(deadlocks[0])[b], 1u);
  EXPECT_EQ(graph.earliest_time(deadlocks[0]), 2u);
}

TEST(TimedReach, MaximalProgressBlocksTicksWhileReady) {
  // An immediate transition is ready at t=0: no tick edge may leave the
  // initial state.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId now = net.add_transition("now");
  net.add_input(now, a);
  net.add_output(now, b);
  const TransitionId later = net.add_transition("later");
  net.add_input(later, a);
  net.add_output(later, b);
  net.set_enabling_time(later, DelaySpec::constant(4));

  const TimedReachabilityGraph graph(net);
  for (const auto& e : graph.edges(0)) {
    EXPECT_TRUE(e.transition.has_value()) << "tick from a state with a ready transition";
    EXPECT_EQ(*e.transition, now);
  }
}

TEST(TimedReach, AgreesWithSimulatorOnDeterministicNet) {
  // Deterministic 3-stage chain: the timed graph's bound equals the
  // simulator's completion time.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C");
  const TransitionId t1 = net.add_transition("t1");
  net.add_input(t1, a);
  net.add_output(t1, b);
  net.set_enabling_time(t1, DelaySpec::constant(3));
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t2, b);
  net.add_output(t2, c);
  net.set_firing_time(t2, DelaySpec::constant(4));

  const TimedReachabilityGraph graph(net);
  const auto bounds = graph.time_bounds(marked(net, "C"));
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->earliest, 7u);
  EXPECT_EQ(bounds->latest, 7u);

  Simulator sim(net);
  sim.run_until(6.5);
  EXPECT_EQ(sim.marking()[c], 0u);
  sim.run_until(7);
  EXPECT_EQ(sim.marking()[c], 1u);
}

TEST(TimedReach, PipelineFirstIssueLatency) {
  // Scaled-down pipeline with integer delays: time to the first completed
  // instruction. Prefetch needs 2 (memory), decode 1, then the class-1
  // execution 1 more; timed analysis pins the first-issue window exactly.
  pipeline::PipelineConfig config;
  config.ibuffer_words = 2;
  config.prefetch_words = 2;
  config.memory_cycles = 2;
  config.ea_calc_cycles = 1;
  config.exec_classes = {{1, 1.0}};
  config.store_probability = 0;  // keep the space small
  const Net net = pipeline::build_full_model(config);

  TimedReachOptions options;
  options.max_states = 200000;
  options.max_time = 200;
  const TimedReachabilityGraph graph(net, options);
  ASSERT_EQ(graph.status(), ReachStatus::kComplete);

  const auto bounds =
      graph.time_bounds(marked(net, pipeline::names::kIssuedInstruction));
  ASSERT_TRUE(bounds.has_value());
  // Prefetch completes at 2, decode at 3; issue is immediate.
  EXPECT_EQ(bounds->earliest, 3u);
  EXPECT_LT(graph.num_states(), 100000u);
}

TEST(TimedReach, RejectsNonIntegerAndInterpretedNets) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(1.5));
  EXPECT_THROW(TimedReachabilityGraph{net}, std::invalid_argument);

  Net net2;
  const PlaceId p2 = net2.add_place("P", 1);
  const TransitionId t2 = net2.add_transition("T");
  net2.add_input(t2, p2);
  net2.add_output(t2, p2);
  net2.set_firing_time(t2, DelaySpec::uniform_int(1, 2));
  EXPECT_THROW(TimedReachabilityGraph{net2}, std::invalid_argument);

  Net net3;
  const PlaceId p3 = net3.add_place("P", 1);
  const TransitionId t3 = net3.add_transition("T");
  net3.add_input(t3, p3);
  net3.add_output(t3, p3);
  net3.set_firing_time(t3, DelaySpec::constant(1));
  net3.set_predicate(t3, expr::compile_predicate("1 > 0"));
  EXPECT_THROW(TimedReachabilityGraph{net3}, std::invalid_argument);
}

TEST(TimedReach, RejectsDelaysThatDoNotFitAState) {
  // A firing delay adds one word per cycle to every timed state; the
  // budget is kMaxTimedStateWords in all (places, timers, slots). The
  // builder checks before allocating anything.
  const auto build = [](Time firing, Time enabling) {
    Net net;
    const PlaceId p = net.add_place("P", 1);
    const TransitionId t = net.add_transition("T");
    net.add_input(t, p);
    net.add_output(t, p);
    net.set_firing_time(t, DelaySpec::constant(firing));
    net.set_enabling_time(t, DelaySpec::constant(enabling));
    return net;
  };
  const auto limit_text = [](const Net& net) {
    TimedReachOptions options;
    options.max_states = 4;
    try {
      const TimedReachabilityGraph graph(net, options);
    } catch (const TimedLimitError& e) {
      return std::string(e.what());
    }
    return std::string("no TimedLimitError");
  };
  const Time widest = static_cast<Time>(kMaxTimedStateWords - 2);  // + P + T's timer
  EXPECT_EQ(limit_text(build(widest, 0)), "no TimedLimitError");
  EXPECT_EQ(limit_text(build(widest + 1, 0)),
            "TimedReachabilityGraph: transition 'T' (firing 65535) makes a timed state "
            "wider than 65536 words");
  EXPECT_EQ(limit_text(build(1e20, 0)),
            "TimedReachabilityGraph: the firing time of transition 'T' is past "
            "4294967295 cycles");
  EXPECT_EQ(limit_text(build(0, 4294967295.0)), "no TimedLimitError");
  EXPECT_EQ(limit_text(build(0, 4294967296.0)),
            "TimedReachabilityGraph: the enabling time of transition 'T' is past "
            "4294967295 cycles");
  EXPECT_EQ(limit_text(build(std::numeric_limits<Time>::infinity(), 0)),
            "TimedReachabilityGraph: the firing time of transition 'T' is past "
            "4294967295 cycles");
}

TEST(TimedReach, EmptyNetIsOneDeadlockedState) {
  // A net with no places and no transitions has zero-width timed states:
  // one state, no edges, a timed deadlock, and no word copy through a
  // null pointer on the way (UBSan's nonnull check on memcpy).
  const TimedReachabilityGraph graph{Net{}};
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), 1u);
  EXPECT_TRUE(graph.edges(0).empty());
  EXPECT_EQ(graph.deadlock_states().size(), 1u);
}

TEST(TimedReach, TruncationAtHorizon) {
  // An endless 1-cycle loop explored with a tiny horizon.
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Counter");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.add_output(t, q);  // unbounded counter distinguishes every state
  net.set_enabling_time(t, DelaySpec::constant(1));

  TimedReachOptions options;
  options.max_time = 5;
  const TimedReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kTruncated);
}

TEST(TimedReach, HorizonTruncationReportsNoPhantomDeadlocks) {
  // Same endless loop: the beyond-horizon frontier leftover is *discovered*
  // but never expanded. Its empty edge row means "unexplored", not "stuck"
  // — the deadlock query must not report it (the net never deadlocks).
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Counter");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.add_output(t, q);
  net.set_enabling_time(t, DelaySpec::constant(1));

  TimedReachOptions options;
  options.max_time = 4;
  const TimedReachabilityGraph graph(net, options);
  ASSERT_EQ(graph.status(), ReachStatus::kTruncated);
  ASSERT_LT(graph.num_expanded(), graph.num_states());
  EXPECT_TRUE(graph.deadlock_states().empty());
  for (const std::size_t s : graph.deadlock_states()) {
    EXPECT_TRUE(graph.state_expanded(s));
  }

  // Worst-case bound to a never-reached marking saturates rather than
  // pretending the truncated region was explored.
  const auto bounds = graph.time_bounds(marked(net, "Counter", 3));
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->earliest, 3u);
  EXPECT_EQ(bounds->latest, 3u);
}

TEST(TimedReach, StateCapTruncationReportsNoPhantomDeadlocks) {
  // A live two-phase loop cut off by max_states: every reported deadlock
  // must be an expanded state (there are none — the loop never sticks).
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("Counter");
  const TransitionId go = net.add_transition("go");
  net.add_input(go, a);
  net.add_output(go, b);
  net.add_output(go, c);
  net.set_enabling_time(go, DelaySpec::constant(2));
  const TransitionId back = net.add_transition("back");
  net.add_input(back, b);
  net.add_output(back, a);
  net.set_firing_time(back, DelaySpec::constant(1));

  TimedReachOptions options;
  options.max_states = 6;
  const TimedReachabilityGraph graph(net, options);
  ASSERT_EQ(graph.status(), ReachStatus::kTruncated);
  ASSERT_LT(graph.num_expanded(), graph.num_states());
  EXPECT_TRUE(graph.deadlock_states().empty());
}

TEST(TimedReach, CompleteGraphStillReportsTrueDeadlocks) {
  // The honesty filter must not hide real deadlocks on complete graphs.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_output(t, b);
  net.set_enabling_time(t, DelaySpec::constant(1));

  const TimedReachabilityGraph graph(net);
  ASSERT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_expanded(), graph.num_states());
  const auto deadlocks = graph.deadlock_states();
  ASSERT_EQ(deadlocks.size(), 1u);
  EXPECT_EQ(graph.marking(deadlocks[0])[b], 1u);
}

// --- successor-kernel edge cases ---------------------------------------------
//
// Pins recorded from the decode/encode successor rule the word kernel
// (analysis/timed_encode.h) replaced: graph fingerprints, error texts and
// exit codes on the paths a kernel shortcut could get wrong.

using test_support::hex_literal;

std::string fingerprint(const TimedReachabilityGraph& graph) {
  return hex_literal(test_support::hash_timed_graph(graph));
}

/// The overflow text the graph throws.
std::string overflow_text(const Net& net) {
  try {
    const TimedReachabilityGraph graph(net);
  } catch (const std::overflow_error& e) {
    return e.what();
  }
  return "no exception";
}

TEST(TimedReachKernel, FiringDepositOverflowNamesTheFirstArcInOrder) {
  // A zero-firing-delay transition deposits at once. Both A and B would
  // overflow; the output arcs list B first, so B (place 2) is named.
  Net net;
  const PlaceId s = net.add_place("S", 1);
  const PlaceId a = net.add_place("A", UINT32_MAX);
  const PlaceId b = net.add_place("B", UINT32_MAX);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, s);
  net.add_output(t, s);
  net.add_output(t, b);
  net.add_output(t, a);
  EXPECT_EQ(overflow_text(net), "Marking::add: token count overflow on place 2");
}

TEST(TimedReachKernel, TickCompletionOverflowDepositsInTransitionOrder) {
  // Two one-cycle firings complete on the same tick. Deposits run in
  // transition order, so t0's output A (place 3) overflows before t1's
  // output B (place 2), though B comes first in place order.
  Net net;
  const PlaceId s1 = net.add_place("S1", 1);
  const PlaceId s2 = net.add_place("S2", 1);
  const PlaceId b = net.add_place("B", UINT32_MAX);
  const PlaceId a = net.add_place("A", UINT32_MAX);
  const TransitionId t0 = net.add_transition("t0");
  net.add_input(t0, s1);
  net.add_output(t0, a);
  net.set_firing_time(t0, DelaySpec::constant(1));
  const TransitionId t1 = net.add_transition("t1");
  net.add_input(t1, s2);
  net.add_output(t1, b);
  net.set_firing_time(t1, DelaySpec::constant(1));
  EXPECT_EQ(overflow_text(net), "Marking::add: token count overflow on place 3");
}

TEST(TimedReachKernel, OverflowIsAnAnalyzeErrorWithItsExitCode) {
  // `pnut analyze` prints the invariant sections, then the untimed
  // reachability build's overflow — A's count would pass UINT32_MAX on the
  // first firing — surfaces as the command's error.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pnut_timed_overflow_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "overflow.pn").string();
  std::ofstream(path) << "net overflow\n"
                         "place S init 1\n"
                         "place A init 4294967295\n"
                         "trans t in S out S, A firing 2\n";
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run({"analyze", path}, out, err);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(code, 2);
  EXPECT_EQ(err.str(), "pnut analyze: Marking::add: token count overflow on place 1\n");
  EXPECT_EQ(out.str(),
            "net: overflow \xE2\x80\x94 2 places, 1 transitions\n\n"
            "place invariants (1):\n"
            "  S = 1\n"
            "  (not all places covered by invariants)\n"
            "transition invariants (0):\n");
}

TEST(TimedReachKernel, SingleServerWaitsForItsOwnFiring) {
  // Two tokens, one single-server transition (enabling 2, firing 3): the
  // second firing waits until the first completes at 5, then re-earns its
  // enabling delay (its timer was held at the full delay while blocked).
  // An infinite-server twin does not wait for the completion, but its one
  // enabling timer restarts on each firing: the second firing starts at 4
  // and completes at 7.
  const auto build = [](FiringPolicy policy) {
    Net net;
    const PlaceId p = net.add_place("P", 2);
    const PlaceId q = net.add_place("Q");
    const TransitionId t = net.add_transition("t");
    net.add_input(t, p);
    net.add_output(t, q);
    net.set_enabling_time(t, DelaySpec::constant(2));
    net.set_firing_time(t, DelaySpec::constant(3));
    net.set_policy(t, policy);
    return net;
  };
  const Net single = build(FiringPolicy::kSingleServer);
  const TimedReachabilityGraph single_graph(single);
  ASSERT_EQ(single_graph.status(), ReachStatus::kComplete);
  const auto single_bounds = single_graph.time_bounds(marked(single, "Q", 2));
  ASSERT_TRUE(single_bounds.has_value());
  EXPECT_EQ(single_bounds->earliest, 10u);
  EXPECT_EQ(single_bounds->latest, 10u);
  EXPECT_EQ(fingerprint(single_graph), hex_literal(0xe28287834bdd3dd2ULL));

  const Net infinite = build(FiringPolicy::kInfiniteServer);
  const TimedReachabilityGraph infinite_graph(infinite);
  const auto infinite_bounds = infinite_graph.time_bounds(marked(infinite, "Q", 2));
  ASSERT_TRUE(infinite_bounds.has_value());
  EXPECT_EQ(infinite_bounds->earliest, 7u);
  EXPECT_EQ(fingerprint(infinite_graph), hex_literal(0xaaff7efe12068e7bULL));
}

TEST(TimedReachKernel, DepositOnAnInhibitorPlaceResetsARunningTimer) {
  // `slow` (enabling 3) is armed at 0 while B is empty. `mover` deposits a
  // token on B, disabling `slow` through its inhibitor arc: its timer must
  // reset, not keep the cycles it had left. `drain` empties B at 3, so
  // `slow` re-arms and fires at 6 (earlier if the timer were kept). The
  // deposit happens in a firing at 1 (firing delay 0) or in a tick's
  // completion at 2 (firing delay 1).
  const auto build = [](std::uint32_t mover_firing) {
    Net net;
    const PlaceId x = net.add_place("X", 1);
    const PlaceId y = net.add_place("Y");
    const PlaceId a = net.add_place("A", 1);
    const PlaceId b = net.add_place("B");
    const TransitionId slow = net.add_transition("slow");
    net.add_input(slow, x);
    net.add_output(slow, y);
    net.add_inhibitor(slow, b);
    net.set_enabling_time(slow, DelaySpec::constant(3));
    const TransitionId mover = net.add_transition("mover");
    net.add_input(mover, a);
    net.add_output(mover, b);
    net.set_enabling_time(mover, DelaySpec::constant(1));
    net.set_firing_time(mover, DelaySpec::constant(mover_firing));
    const TransitionId drain = net.add_transition("drain");
    net.add_input(drain, b);
    net.set_enabling_time(drain, DelaySpec::constant(2 - mover_firing));
    return net;
  };
  const std::pair<std::uint32_t, std::uint64_t> cases[] = {{0, 0x3a7bfb165a71d115ULL},
                                                           {1, 0x1249948513157084ULL}};
  for (const auto& [mover_firing, pinned] : cases) {
    const Net net = build(mover_firing);
    const TimedReachabilityGraph graph(net);
    ASSERT_EQ(graph.status(), ReachStatus::kComplete);
    const auto bounds = graph.time_bounds(marked(net, "Y"));
    ASSERT_TRUE(bounds.has_value());
    EXPECT_EQ(bounds->earliest, 6u) << "mover firing " << mover_firing;
    EXPECT_EQ(bounds->latest, 6u) << "mover firing " << mover_firing;
    EXPECT_EQ(fingerprint(graph), hex_literal(pinned)) << "mover firing " << mover_firing;
  }
}

TEST(TimedReachKernel, ZeroFiringDelayDepositsAtOnce) {
  // Immediate hops A -> B -> C run inside one instant; a delayed hop
  // C -> A (enabling 1) closes the loop, and an inhibitor arc from B
  // blocks `side` while the token passes through. No firing delay means no
  // in-flight words: the state is just marking plus timers.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C");
  const PlaceId d = net.add_place("D");
  const TransitionId ab = net.add_transition("ab");
  net.add_input(ab, a);
  net.add_output(ab, b);
  const TransitionId bc = net.add_transition("bc");
  net.add_input(bc, b);
  net.add_output(bc, c);
  const TransitionId ca = net.add_transition("ca");
  net.add_input(ca, c);
  net.add_output(ca, a);
  net.set_enabling_time(ca, DelaySpec::constant(1));
  const TransitionId side = net.add_transition("side");
  net.add_input(side, c);
  net.add_output(side, d);
  net.add_inhibitor(side, b);
  net.set_enabling_time(side, DelaySpec::constant(1));

  const TimedReachabilityGraph graph(net);
  ASSERT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.state_words(0).size(), 8u);
  const auto bounds = graph.time_bounds(marked(net, "C"));
  ASSERT_TRUE(bounds.has_value());
  EXPECT_EQ(bounds->earliest, 0u);
  EXPECT_EQ(fingerprint(graph), hex_literal(0x61d3aa26926b6722ULL));
}


// --- tick re-tests ------------------------------------------------------------
//
// A tick only adds tokens, so the only transitions it can disable are the
// inhibitor testers of the places its completions deposit into. Pinned on
// the rule that re-tested every transition after every tick.

/// The fingerprint of the net's complete graph.
std::string complete_fingerprint(const Net& net) {
  const TimedReachabilityGraph graph(net);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  return fingerprint(graph);
}

TEST(TimedReachKernel, TwoCompletionsInOneTickFillOneInhibitorPlace) {
  // Two firings complete on the tick to 2, one token each on B. `slow`
  // (enabling 4, inhibited at 2 tokens on B) is armed at 0; only the
  // second deposit disables it, so its timer must be re-tested after the
  // last deposit of the tick. `drain` empties B at 3, and `slow` fires at
  // 7 (at 4 without the reset). The two firings come from two transitions
  // or from one infinite server that fired twice.
  const auto build = [](bool one_transition) {
    Net net;
    const PlaceId s1 = net.add_place("S1", one_transition ? 2 : 1);
    const PlaceId s2 = net.add_place("S2", one_transition ? 0 : 1);
    const PlaceId b = net.add_place("B");
    const PlaceId x = net.add_place("X", 1);
    const PlaceId y = net.add_place("Y");
    const TransitionId t0 = net.add_transition("t0");
    net.add_input(t0, s1);
    net.add_output(t0, b);
    net.set_firing_time(t0, DelaySpec::constant(2));
    if (one_transition) net.set_policy(t0, FiringPolicy::kInfiniteServer);
    const TransitionId t1 = net.add_transition("t1");
    net.add_input(t1, s2);
    net.add_output(t1, b);
    net.set_firing_time(t1, DelaySpec::constant(2));
    const TransitionId slow = net.add_transition("slow");
    net.add_input(slow, x);
    net.add_output(slow, y);
    net.add_inhibitor(slow, b, 2);
    net.set_enabling_time(slow, DelaySpec::constant(4));
    const TransitionId drain = net.add_transition("drain");
    net.add_input(drain, b, 2);
    net.set_enabling_time(drain, DelaySpec::constant(1));
    return net;
  };
  const std::pair<bool, std::uint64_t> cases[] = {{false, 0xd4138d8a9cce8e9aULL},
                                                  {true, 0x08cfa4f4f34bb71dULL}};
  for (const auto& [one_transition, pinned] : cases) {
    const Net net = build(one_transition);
    const TimedReachabilityGraph graph(net);
    const auto bounds = graph.time_bounds(marked(net, "Y"));
    ASSERT_TRUE(bounds.has_value());
    EXPECT_EQ(bounds->earliest, 7u) << "one transition " << one_transition;
    EXPECT_EQ(bounds->latest, 7u) << "one transition " << one_transition;
    EXPECT_EQ(complete_fingerprint(net), hex_literal(pinned))
        << "one transition " << one_transition;
  }
}

TEST(TimedReachKernel, TesterThatLackedTokensArmsWithItsFullDelay) {
  // `user` (enabling 3, inhibited at 2 tokens on B) has no token on A
  // until `feed`'s firing completes at 1. The completion deposits on A
  // and on B: one token on B leaves `user` enabled, armed at 1 with its
  // full delay, and it fires at 4. Two tokens on B keep it disabled until
  // `drain` empties B at 3, and it fires at 6.
  const auto build = [](TokenCount b_weight) {
    Net net;
    const PlaceId s = net.add_place("S", 1);
    const PlaceId a = net.add_place("A");
    const PlaceId b = net.add_place("B");
    const PlaceId y = net.add_place("Y");
    const TransitionId feed = net.add_transition("feed");
    net.add_input(feed, s);
    net.add_output(feed, a);
    net.add_output(feed, b, b_weight);
    net.set_firing_time(feed, DelaySpec::constant(1));
    const TransitionId user = net.add_transition("user");
    net.add_input(user, a);
    net.add_output(user, y);
    net.add_inhibitor(user, b, 2);
    net.set_enabling_time(user, DelaySpec::constant(3));
    const TransitionId drain = net.add_transition("drain");
    net.add_input(drain, b, 2);
    net.set_enabling_time(drain, DelaySpec::constant(2));
    return net;
  };
  const std::tuple<TokenCount, std::uint64_t, std::uint64_t> cases[] = {
      {1, 4, 0xc552cc06b4e738cbULL}, {2, 6, 0x0851893016a5c657ULL}};
  for (const auto& [b_weight, fires_at, pinned] : cases) {
    const Net net = build(b_weight);
    const TimedReachabilityGraph graph(net);
    const auto bounds = graph.time_bounds(marked(net, "Y"));
    ASSERT_TRUE(bounds.has_value());
    EXPECT_EQ(bounds->earliest, fires_at) << "B weight " << b_weight;
    EXPECT_EQ(bounds->latest, fires_at) << "B weight " << b_weight;
    EXPECT_EQ(complete_fingerprint(net), hex_literal(pinned)) << "B weight " << b_weight;
  }
}

TEST(TimedReachKernel, SingleServerTesterWithItsFiringInFlight) {
  // `server` (single server, enabling 1, firing 3, inhibited by B) starts
  // its first firing at 1, in flight until 4. `mover`'s completion puts a
  // token on B while that firing is in flight: at 2, or at 4 on the same
  // tick as `server`'s own completion. `drain` (enabling 3) empties B, and
  // `server` re-arms with its full delay: its second firing starts at 6
  // (or 8) and Q holds two tokens at 9 (or 11).
  const auto build = [](std::uint32_t mover_firing) {
    Net net;
    const PlaceId p = net.add_place("P", 2);
    const PlaceId q = net.add_place("Q");
    const PlaceId m = net.add_place("M", 1);
    const PlaceId b = net.add_place("B");
    const TransitionId server = net.add_transition("server");
    net.add_input(server, p);
    net.add_output(server, q);
    net.add_inhibitor(server, b);
    net.set_enabling_time(server, DelaySpec::constant(1));
    net.set_firing_time(server, DelaySpec::constant(3));
    const TransitionId mover = net.add_transition("mover");
    net.add_input(mover, m);
    net.add_output(mover, b);
    net.set_firing_time(mover, DelaySpec::constant(mover_firing));
    const TransitionId drain = net.add_transition("drain");
    net.add_input(drain, b);
    net.set_enabling_time(drain, DelaySpec::constant(3));
    return net;
  };
  const std::tuple<std::uint32_t, std::uint64_t, std::uint64_t> cases[] = {
      {2, 9, 0x8b3dc00cfad6e60dULL}, {4, 11, 0xbfeffea407874971ULL}};
  for (const auto& [mover_firing, done_at, pinned] : cases) {
    const Net net = build(mover_firing);
    const TimedReachabilityGraph graph(net);
    const auto bounds = graph.time_bounds(marked(net, "Q", 2));
    ASSERT_TRUE(bounds.has_value());
    EXPECT_EQ(bounds->earliest, done_at) << "mover firing " << mover_firing;
    EXPECT_EQ(bounds->latest, done_at) << "mover firing " << mover_firing;
    EXPECT_EQ(complete_fingerprint(net), hex_literal(pinned))
        << "mover firing " << mover_firing;
  }
}

}  // namespace
}  // namespace pnut::analysis
