// Differential harness for parallel state-space exploration.
//
// The parallel engine's contract is not "isomorphic graph" but *the same
// graph*: for any thread count, state ids, edge lists (order included),
// deadlock sets, place bounds, status and the per-state arena words must be
// byte-identical to the sequential builder's. This file pins that on the
// paper's golden models, on rings with real multi-level frontiers, on
// limit-hitting (truncated / unbounded) explorations, and on a population
// of randomized nets from tests/support/net_fuzz.h — plain, inhibitor-
// heavy, and interpreted (predicates, deterministic and irand actions,
// table writes, runtime-created variables).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "../bench/reach_models.h"
#include "analysis/reachability.h"
#include "expr/compile.h"
#include "pipeline/interpreted.h"
#include "pipeline/model.h"
#include "support/net_fuzz.h"

namespace pnut::analysis {
namespace {

constexpr unsigned kThreadCounts[] = {2, 4, 8};

/// Full byte-level comparison of two reachability graphs.
void expect_identical(const ReachabilityGraph& seq, const ReachabilityGraph& par,
                      const Net& net, const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(par.status(), seq.status());
  ASSERT_EQ(par.num_states(), seq.num_states());
  ASSERT_EQ(par.num_edges(), seq.num_edges());

  for (std::size_t s = 0; s < seq.num_states(); ++s) {
    // State words: same tokens in the same canonical slot.
    const auto seq_tokens = seq.tokens(s);
    const auto par_tokens = par.tokens(s);
    ASSERT_TRUE(std::equal(seq_tokens.begin(), seq_tokens.end(), par_tokens.begin(),
                           par_tokens.end()))
        << "state " << s << " tokens differ";
    // Edge rows: same transitions to the same targets in the same order.
    const auto seq_edges = seq.edges(s);
    const auto par_edges = par.edges(s);
    ASSERT_EQ(seq_edges.size(), par_edges.size()) << "state " << s;
    for (std::size_t e = 0; e < seq_edges.size(); ++e) {
      ASSERT_EQ(par_edges[e].transition, seq_edges[e].transition)
          << "state " << s << " edge " << e;
      ASSERT_EQ(par_edges[e].target, seq_edges[e].target)
          << "state " << s << " edge " << e;
    }
  }

  EXPECT_EQ(par.deadlock_states(), seq.deadlock_states());
  EXPECT_EQ(par.dead_transitions(), seq.dead_transitions());
  for (std::uint32_t p = 0; p < net.num_places(); ++p) {
    EXPECT_EQ(par.place_bound(PlaceId(p)), seq.place_bound(PlaceId(p))) << "place " << p;
  }
  // Interpreted nets: per-state variables must live on the same states.
  for (std::size_t s = 0; s < seq.num_states(); s += 7) {
    EXPECT_EQ(par.variable(s, "x"), seq.variable(s, "x")) << "state " << s;
  }
}

void expect_parallel_matches(const Net& net, const std::string& label,
                             ReachOptions options = {}) {
  options.threads = 1;
  const ReachabilityGraph seq(net, options);
  for (const unsigned threads : kThreadCounts) {
    options.threads = threads;
    const ReachabilityGraph par(net, options);
    expect_identical(seq, par, net, label + " @" + std::to_string(threads) + " threads");
  }
}

// --- golden models -----------------------------------------------------------

TEST(ParallelEquivalence, Figure1Prefetch) {
  expect_parallel_matches(pipeline::build_prefetch_model(), "fig1");
}

TEST(ParallelEquivalence, Figure4InterpretedPipeline) {
  // Interpreted: predicates, irand actions, per-state data snapshots.
  expect_parallel_matches(pipeline::build_interpreted_pipeline(), "fig4");
}

TEST(ParallelEquivalence, FullPipelineModel) {
  expect_parallel_matches(pipeline::build_full_model(), "full");
}

TEST(ParallelEquivalence, GoldenCountsAtEveryThreadCount) {
  // The frozen pre-refactor goldens hold for the parallel path too.
  for (const unsigned threads : kThreadCounts) {
    ReachOptions options;
    options.max_states = 1'000'000;
    options.threads = threads;
    const ReachabilityGraph graph(pipeline::build_full_model(), options);
    EXPECT_EQ(graph.status(), ReachStatus::kComplete);
    EXPECT_EQ(graph.num_states(), reach_models::kFullModel.states);
    EXPECT_EQ(graph.num_edges(), reach_models::kFullModel.edges);
    EXPECT_EQ(graph.deadlock_states().size(), reach_models::kFullModel.deadlocks);
  }
}

// --- multi-level frontiers ---------------------------------------------------

TEST(ParallelEquivalence, TokenRingManyLevels) {
  // C(15, 4) = 1365 states over ~45 BFS levels: plenty of expand/seal
  // round-trips with non-trivial level widths.
  expect_parallel_matches(reach_models::stress_ring(12, 4), "ring 12x4");
}

#ifdef NDEBUG
TEST(ParallelEquivalence, MediumRingFullWidth) {
  // C(20, 5) = 15504 states; optimized builds only.
  expect_parallel_matches(reach_models::stress_ring(16, 5), "ring 16x5");
}
#endif

// --- sequential stop rules ---------------------------------------------------

TEST(ParallelEquivalence, TruncationPointIsThreadCountIndependent) {
  // max_states hits mid-level: the parallel builder must truncate at the
  // exact discovery the sequential one stops at, keeping the same prefix.
  const Net net = reach_models::stress_ring(10, 3);
  for (const std::size_t cap : {5u, 37u, 100u}) {
    ReachOptions options;
    options.max_states = cap;
    expect_parallel_matches(net, "truncated cap=" + std::to_string(cap), options);
  }
}

TEST(ParallelEquivalence, UnboundedDetectionIsThreadCountIndependent) {
  // A token pump: t consumes from p, refills p and grows q without bound.
  Net net("pump");
  const PlaceId p = net.add_place("p", 1);
  const PlaceId q = net.add_place("q");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.add_output(t, q, 2);
  ReachOptions options;
  options.place_bound = 64;
  options.threads = 1;
  const ReachabilityGraph seq(net, options);
  ASSERT_EQ(seq.status(), ReachStatus::kUnbounded);
  expect_parallel_matches(net, "unbounded pump", options);
}

// --- throwing model callbacks ------------------------------------------------

/// src branches to a pump side (grows q past any bound) and a boom side
/// whose callback throws when its state is expanded. Both land in BFS
/// level 1; the pump parent is canonically first.
Net stop_vs_throw_net(bool throw_in_predicate) {
  Net net("stop_vs_throw");
  const PlaceId src = net.add_place("src", 1);
  const PlaceId pump_p = net.add_place("pp");
  const PlaceId q = net.add_place("q");
  const PlaceId boom_p = net.add_place("bp");
  const TransitionId to_pump = net.add_transition("to_pump");
  net.add_input(to_pump, src);
  net.add_output(to_pump, pump_p);
  const TransitionId to_boom = net.add_transition("to_boom");
  net.add_input(to_boom, src);
  net.add_output(to_boom, boom_p);
  const TransitionId pump = net.add_transition("pump");
  net.add_input(pump, pump_p);
  net.add_output(pump, pump_p);
  net.add_output(pump, q, 100);
  const TransitionId boom = net.add_transition("boom");
  net.add_input(boom, boom_p);
  net.add_output(boom, boom_p);
  // Division by zero raises EvalError (a std::runtime_error).
  if (throw_in_predicate) {
    // Predicates leave net_has_actions() false: marking-only states.
    net.set_predicate(boom, expr::compile_predicate("1 / 0 > 0"));
  } else {
    // Actions track data: states carry encoded data words.
    net.set_action(boom, expr::compile_action("x = 1 / 0"));
  }
  return net;
}

TEST(ParallelEquivalence, StopRuleBeatsThrowingCallbackInSameLevel) {
  // The sequential builder hits the pump's unbounded stop at the
  // canonically-earlier parent and never expands the boom state; the
  // parallel builder expands the whole level (the throw happens on a
  // worker) but must suppress the parked exception because the seal stops
  // first — identical graphs, no throw, with and without data words.
  for (const bool predicate : {true, false}) {
    const Net net = stop_vs_throw_net(predicate);
    ReachOptions options;
    options.place_bound = 50;
    options.threads = 1;
    const ReachabilityGraph seq(net, options);
    ASSERT_EQ(seq.status(), ReachStatus::kUnbounded);
    expect_parallel_matches(net, predicate ? "stop vs throwing predicate"
                                           : "stop vs throwing action",
                            options);
  }
}

TEST(ParallelEquivalence, UnsuppressedCallbackThrowPropagates) {
  // Without the pump stop the sequential builder reaches the boom state
  // and throws — the parallel builder must surface the same failure.
  for (const bool predicate : {true, false}) {
    Net net = stop_vs_throw_net(predicate);
    // Disarm the pump so no stop rule fires before the boom parent.
    net.set_predicate(net.transition_named("pump"), expr::compile_predicate("0 > 1"));
    for (const unsigned threads : {1u, 2u, 4u}) {
      ReachOptions options;
      options.threads = threads;
      EXPECT_THROW(ReachabilityGraph(net, options), std::runtime_error)
          << (predicate ? "predicate" : "action") << " @" << threads;
    }
  }
}

// --- token-count overflow ----------------------------------------------------

/// stop_vs_throw_net's shape with a token-count overflow as the failure:
/// the boom side deposits UINT32_MAX tokens on a place already holding one.
Net stop_vs_overflow_net() {
  Net net("stop_vs_overflow");
  const PlaceId src = net.add_place("src", 1);
  const PlaceId pump_p = net.add_place("pp");
  const PlaceId q = net.add_place("q");
  const PlaceId boom_p = net.add_place("bp");
  const PlaceId big = net.add_place("big", 1);
  const TransitionId to_pump = net.add_transition("to_pump");
  net.add_input(to_pump, src);
  net.add_output(to_pump, pump_p);
  const TransitionId to_boom = net.add_transition("to_boom");
  net.add_input(to_boom, src);
  net.add_output(to_boom, boom_p);
  const TransitionId pump = net.add_transition("pump");
  net.add_input(pump, pump_p);
  net.add_output(pump, pump_p);
  net.add_output(pump, q, 100);
  const TransitionId boom = net.add_transition("boom");
  net.add_input(boom, boom_p);
  net.add_output(boom, boom_p);
  net.add_output(boom, big, std::numeric_limits<TokenCount>::max());
  return net;
}

std::string overflow_message(const Net& net, unsigned threads) {
  ReachOptions options;
  options.threads = threads;
  try {
    const ReachabilityGraph graph(net, options);
  } catch (const std::overflow_error& e) {
    return e.what();
  }
  return "no overflow";
}

TEST(ParallelEquivalence, TokenOverflowIsThreadCountIndependent) {
  // A deposit past UINT32_MAX raises instead of wrapping, at one thread
  // and at four.
  Net net = stop_vs_overflow_net();
  net.set_predicate(net.transition_named("pump"), expr::compile_predicate("0 > 1"));
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_EQ(overflow_message(net, threads),
              "Marking::add: token count overflow on place 4")
        << threads << " threads";
  }
}

TEST(ParallelEquivalence, StopRuleBeatsTokenOverflowInSameLevel) {
  // The pump's unbounded stop fires at the canonically-earlier parent, so
  // the overflow a parallel worker hits expanding the boom state is never
  // surfaced — the same graph as sequentially, no throw.
  const Net net = stop_vs_overflow_net();
  ReachOptions options;
  options.place_bound = 50;
  options.threads = 1;
  const ReachabilityGraph seq(net, options);
  ASSERT_EQ(seq.status(), ReachStatus::kUnbounded);
  expect_parallel_matches(net, "stop vs token overflow", options);
}

// --- randomized nets ---------------------------------------------------------

TEST(ParallelEquivalence, FuzzedPlainNets) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_parallel_matches(test_support::fuzz_net(seed),
                            "plain fuzz seed=" + std::to_string(seed));
  }
}

TEST(ParallelEquivalence, FuzzedInhibitorHeavyNets) {
  test_support::FuzzOptions fuzz;
  fuzz.inhibitor_pct = 80;
  fuzz.max_initial_total = 10;
  for (std::uint64_t seed = 101; seed <= 115; ++seed) {
    expect_parallel_matches(test_support::fuzz_net(seed, fuzz),
                            "inhibitor fuzz seed=" + std::to_string(seed));
  }
}

TEST(ParallelEquivalence, FuzzedInterpretedNets) {
  // Predicates, counter actions, irand actions, table writes and
  // runtime-created variables, all as bytecode.
  test_support::FuzzOptions fuzz;
  fuzz.interpreted = true;
  for (std::uint64_t seed = 201; seed <= 220; ++seed) {
    expect_parallel_matches(test_support::fuzz_net(seed, fuzz),
                            "interpreted fuzz seed=" + std::to_string(seed));
  }
}

TEST(ParallelEquivalence, FuzzedTruncatedNets) {
  // Tiny caps over random nets: stop-rule equivalence is fuzzed too.
  for (std::uint64_t seed = 301; seed <= 310; ++seed) {
    ReachOptions options;
    options.max_states = 10 + seed % 17;
    expect_parallel_matches(test_support::fuzz_net(seed),
                            "truncated fuzz seed=" + std::to_string(seed), options);
  }
}

}  // namespace
}  // namespace pnut::analysis
