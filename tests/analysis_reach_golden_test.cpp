// Frozen goldens for untimed reachability.
//
// Every graph here — the paper's golden models, rings with many BFS levels,
// limit-hitting (truncated / unbounded) explorations, a stop that beats a
// token-count overflow, and four populations of randomized nets from
// tests/support/net_fuzz.h (plain, inhibitor-heavy, interpreted and
// truncated) — is built once and pinned to a hash_graph fingerprint
// (tests/support/golden_hash.h) recorded when a level-parallel builder still
// ran beside the sequential one and the two were pinned byte-identical at
// 1, 2, 4 and 8 threads. The fingerprint covers status, sizes, expanded
// prefix, deadlocks and, per state, tokens, edge row, named variables and
// transition activity. Where a count golden is known, it is checked on the
// same build.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "../bench/reach_models.h"
#include "analysis/reachability.h"
#include "expr/compile.h"
#include "pipeline/interpreted.h"
#include "pipeline/model.h"
#include "support/golden_hash.h"
#include "support/net_fuzz.h"

namespace pnut::analysis {
namespace {

using test_support::hex_literal;

const std::vector<std::string> kPipelineScalars = {
    "type", "number_of_operands_needed", "extra_words_needed",
    "exec_cycles_current", "store_needed", "max_type"};
const std::vector<std::string> kFuzzScalars = {"x", "late"};

std::uint64_t fingerprint(const ReachabilityGraph& graph, const Net& net,
                          const std::vector<std::string>& scalars = {}) {
  return test_support::hash_graph(graph, scalars, net.num_transitions());
}

/// Build `net` once and check it against its recorded fingerprint.
void expect_pinned(const Net& net, std::uint64_t pinned, const std::string& label,
                   const ReachOptions& options = {},
                   const std::vector<std::string>& scalars = {}) {
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(hex_literal(fingerprint(graph, net, scalars)), hex_literal(pinned)) << label;
}

/// Folds a population's per-graph fingerprints into one pin.
class PopulationPin {
 public:
  void add(const Net& net, const ReachOptions& options = {},
           const std::vector<std::string>& scalars = {}) {
    const ReachabilityGraph graph(net, options);
    f_.u64(fingerprint(graph, net, scalars));
  }
  void expect(std::uint64_t pinned, const std::string& label) const {
    EXPECT_EQ(hex_literal(f_.value()), hex_literal(pinned)) << label;
  }

 private:
  test_support::Fingerprint f_;
};

// --- golden models -----------------------------------------------------------

TEST(ReachGolden, Figure1Prefetch) {
  expect_pinned(pipeline::build_prefetch_model(), 0x8759a1a87147a766ULL, "fig1");
}

TEST(ReachGolden, Figure4InterpretedPipeline) {
  // Interpreted: predicates, irand actions, per-state data words.
  const Net net = pipeline::build_interpreted_pipeline();
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(hex_literal(fingerprint(graph, net, kPipelineScalars)),
            hex_literal(0x29a6f12272533ac7ULL));
}

TEST(ReachGolden, FullPipelineModel) {
  // The fingerprint and the frozen pre-StateStore count goldens, on one
  // build.
  const Net net = pipeline::build_full_model();
  ReachOptions options;
  options.max_states = 1'000'000;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), reach_models::kFullModel.states);
  EXPECT_EQ(graph.num_edges(), reach_models::kFullModel.edges);
  EXPECT_EQ(graph.deadlock_states().size(), reach_models::kFullModel.deadlocks);
  EXPECT_EQ(hex_literal(fingerprint(graph, net)), hex_literal(0x8f72f6bf7d435b5cULL));
}

// --- multi-level frontiers ---------------------------------------------------

TEST(ReachGolden, TokenRingManyLevels) {
  // C(15, 4) = 1365 states over ~45 BFS levels.
  const Net net = reach_models::stress_ring(12, 4);
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), 1365u);
  EXPECT_EQ(hex_literal(fingerprint(graph, net)), hex_literal(0x59a44ffbe380b290ULL));
}

#ifdef NDEBUG
TEST(ReachGolden, MediumRing) {
  // C(20, 5) = 15504 states; optimized builds only.
  const Net net = reach_models::stress_ring(16, 5);
  const ReachabilityGraph graph(net);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), 15504u);
  EXPECT_EQ(hex_literal(fingerprint(graph, net)), hex_literal(0x1bb9c06f537a2015ULL));
}
#endif

// --- stop rules --------------------------------------------------------------

TEST(ReachGolden, TruncationPoints) {
  // max_states hits mid-level: the prefix up to the discovery that hit the
  // cap is pinned.
  const Net net = reach_models::stress_ring(10, 3);
  const std::pair<std::size_t, std::uint64_t> pins[] = {
      {5, 0xfae7cf18ead8c3a6ULL}, {37, 0xc6cadc78371b5928ULL}, {100, 0x5b685e0f86282cc4ULL}};
  for (const auto& [cap, pinned] : pins) {
    ReachOptions options;
    options.max_states = cap;
    const ReachabilityGraph graph(net, options);
    EXPECT_EQ(graph.status(), ReachStatus::kTruncated) << cap;
    EXPECT_EQ(graph.num_states(), cap + 1) << cap;
    EXPECT_EQ(hex_literal(fingerprint(graph, net)), hex_literal(pinned)) << "cap=" << cap;
  }
}

TEST(ReachGolden, UnboundedPump) {
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
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kUnbounded);
  EXPECT_EQ(hex_literal(fingerprint(graph, net)), hex_literal(0x0362611eb1fa41a6ULL));
}

// --- failures ----------------------------------------------------------------

/// src branches to a pump side (grows q past any bound) and a boom side
/// whose expansion fails: a throwing predicate or action, or a deposit of
/// UINT32_MAX tokens on a place already holding one. Both land in BFS
/// level 1; the pump parent is first.
enum class Boom : std::uint8_t { kPredicate, kAction, kOverflow };

Net pump_vs_boom_net(Boom boom_kind) {
  Net net("pump_vs_boom");
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
  switch (boom_kind) {
    case Boom::kPredicate:
      // Division by zero raises EvalError (a std::runtime_error).
      net.set_predicate(boom, expr::compile_predicate("1 / 0 > 0"));
      break;
    case Boom::kAction:
      net.set_action(boom, expr::compile_action("x = 1 / 0"));
      break;
    case Boom::kOverflow:
      net.add_output(boom, net.add_place("big", 1), std::numeric_limits<TokenCount>::max());
      break;
  }
  return net;
}

TEST(ReachGolden, UnboundedStopBeforeTokenOverflow) {
  // The pump's unbounded stop fires at the earlier parent, so the boom
  // state is never expanded and its overflow never raised.
  const Net net = pump_vs_boom_net(Boom::kOverflow);
  ReachOptions options;
  options.place_bound = 50;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kUnbounded);
  EXPECT_EQ(hex_literal(fingerprint(graph, net)), hex_literal(0x908313bbd92b6687ULL));
}

TEST(ReachGolden, CallbackThrowPropagates) {
  // With the pump disarmed, the builder reaches the boom state and throws.
  for (const Boom boom : {Boom::kPredicate, Boom::kAction}) {
    Net net = pump_vs_boom_net(boom);
    net.set_predicate(net.transition_named("pump"), expr::compile_predicate("0 > 1"));
    EXPECT_THROW(ReachabilityGraph{net}, std::runtime_error)
        << (boom == Boom::kPredicate ? "predicate" : "action");
  }
}

TEST(ReachGolden, TokenOverflowRaises) {
  // A deposit past UINT32_MAX raises instead of wrapping.
  Net net = pump_vs_boom_net(Boom::kOverflow);
  net.set_predicate(net.transition_named("pump"), expr::compile_predicate("0 > 1"));
  try {
    const ReachabilityGraph graph(net);
    ADD_FAILURE() << "expected a token count overflow";
  } catch (const std::overflow_error& e) {
    EXPECT_STREQ(e.what(), "Marking::add: token count overflow on place 4");
  }
}

// --- randomized nets ---------------------------------------------------------

TEST(ReachGolden, FuzzedPlainNets) {
  PopulationPin pin;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) pin.add(test_support::fuzz_net(seed));
  pin.expect(0x7b8182eba86e1d5cULL, "plain fuzz population");
}

TEST(ReachGolden, FuzzedInhibitorHeavyNets) {
  test_support::FuzzOptions fuzz;
  fuzz.inhibitor_pct = 80;
  fuzz.max_initial_total = 10;
  PopulationPin pin;
  for (std::uint64_t seed = 101; seed <= 115; ++seed) {
    pin.add(test_support::fuzz_net(seed, fuzz));
  }
  pin.expect(0xce2843a77660bd64ULL, "inhibitor fuzz population");
}

TEST(ReachGolden, FuzzedInterpretedNets) {
  // Predicates, counter actions, irand actions, table writes and
  // runtime-created variables, all as bytecode.
  test_support::FuzzOptions fuzz;
  fuzz.interpreted = true;
  PopulationPin pin;
  for (std::uint64_t seed = 201; seed <= 220; ++seed) {
    pin.add(test_support::fuzz_net(seed, fuzz), {}, kFuzzScalars);
  }
  pin.expect(0x9889fa4f9c61c7feULL, "interpreted fuzz population");
}

TEST(ReachGolden, FuzzedTruncatedNets) {
  // Tiny caps over random nets: the truncated prefixes are pinned too.
  PopulationPin pin;
  for (std::uint64_t seed = 301; seed <= 310; ++seed) {
    ReachOptions options;
    options.max_states = 10 + seed % 17;
    pin.add(test_support::fuzz_net(seed), options);
  }
  pin.expect(0xa9d332bb0b2b8664ULL, "truncated fuzz population");
}

}  // namespace
}  // namespace pnut::analysis
