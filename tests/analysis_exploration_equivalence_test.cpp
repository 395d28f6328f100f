// Equivalence pins for the arena-interned exploration core.
//
// The StateStore refactor replaced string-keyed interning with fixed-width
// word encodings in both graph analyzers. These goldens — state, edge and
// deadlock counts on the repository's example models — were captured from
// the pre-refactor implementation (std::string keys in an unordered_map)
// immediately before the port; the new core must reproduce them exactly.
#include <gtest/gtest.h>

#include "../bench/reach_models.h"
#include "analysis/reachability.h"
#include "analysis/timed_reachability.h"
#include "pipeline/interpreted.h"
#include "pipeline/model.h"
#include "support/successor_rows.h"

namespace pnut::analysis {
namespace {

void expect_reach_golden(const Net& net, const reach_models::Golden& golden) {
  ReachOptions options;
  options.max_states = 1'000'000;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), golden.states);
  EXPECT_EQ(graph.num_edges(), golden.edges);
  EXPECT_EQ(graph.deadlock_states().size(), golden.deadlocks);
}

TEST(ExplorationEquivalence, ReachFig1Prefetch) {
  expect_reach_golden(pipeline::build_prefetch_model(), reach_models::kFig1Prefetch);
}

TEST(ExplorationEquivalence, ReachFig4Interpreted) {
  expect_reach_golden(pipeline::build_interpreted_pipeline(),
                      reach_models::kFig4Interpreted);
}

TEST(ExplorationEquivalence, ReachFullModel) {
  expect_reach_golden(pipeline::build_full_model(), reach_models::kFullModel);
}

TEST(ExplorationEquivalence, TimedFig1Prefetch) {
  const TimedReachabilityGraph graph(pipeline::build_prefetch_model());
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), 15u);
  std::size_t edges = 0;
  for (std::size_t s = 0; s < graph.num_states(); ++s) edges += graph.edges(s).size();
  EXPECT_EQ(edges, 16u);
  EXPECT_TRUE(graph.deadlock_states().empty());
}

TEST(ExplorationEquivalence, TimedFullModel) {
  const TimedReachabilityGraph graph(pipeline::build_full_model());
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), 4894u);
  std::size_t edges = 0;
  for (std::size_t s = 0; s < graph.num_states(); ++s) edges += graph.edges(s).size();
  EXPECT_EQ(edges, 6439u);
  EXPECT_TRUE(graph.deadlock_states().empty());
}

TEST(ExplorationEquivalence, GraphQueriesAgreeWithPerStateScans) {
  // The flat-array query rewrites (deadlocks by CSR degree, place bounds by
  // strided arena scan, dead transitions by flat edge scan, reversibility
  // by counting-sorted reverse CSR) must agree with direct per-state
  // recomputation on a branching model.
  const Net net = pipeline::build_full_model();
  ReachOptions options;
  options.max_states = 1'000'000;
  const ReachabilityGraph graph(net, options);
  ASSERT_EQ(graph.status(), ReachStatus::kComplete);

  for (std::uint32_t p = 0; p < net.num_places(); ++p) {
    TokenCount expected = 0;
    for (std::size_t s = 0; s < graph.num_states(); ++s) {
      expected = std::max(expected,
                          static_cast<TokenCount>(graph.place_tokens(s, PlaceId(p))));
    }
    EXPECT_EQ(graph.place_bound(PlaceId(p)), expected);
  }

  std::size_t deadlocks = 0;
  const test_support::SuccessorRows successors(graph);
  for (std::size_t s = 0; s < graph.num_states(); ++s) {
    if (successors.of(s).empty()) ++deadlocks;
  }
  EXPECT_EQ(graph.deadlock_states().size(), deadlocks);

  std::vector<bool> fired(net.num_transitions(), false);
  for (std::size_t s = 0; s < graph.num_states(); ++s) {
    for (const auto& e : graph.edges(s)) fired[e.transition.value] = true;
  }
  std::size_t dead = 0;
  for (const bool f : fired) dead += f ? 0 : 1;
  EXPECT_EQ(graph.dead_transitions().size(), dead);
}

// The acceptance-scale graph: a token ring whose state space is every
// distribution of 5 tokens over 38 places — 850,668 states, 3.8M edges.
// Optimized builds (the default, and the CI Release job) run it at full
// size; unoptimized builds use a smaller ring so the suite stays fast.
TEST(ExplorationEquivalence, LargeStressRingCompletes) {
#ifdef NDEBUG
  const std::size_t places = 38;
  const std::size_t expect_states = reach_models::kStressRing38x5.states;
  const std::size_t expect_edges = reach_models::kStressRing38x5.edges;
#else
  const std::size_t places = 20;
  const std::size_t expect_states = 42'504;  // C(24, 5)
  const std::size_t expect_edges = 177'100;  // 20 * C(23, 4)
#endif
  const Net net = reach_models::stress_ring(places, 5);

  ReachOptions options;
  options.max_states = 1'000'000;
  const ReachabilityGraph graph(net, options);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), expect_states);
  EXPECT_EQ(graph.num_edges(), expect_edges);
  EXPECT_TRUE(graph.deadlock_states().empty());
  EXPECT_TRUE(graph.is_reversible());
  EXPECT_EQ(graph.place_bound(net.place_named("p0")), 5u);
}

}  // namespace
}  // namespace pnut::analysis
