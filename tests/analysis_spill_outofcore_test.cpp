// Out-of-core stress: a state space whose flat arena + edge pool cannot
// fit in the configured residency budget — the build must complete by
// spilling sealed states and edge rows to segment files, keep its peak resident
// footprint near the budget, and still produce the exact golden counts and
// streaming-query answers. The CI "spill" job runs this binary under a
// hard `ulimit -v` address-space cap sized so the all-in-RAM build cannot
// complete at all: passing there proves the bound for real, not just
// against our own accounting.
//
// Labeled `large` in CMakeLists.txt: full size only means anything
// optimized, so Debug builds get a scaled-down ring with a scaled-down
// budget (same code paths, same assertions).
#include <gtest/gtest.h>

#include "../bench/reach_models.h"
#include "analysis/reachability.h"

namespace pnut::analysis {
namespace {

#ifdef NDEBUG
// C(42, 5) = 850'668 states x 38 words = ~129 MB of state payload plus
// ~31 MB of edges, against a 64 MB residency budget.
constexpr std::size_t kPlaces = 38;
constexpr TokenCount kTokens = 5;
constexpr std::size_t kStates = 850'668;
constexpr std::size_t kEdges = 3'848'260;
constexpr std::size_t kBudget = std::size_t{64} << 20;
#else
// C(20, 5) = 15'504 states x 16 words = ~1 MB of payload against 256 KB.
constexpr std::size_t kPlaces = 16;
constexpr TokenCount kTokens = 5;
constexpr std::size_t kStates = 15'504;
constexpr std::size_t kEdges = 62'016;
constexpr std::size_t kBudget = std::size_t{256} << 10;
#endif

TEST(SpillOutOfCore, BuildCompletesWithinBudget) {
  ReachOptions options;
  options.max_states = 2'000'000;
  options.spill.max_resident_bytes = kBudget;

  const ReachabilityGraph graph(reach_models::stress_ring(kPlaces, kTokens), options);

  // Exact golden counts: out-of-core changed where bytes live, not what
  // they say.
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), kStates);
  EXPECT_EQ(graph.num_edges(), kEdges);

  // The build genuinely ran out-of-core, and the pools' resident highwater
  // stayed near the budget (the floor keeps the BFS frontier resident, so
  // a modest overshoot is expected — unbounded growth is not).
  EXPECT_TRUE(graph.spill_engaged());
  EXPECT_GT(graph.spilled_bytes(), kBudget);
  EXPECT_LT(graph.peak_resident_bytes(), kBudget * 2);

  // Streaming queries over the spilled graph: the ring always has a
  // movable token (no deadlocks), every place saw all tokens at once, no
  // transition is dead, and the ring cycles back to its initial marking.
  EXPECT_TRUE(graph.deadlock_states().empty());
  EXPECT_EQ(graph.place_bound(PlaceId(0)), kTokens);
  EXPECT_TRUE(graph.dead_transitions().empty());
  EXPECT_TRUE(graph.is_reversible());
}

}  // namespace
}  // namespace pnut::analysis
