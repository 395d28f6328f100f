// Frozen goldens for timed reachability.
//
// Every graph here — the paper's golden models, timed stress rings with
// deep cost-0 closures, limit-hitting (max_states / max_time truncated)
// explorations, and ~50 randomized integer-delay skeletons from
// tests/support/net_fuzz.h — is pinned to a hash_timed_graph fingerprint
// recorded from the decode/encode successor rule the word kernel
// (analysis/timed_encode.h) replaced. The fingerprint covers state words,
// edge rows, earliest times, expanded flags and status. Every complete
// graph's earliest times are also checked against an independent 0-1 BFS
// over its finished edges.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "../bench/reach_models.h"
#include "analysis/timed_reachability.h"
#include "pipeline/model.h"
#include "support/golden_hash.h"
#include "support/net_fuzz.h"

namespace pnut::analysis {
namespace {

using test_support::hex_literal;

/// Independent oracle for the builder's earliest times: a textbook 0-1 BFS
/// (deque Dijkstra) over the *finished* graph's edges. A scheduling bug in
/// the builder's two-bucket scheduler (e.g. a mishandled promotion
/// expanding a state one tick late) would show here.
void expect_earliest_times_are_shortest_distances(const TimedReachabilityGraph& graph) {
  const std::size_t n = graph.num_states();
  std::vector<std::uint64_t> dist(n, UINT64_MAX);
  std::deque<std::size_t> queue;
  dist[0] = 0;
  queue.push_back(0);
  while (!queue.empty()) {
    const std::size_t s = queue.front();
    queue.pop_front();
    for (const auto& e : graph.edges(s)) {
      const std::uint64_t cost = e.transition ? 0 : 1;
      if (dist[s] + cost < dist[e.target]) {
        dist[e.target] = dist[s] + cost;
        if (cost == 0) {
          queue.push_front(e.target);
        } else {
          queue.push_back(e.target);
        }
      }
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_EQ(graph.earliest_time(s), dist[s]) << "state " << s;
  }
}

/// Build `net` once, check its earliest times when complete, and return
/// its fingerprint.
std::uint64_t fingerprint(const Net& net, const std::string& label,
                          const TimedReachOptions& options = {}) {
  const TimedReachabilityGraph graph(net, options);
  if (graph.status() == ReachStatus::kComplete) {
    SCOPED_TRACE(label);
    expect_earliest_times_are_shortest_distances(graph);
  }
  return test_support::hash_timed_graph(graph);
}

/// The graph matches the fingerprint recorded from the decode/encode
/// successor rule.
void expect_pinned(const Net& net, std::uint64_t pinned, const std::string& label,
                   const TimedReachOptions& options = {}) {
  EXPECT_EQ(hex_literal(fingerprint(net, label, options)), hex_literal(pinned)) << label;
}

/// Folds a population's per-graph fingerprints into one pin.
class PopulationPin {
 public:
  void add(std::uint64_t graph_fingerprint) { f_.u64(graph_fingerprint); }
  void expect(std::uint64_t pinned, const std::string& label) const {
    EXPECT_EQ(hex_literal(f_.value()), hex_literal(pinned)) << label;
  }

 private:
  test_support::Fingerprint f_;
};

// --- golden models -----------------------------------------------------------

TEST(TimedGolden, Figure1Prefetch) {
  expect_pinned(pipeline::build_prefetch_model(), 0x284636e1760f7b27ULL, "fig1");
}

TEST(TimedGolden, FullPipelineModel) {
  // The fingerprint and the frozen count pins from
  // analysis_exploration_equivalence_test, on one build.
  const TimedReachabilityGraph graph(pipeline::build_full_model());
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_EQ(graph.num_states(), 4894u);
  std::size_t edges = 0;
  for (std::size_t s = 0; s < graph.num_states(); ++s) edges += graph.edges(s).size();
  EXPECT_EQ(edges, 6439u);
  EXPECT_TRUE(graph.deadlock_states().empty());
  expect_earliest_times_are_shortest_distances(graph);
  EXPECT_EQ(hex_literal(test_support::hash_timed_graph(graph)),
            hex_literal(0x69482d4edbb6e706ULL));
}

// --- same-instant races, in-flight desync, deep closures ---------------------

TEST(TimedGolden, TimedRaceRing) {
  // Every instant branches on same-delay races and the firing closures run
  // several states deep — plenty of two-bucket round-trips (756 states).
  expect_pinned(reach_models::timed_race_ring(8, 4), 0x2408f5a5c0d5db09ULL, "race ring 8x4");
}

TEST(TimedGolden, SmallRaceRing) {
  // 12,876 states: explore-cold's race_small class.
  expect_pinned(reach_models::timed_race_ring(9, 3), 0x834d30328d457a63ULL, "race ring 9x3");
}

#ifdef NDEBUG
TEST(TimedGolden, MediumRaceRing) {
  // 31,928 states; optimized builds only.
  expect_pinned(reach_models::timed_race_ring(12, 4), 0xf7b60607a6feff7dULL, "race ring 12x4");
}

TEST(TimedGolden, LargeRaceRing) {
  // 418,593 states; optimized builds only.
  TimedReachOptions options;
  options.max_states = 1'000'000;
  options.max_time = 1'000'000;
  expect_pinned(reach_models::timed_race_ring(12, 3), 0x0dd4cbcad89d0236ULL, "race ring 12x3",
                options);
}
#endif

// --- stop rules --------------------------------------------------------------

TEST(TimedGolden, StateCapTruncation) {
  // max_states hits mid-closure: the prefix up to the discovery that hit
  // the cap is pinned.
  const Net net = reach_models::timed_race_ring(8, 4);
  const std::pair<std::size_t, std::uint64_t> pins[] = {
      {4, 0x873871e760ea8086ULL}, {29, 0x4261e2530dd00247ULL}, {153, 0x6e25a20ffb401c31ULL}};
  for (const auto& [cap, pinned] : pins) {
    TimedReachOptions options;
    options.max_states = cap;
    expect_pinned(net, pinned, "truncated cap=" + std::to_string(cap), options);
  }
}

TEST(TimedGolden, HorizonTruncation) {
  const Net net = reach_models::timed_race_ring(8, 4);
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {0, 0x795e8a40f030e0ffULL}, {2, 0xc794be43576ca6a5ULL}, {7, 0x41fc6811a667f651ULL}};
  for (const auto& [horizon, pinned] : pins) {
    TimedReachOptions options;
    options.max_time = horizon;
    expect_pinned(net, pinned, "horizon=" + std::to_string(horizon), options);
  }
}

// --- randomized integer-delay skeletons --------------------------------------

TEST(TimedGolden, FuzzedTimedSkeletons) {
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  TimedReachOptions options;
  options.max_states = 20'000;
  options.max_time = 300;
  PopulationPin pin;
  for (std::uint64_t seed = 1; seed <= 35; ++seed) {
    pin.add(fingerprint(test_support::fuzz_net(seed, fuzz),
                        "timed fuzz seed=" + std::to_string(seed), options));
  }
  pin.expect(0xff5f029a42c4a50dULL, "timed fuzz population");
}

TEST(TimedGolden, FuzzedLossySkeletons) {
  // Lossy nets drift toward timed deadlocks: pins the deadlocked states
  // and the tick-until-stuck tails.
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  fuzz.lossy_pct = 60;
  TimedReachOptions options;
  options.max_states = 20'000;
  options.max_time = 300;
  PopulationPin pin;
  for (std::uint64_t seed = 101; seed <= 110; ++seed) {
    pin.add(fingerprint(test_support::fuzz_net(seed, fuzz),
                        "lossy timed fuzz seed=" + std::to_string(seed), options));
  }
  pin.expect(0x6af585338ded9595ULL, "lossy timed fuzz population");
}

TEST(TimedGolden, FuzzedTruncatedSkeletons) {
  // Tiny caps and horizons over random nets: the truncated prefixes,
  // expanded flags and statuses are pinned too.
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  PopulationPin pin;
  for (std::uint64_t seed = 201; seed <= 210; ++seed) {
    TimedReachOptions options;
    options.max_states = 5 + seed % 23;
    pin.add(fingerprint(test_support::fuzz_net(seed, fuzz),
                        "truncated timed fuzz seed=" + std::to_string(seed), options));
  }
  for (std::uint64_t seed = 301; seed <= 305; ++seed) {
    TimedReachOptions options;
    options.max_time = seed % 5;
    pin.add(fingerprint(test_support::fuzz_net(seed, fuzz),
                        "horizon timed fuzz seed=" + std::to_string(seed), options));
  }
  pin.expect(0xf24323efc0b75e2bULL, "truncated timed fuzz population");
}

}  // namespace
}  // namespace pnut::analysis
