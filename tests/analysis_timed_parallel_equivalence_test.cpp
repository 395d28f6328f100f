// Differential harness and frozen goldens for timed reachability.
//
// The timed parallel engine's contract mirrors the untimed one: not "an
// isomorphic graph" but *the same graph* — for any thread count, state ids,
// full interned state words, edge lists (order and labels included),
// earliest times, expanded flags, deadlock sets and status must be
// byte-identical to the sequential two-bucket builder's. This file pins
// that on the paper's golden models, on timed stress rings with deep
// cost-0 closures, on limit-hitting (max_states / max_time truncated)
// explorations, and on a population of ~50 randomized integer-delay
// skeletons from tests/support/net_fuzz.h.
//
// Both builders expand states with the one word-level successor kernel
// (analysis/timed_encode.h), so the differential comparison cannot catch a
// kernel bug they share. Every graph here is therefore also pinned to a
// hash_timed_graph fingerprint recorded from the decode/encode successor
// rule the kernel replaced, asserted at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
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

constexpr unsigned kThreadCounts[] = {2, 4, 8};

/// Independent oracle for the builders' earliest times: a textbook 0-1 BFS
/// (deque Dijkstra) over the *finished* graph's edges. Both builders share
/// the two-bucket scheduler, so a shared scheduling bug (e.g. a mishandled
/// promotion expanding a state one tick late) would slip past the
/// differential comparison — this recomputation would not miss it.
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

/// Full byte-level comparison of two timed reachability graphs.
void expect_identical(const TimedReachabilityGraph& seq, const TimedReachabilityGraph& par,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(par.status(), seq.status());
  ASSERT_EQ(par.num_states(), seq.num_states());
  ASSERT_EQ(par.num_expanded(), seq.num_expanded());

  for (std::size_t s = 0; s < seq.num_states(); ++s) {
    // Full state words: marking, enabling timers and in-flight counts all
    // in the same canonical slot.
    const auto seq_words = seq.state_words(s);
    const auto par_words = par.state_words(s);
    ASSERT_TRUE(std::equal(seq_words.begin(), seq_words.end(), par_words.begin(),
                           par_words.end()))
        << "state " << s << " words differ";
    ASSERT_EQ(par.earliest_time(s), seq.earliest_time(s)) << "state " << s;
    ASSERT_EQ(par.state_expanded(s), seq.state_expanded(s)) << "state " << s;
    // Edge rows: same labels to the same targets in the same order.
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
}

/// Build `net` sequentially and at every parallel thread count, diff each
/// parallel graph against the sequential one, and return the fingerprint
/// every build shares (each thread count's own hash is checked against it).
std::uint64_t expect_parallel_matches(const Net& net, const std::string& label,
                                      TimedReachOptions options = {}) {
  options.threads = 1;
  const TimedReachabilityGraph seq(net, options);
  if (seq.status() == TimedReachStatus::kComplete) {
    SCOPED_TRACE(label);
    expect_earliest_times_are_shortest_distances(seq);
  }
  const std::uint64_t fingerprint = test_support::hash_timed_graph(seq);
  for (const unsigned threads : kThreadCounts) {
    options.threads = threads;
    const TimedReachabilityGraph par(net, options);
    const std::string at = label + " @" + std::to_string(threads) + " threads";
    expect_identical(seq, par, at);
    EXPECT_EQ(test_support::hash_timed_graph(par), fingerprint) << at;
  }
  return fingerprint;
}

/// The graph at threads 1, 2, 4 and 8 matches the fingerprint recorded from
/// the decode/encode successor rule.
void expect_pinned(const Net& net, std::uint64_t pinned, const std::string& label,
                   TimedReachOptions options = {}) {
  const std::uint64_t actual = expect_parallel_matches(net, label, options);
  EXPECT_EQ(hex_literal(actual), hex_literal(pinned)) << label;
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

TEST(TimedParallelEquivalence, Figure1Prefetch) {
  expect_pinned(pipeline::build_prefetch_model(), 0x284636e1760f7b27ULL, "fig1");
}

TEST(TimedParallelEquivalence, FullPipelineModel) {
  expect_pinned(pipeline::build_full_model(), 0x69482d4edbb6e706ULL, "full");
}

TEST(TimedParallelEquivalence, GoldenCountsAtEveryThreadCount) {
  // The frozen count pins from analysis_exploration_equivalence_test hold
  // for the parallel path too.
  for (const unsigned threads : kThreadCounts) {
    TimedReachOptions options;
    options.threads = threads;
    const TimedReachabilityGraph graph(pipeline::build_full_model(), options);
    EXPECT_EQ(graph.status(), TimedReachStatus::kComplete);
    EXPECT_EQ(graph.num_states(), 4894u);
    std::size_t edges = 0;
    for (std::size_t s = 0; s < graph.num_states(); ++s) edges += graph.edges(s).size();
    EXPECT_EQ(edges, 6439u);
    EXPECT_TRUE(graph.deadlock_states().empty());
  }
}

// --- same-instant races, in-flight desync, deep closures ---------------------

TEST(TimedParallelEquivalence, TimedRaceRing) {
  // Every instant branches on same-delay races and the firing closures run
  // several states deep — plenty of two-bucket round-trips (756 states).
  expect_pinned(reach_models::timed_race_ring(8, 4), 0x2408f5a5c0d5db09ULL, "race ring 8x4");
}

TEST(TimedParallelEquivalence, SmallRaceRing) {
  // 12,876 states: explore-cold's race_small class.
  expect_pinned(reach_models::timed_race_ring(9, 3), 0x834d30328d457a63ULL, "race ring 9x3");
}

#ifdef NDEBUG
TEST(TimedParallelEquivalence, MediumRaceRing) {
  // 31,928 states; optimized builds only.
  expect_pinned(reach_models::timed_race_ring(12, 4), 0xf7b60607a6feff7dULL, "race ring 12x4");
}

TEST(TimedParallelEquivalence, LargeRaceRing) {
  // 418,593 states (bench_reach's timed scaling model); optimized builds only.
  TimedReachOptions options;
  options.max_states = 1'000'000;
  options.max_time = 1'000'000;
  expect_pinned(reach_models::timed_race_ring(12, 3), 0x0dd4cbcad89d0236ULL, "race ring 12x3",
                options);
}
#endif

// --- sequential stop rules ---------------------------------------------------

TEST(TimedParallelEquivalence, StateCapTruncationIsThreadCountIndependent) {
  // max_states hits mid-closure: the parallel builder must truncate at the
  // exact discovery the sequential one stops at, keeping the same prefix.
  const Net net = reach_models::timed_race_ring(8, 4);
  const std::pair<std::size_t, std::uint64_t> pins[] = {
      {4, 0x873871e760ea8086ULL}, {29, 0x4261e2530dd00247ULL}, {153, 0x6e25a20ffb401c31ULL}};
  for (const auto& [cap, pinned] : pins) {
    TimedReachOptions options;
    options.max_states = cap;
    expect_pinned(net, pinned, "truncated cap=" + std::to_string(cap), options);
  }
}

TEST(TimedParallelEquivalence, HorizonTruncationIsThreadCountIndependent) {
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

TEST(TimedParallelEquivalence, FuzzedTimedSkeletons) {
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  TimedReachOptions options;
  options.max_states = 20'000;
  options.max_time = 300;
  PopulationPin pin;
  for (std::uint64_t seed = 1; seed <= 35; ++seed) {
    pin.add(expect_parallel_matches(test_support::fuzz_net(seed, fuzz),
                                    "timed fuzz seed=" + std::to_string(seed), options));
  }
  pin.expect(0xff5f029a42c4a50dULL, "timed fuzz population");
}

TEST(TimedParallelEquivalence, FuzzedLossySkeletons) {
  // Lossy nets drift toward timed deadlocks: diffs the deadlock sets and
  // the tick-until-stuck tails.
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  fuzz.lossy_pct = 60;
  TimedReachOptions options;
  options.max_states = 20'000;
  options.max_time = 300;
  PopulationPin pin;
  for (std::uint64_t seed = 101; seed <= 110; ++seed) {
    pin.add(expect_parallel_matches(test_support::fuzz_net(seed, fuzz),
                                    "lossy timed fuzz seed=" + std::to_string(seed),
                                    options));
  }
  pin.expect(0x6af585338ded9595ULL, "lossy timed fuzz population");
}

TEST(TimedParallelEquivalence, FuzzedTruncatedSkeletons) {
  // Tiny caps and horizons over random nets: stop-rule equivalence — the
  // truncated prefix, expanded flags and statuses — is fuzzed too.
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  PopulationPin pin;
  for (std::uint64_t seed = 201; seed <= 210; ++seed) {
    TimedReachOptions options;
    options.max_states = 5 + seed % 23;
    pin.add(expect_parallel_matches(test_support::fuzz_net(seed, fuzz),
                                    "truncated timed fuzz seed=" + std::to_string(seed),
                                    options));
  }
  for (std::uint64_t seed = 301; seed <= 305; ++seed) {
    TimedReachOptions options;
    options.max_time = seed % 5;
    pin.add(expect_parallel_matches(test_support::fuzz_net(seed, fuzz),
                                    "horizon timed fuzz seed=" + std::to_string(seed),
                                    options));
  }
  pin.expect(0xf24323efc0b75e2bULL, "truncated timed fuzz population");
}

}  // namespace
}  // namespace pnut::analysis
