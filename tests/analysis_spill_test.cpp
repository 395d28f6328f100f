// Differential harness for out-of-core exploration (analysis/spill.h).
//
// The spill contract is not "a similar graph under memory pressure" but
// *the same graph*: for any thread count, a build whose sealed levels and
// edge rows spill to mmap'd segment files must be byte-identical to the
// all-in-RAM build — state ids, full arena words, edge lists (order
// included), deadlock sets, place bounds, statuses and truncated prefixes.
// This file pins that on the paper's golden models, on rings with real
// multi-level frontiers, on limit-hitting explorations and on randomized
// nets (plain + interpreted + timed integer skeletons), with
// a residency window shrunk far enough that even Debug-sized graphs spill.
// It also pins the lifecycle: segment directories are created under the
// requested root and removed with the graph — on error paths too.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "../bench/reach_models.h"
#include "analysis/reachability.h"
#include "analysis/timed_reachability.h"
#include "expr/compile.h"
#include "pipeline/interpreted.h"
#include "pipeline/model.h"
#include "support/net_fuzz.h"

namespace pnut::analysis {
namespace {

constexpr unsigned kThreadCounts[] = {1, 4};

/// A residency window small enough that every model in this file spills:
/// a few KB of arena + edges against graphs tens of KB and up.
SpillOptions tiny_spill() {
  SpillOptions spill;
  spill.max_resident_bytes = 24 * 1024;
  spill.segment_bytes = 2 * 1024;
  return spill;
}

/// Full byte-level comparison: the spilled graph vs the all-in-RAM one.
void expect_identical(const ReachabilityGraph& ram, const ReachabilityGraph& spilled,
                      const Net& net, const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(spilled.status(), ram.status());
  ASSERT_EQ(spilled.num_states(), ram.num_states());
  ASSERT_EQ(spilled.num_edges(), ram.num_edges());
  ASSERT_EQ(spilled.num_expanded(), ram.num_expanded());

  for (std::size_t s = 0; s < ram.num_states(); ++s) {
    const auto ram_tokens = ram.tokens(s);
    const auto spill_tokens = spilled.tokens(s);
    ASSERT_TRUE(std::equal(ram_tokens.begin(), ram_tokens.end(), spill_tokens.begin(),
                           spill_tokens.end()))
        << "state " << s << " tokens differ";
    const auto ram_edges = ram.edges(s);
    const auto spill_edges = spilled.edges(s);
    ASSERT_EQ(ram_edges.size(), spill_edges.size()) << "state " << s;
    for (std::size_t e = 0; e < ram_edges.size(); ++e) {
      ASSERT_EQ(spill_edges[e].transition, ram_edges[e].transition)
          << "state " << s << " edge " << e;
      ASSERT_EQ(spill_edges[e].target, ram_edges[e].target)
          << "state " << s << " edge " << e;
    }
  }

  // Graph queries stream over the spilled segments and must agree exactly.
  EXPECT_EQ(spilled.deadlock_states(), ram.deadlock_states());
  EXPECT_EQ(spilled.dead_transitions(), ram.dead_transitions());
  EXPECT_EQ(spilled.is_reversible(), ram.is_reversible());
  for (std::uint32_t p = 0; p < net.num_places(); ++p) {
    EXPECT_EQ(spilled.place_bound(PlaceId(p)), ram.place_bound(PlaceId(p)))
        << "place " << p;
  }
  for (std::size_t s = 0; s < ram.num_states(); s += 7) {
    EXPECT_EQ(spilled.variable(s, "x"), ram.variable(s, "x")) << "state " << s;
  }
}

void expect_spill_matches(const Net& net, const std::string& label,
                          ReachOptions options = {}) {
  for (const unsigned threads : kThreadCounts) {
    options.threads = threads;
    options.spill = SpillOptions{};
    const ReachabilityGraph ram(net, options);
    options.spill = tiny_spill();
    const ReachabilityGraph spilled(net, options);
    expect_identical(ram, spilled, net,
                     label + " @" + std::to_string(threads) + " threads");
  }
}

// --- golden models -----------------------------------------------------------

TEST(SpillEquivalence, Figure1Prefetch) {
  expect_spill_matches(pipeline::build_prefetch_model(), "fig1");
}

TEST(SpillEquivalence, Figure4ExprInterpretedPipeline) {
  // Per-state data words live in the (spillable) arena with a frozen
  // width.
  expect_spill_matches(pipeline::build_interpreted_pipeline(), "fig4-expr");
}

TEST(SpillEquivalence, FullPipelineModel) {
  expect_spill_matches(pipeline::build_full_model(), "full");
}

TEST(SpillEquivalence, GoldenCountsWhileSpilled) {
  ReachOptions options;
  options.max_states = 1'000'000;
  options.spill = tiny_spill();
  for (const unsigned threads : kThreadCounts) {
    options.threads = threads;
    const ReachabilityGraph graph(pipeline::build_full_model(), options);
    EXPECT_EQ(graph.status(), ReachStatus::kComplete);
    EXPECT_EQ(graph.num_states(), reach_models::kFullModel.states);
    EXPECT_EQ(graph.num_edges(), reach_models::kFullModel.edges);
    EXPECT_EQ(graph.deadlock_states().size(), reach_models::kFullModel.deadlocks);
    EXPECT_TRUE(graph.spill_engaged()) << threads << " threads";
    EXPECT_GT(graph.spilled_bytes(), 0u) << threads << " threads";
  }
}

// --- multi-level frontiers ---------------------------------------------------

TEST(SpillEquivalence, TokenRingManyLevels) {
  // C(15, 4) = 1365 states over ~45 BFS levels: the spill floor chases a
  // real multi-level frontier, and 65 KB of state payload against a 24 KB
  // window means most of the graph ends up on disk.
  const Net net = reach_models::stress_ring(12, 4);
  expect_spill_matches(net, "ring 12x4");

  ReachOptions options;
  options.spill = tiny_spill();
  const ReachabilityGraph graph(net, options);
  EXPECT_TRUE(graph.spill_engaged());
  EXPECT_GT(graph.spilled_bytes(), graph.memory_bytes() / 4);
}

// --- stop rules --------------------------------------------------------------

TEST(SpillEquivalence, TruncatedPrefixIsSpillIndependent) {
  const Net net = reach_models::stress_ring(10, 3);
  for (const std::size_t cap : {5u, 37u, 100u}) {
    ReachOptions options;
    options.max_states = cap;
    expect_spill_matches(net, "truncated cap=" + std::to_string(cap), options);
  }
}

TEST(SpillEquivalence, UnboundedDetectionIsSpillIndependent) {
  Net net("pump");
  const PlaceId p = net.add_place("p", 1);
  const PlaceId q = net.add_place("q");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.add_output(t, q, 2);
  ReachOptions options;
  options.place_bound = 64;
  expect_spill_matches(net, "unbounded pump", options);
}

// --- randomized nets ---------------------------------------------------------

TEST(SpillEquivalence, FuzzedPlainNets) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    expect_spill_matches(test_support::fuzz_net(seed),
                         "plain fuzz seed=" + std::to_string(seed));
  }
}

TEST(SpillEquivalence, FuzzedExprInterpretedNets) {
  // Predicates, counter/table actions and delays in the expression
  // language: per-state data words spill with the marking.
  test_support::FuzzOptions fuzz;
  fuzz.interpreted = true;
  for (std::uint64_t seed = 201; seed <= 210; ++seed) {
    expect_spill_matches(test_support::fuzz_net(seed, fuzz),
                         "expr fuzz seed=" + std::to_string(seed));
  }
}

TEST(SpillEquivalence, FuzzedTruncatedNets) {
  for (std::uint64_t seed = 301; seed <= 306; ++seed) {
    ReachOptions options;
    options.max_states = 10 + seed % 17;
    expect_spill_matches(test_support::fuzz_net(seed),
                         "truncated fuzz seed=" + std::to_string(seed), options);
  }
}

// --- the unsupported corner --------------------------------------------------

TEST(SpillEquivalence, ActionCreatingAVariableSpills) {
  // An action that creates a variable at runtime: the schema holds its
  // slot from the start, so the encoded width never changes mid-build and
  // spilling works at every thread count.
  Net net("creates_x");
  const PlaceId p = net.add_place("p", 1);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_action(t, expr::compile_action("x = 1"));
  for (const unsigned threads : kThreadCounts) {
    ReachOptions options;
    options.threads = threads;
    const ReachabilityGraph flat(net, options);
    options.spill = tiny_spill();
    const ReachabilityGraph spilled(net, options);
    ASSERT_EQ(spilled.num_states(), flat.num_states()) << threads << " threads";
    EXPECT_EQ(spilled.num_states(), 2u);
    for (std::size_t s = 0; s < flat.num_states(); ++s) {
      EXPECT_EQ(spilled.variable(s, "x"), flat.variable(s, "x")) << threads << " threads";
    }
  }
}

// --- timed graphs ------------------------------------------------------------

/// Full byte-level comparison of timed graphs, spilled vs all-in-RAM.
void expect_identical_timed(const TimedReachabilityGraph& ram,
                            const TimedReachabilityGraph& spilled,
                            const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(spilled.status(), ram.status());
  ASSERT_EQ(spilled.num_states(), ram.num_states());
  ASSERT_EQ(spilled.num_expanded(), ram.num_expanded());

  for (std::size_t s = 0; s < ram.num_states(); ++s) {
    const auto ram_words = ram.state_words(s);
    const auto spill_words = spilled.state_words(s);
    ASSERT_TRUE(std::equal(ram_words.begin(), ram_words.end(), spill_words.begin(),
                           spill_words.end()))
        << "state " << s << " words differ";
    ASSERT_EQ(spilled.earliest_time(s), ram.earliest_time(s)) << "state " << s;
    ASSERT_EQ(spilled.state_expanded(s), ram.state_expanded(s)) << "state " << s;
    const auto ram_edges = ram.edges(s);
    const auto spill_edges = spilled.edges(s);
    ASSERT_EQ(ram_edges.size(), spill_edges.size()) << "state " << s;
    for (std::size_t e = 0; e < ram_edges.size(); ++e) {
      ASSERT_EQ(spill_edges[e].transition, ram_edges[e].transition)
          << "state " << s << " edge " << e;
      ASSERT_EQ(spill_edges[e].target, ram_edges[e].target)
          << "state " << s << " edge " << e;
    }
  }

  EXPECT_EQ(spilled.deadlock_states(), ram.deadlock_states());
}

void expect_timed_spill_matches(const Net& net, const std::string& label,
                                TimedReachOptions options = {}) {
  options.spill = SpillOptions{};
  const TimedReachabilityGraph ram(net, options);
  options.spill = tiny_spill();
  const TimedReachabilityGraph spilled(net, options);
  expect_identical_timed(ram, spilled, label);
}

TEST(SpillEquivalence, TimedGoldenModels) {
  expect_timed_spill_matches(pipeline::build_prefetch_model(), "timed fig1");
  expect_timed_spill_matches(pipeline::build_full_model(), "timed full");
}

TEST(SpillEquivalence, TimedFuzzedSkeletons) {
  // Promotions (a next-bucket state reached one tick earlier) re-read
  // states discovered last instant, so the timed floor trails an instant
  // behind — the fuzz population exercises exactly those paths.
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  TimedReachOptions options;
  options.max_states = 20'000;
  options.max_time = 300;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    expect_timed_spill_matches(test_support::fuzz_net(seed, fuzz),
                               "timed fuzz seed=" + std::to_string(seed), options);
  }
}

TEST(SpillEquivalence, TimedTruncatedSkeletons) {
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  for (std::uint64_t seed = 301; seed <= 306; ++seed) {
    TimedReachOptions options;
    options.max_states = 5 + seed % 23;
    expect_timed_spill_matches(test_support::fuzz_net(seed, fuzz),
                               "timed trunc seed=" + std::to_string(seed), options);
    options = TimedReachOptions{};
    options.max_time = seed % 5;
    expect_timed_spill_matches(test_support::fuzz_net(seed, fuzz),
                               "timed horizon seed=" + std::to_string(seed), options);
  }
}

// --- segment-file lifecycle --------------------------------------------------

/// Number of entries inside `dir`.
std::size_t dir_entries(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator(dir)) ++n;
  return n;
}

TEST(SpillLifecycle, SegmentDirectoryIsCreatedUsedAndRemoved) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "pnut-spill-lifecycle-test";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  {
    ReachOptions options;
    options.spill = tiny_spill();
    options.spill.dir = base.string();
    const ReachabilityGraph graph(reach_models::stress_ring(12, 4), options);
    ASSERT_TRUE(graph.spill_engaged());
    // Exactly one uniquely named subdirectory, holding the segment files,
    // lives under the requested root while the graph is alive.
    ASSERT_EQ(dir_entries(base), 1u);
    const auto sub = std::filesystem::directory_iterator(base)->path();
    EXPECT_NE(sub.filename().string().find("pnut-spill-"), std::string::npos);
    EXPECT_GE(dir_entries(sub), 1u);
  }
  // Graph destroyed: the subdirectory and every segment file are gone.
  EXPECT_EQ(dir_entries(base), 0u);
  std::filesystem::remove_all(base);
}

TEST(SpillLifecycle, SegmentDirectoryIsRemovedOnThrowingBuilds) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "pnut-spill-error-test";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  // To hit a post-creation unwind, the builder throws from a predicate
  // (division by zero) after the SpillDir exists.
  Net net("boom");
  const PlaceId p = net.add_place("p", 1);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_predicate(t, expr::compile_predicate("1 / 0 > 0"));
  ReachOptions options;
  options.spill = tiny_spill();
  options.spill.dir = base.string();
  EXPECT_THROW(ReachabilityGraph(net, options), std::runtime_error);
  // The unwind removed the spill subdirectory with its files.
  EXPECT_EQ(dir_entries(base), 0u);
  std::filesystem::remove_all(base);
}

TEST(SpillLifecycle, NonexistentSpillRootIsRejected) {
  ReachOptions options;
  options.spill = tiny_spill();
  options.spill.dir = "/nonexistent/pnut/spill/root";
  EXPECT_THROW(ReachabilityGraph(reach_models::stress_ring(8, 2), options),
               std::invalid_argument);
}

}  // namespace
}  // namespace pnut::analysis
