// Cooperative cancellation and deadlines (util/stop.h) across the stack.
//
// The contract under test is *deterministic truncation*: a build stopped by
// its StopToken terminates at a fixed event position, so the truncated
// prefix is a pure function of where the stop fired — exactly like
// max_states truncation, but driven by wall-clock or an explicit cancel.
// Two deterministic stop shapes pin this exactly:
//   * a pre-expired deadline (timeout 0) stops a build at its first poll;
//   * cancel_after_polls(n) trips on the n-th poll, and because the
//     builders poll at fixed positions, the n-th poll is always the same
//     expansion point.
// Each such prefix is pinned by fingerprint. Real (nonzero) deadlines
// cannot pin an exact stop position, so for those the test asserts the
// prefix property against the full graph instead. Engines with no
// truncation-honest result (simulation lanes, replication, sweeps, query
// fixpoints) must instead fail atomically with StopError.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../bench/reach_models.h"
#include "analysis/query.h"
#include "analysis/reachability.h"
#include "analysis/timed_reachability.h"
#include "cli/session.h"
#include "petri/net.h"
#include "sim/batch_sim.h"
#include "sim/sweep.h"
#include "stat/replication.h"
#include "support/golden_hash.h"
#include "support/net_fuzz.h"
#include "util/stop.h"

namespace pnut {
namespace {

// --- StopToken / StopSource units ------------------------------------------------

TEST(StopToken, NullTokenNeverFires) {
  StopToken token;
  EXPECT_FALSE(token.possible());
  EXPECT_FALSE(token.may_expire());
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  EXPECT_NO_THROW(token.throw_if_stopped());
}

TEST(StopToken, ExplicitCancel) {
  StopSource source;
  const StopToken token = source.token();
  EXPECT_TRUE(token.possible());
  EXPECT_FALSE(token.may_expire());  // nothing can fire without request_cancel
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  source.request_cancel();
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_EQ(token.poll(), StopToken::Reason::kCancelled);
  try {
    token.throw_if_stopped();
    FAIL() << "expected StopError";
  } catch (const StopError& e) {
    EXPECT_EQ(e.kind(), StopError::Kind::kCancelled);
    EXPECT_STREQ(e.what(), "cancelled");
  }
}

TEST(StopToken, ExpiredDeadline) {
  StopSource source;
  source.set_timeout_seconds(0);
  const StopToken token = source.token();
  EXPECT_TRUE(token.may_expire());
  EXPECT_EQ(token.poll(), StopToken::Reason::kDeadline);
  try {
    token.throw_if_stopped();
    FAIL() << "expected StopError";
  } catch (const StopError& e) {
    EXPECT_EQ(e.kind(), StopError::Kind::kTimeout);
    EXPECT_STREQ(e.what(), "deadline exceeded");
  }
}

TEST(StopToken, NegativeTimeoutClampsToExpired) {
  StopSource source;
  source.set_timeout_seconds(-5);
  EXPECT_EQ(source.token().poll(), StopToken::Reason::kDeadline);
}

TEST(StopToken, FarDeadlineDoesNotFire) {
  StopSource source;
  source.set_timeout_seconds(3600);
  const StopToken token = source.token();
  EXPECT_TRUE(token.may_expire());
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
}

TEST(StopToken, CancelWinsOverDeadline) {
  StopSource source;
  source.set_timeout_seconds(0);
  source.request_cancel();
  EXPECT_EQ(source.token().poll(), StopToken::Reason::kCancelled);
}

TEST(StopToken, WatchedExternalFlag) {
  std::atomic<bool> drain{false};
  StopSource source;
  source.watch(&drain);
  const StopToken token = source.token();
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  drain.store(true);
  EXPECT_EQ(token.poll(), StopToken::Reason::kCancelled);
}

TEST(StopToken, CancelAfterPollsTripsExactlyAndStays) {
  StopSource source;
  source.cancel_after_polls(3);
  const StopToken token = source.token();
  EXPECT_TRUE(token.may_expire());
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  EXPECT_EQ(token.poll(), StopToken::Reason::kCancelled);
  EXPECT_EQ(token.poll(), StopToken::Reason::kCancelled);  // sticky
}

// --- untimed exploration: deterministic stop positions ----------------------------
//
// The untimed builder polls before expanding every kStopCheckStride-th
// state, so a stopped graph is a pure function of where the stop fired.
// Each stopped prefix is checked against the build it interrupted and
// pinned by a fingerprint recorded when a level-parallel builder still ran
// beside the sequential one and stopped at the same positions.

analysis::ReachOptions reach_options(StopToken stop = {}) {
  analysis::ReachOptions o;
  o.stop = stop;
  return o;
}

std::string graph_fingerprint(const analysis::ReachabilityGraph& graph, const Net& net) {
  return test_support::hex_literal(
      test_support::hash_graph(graph, {}, net.num_transitions()));
}

/// `stopped` must be an exact prefix of `full`: same state ids, same edge
/// rows over the expanded prefix, empty rows beyond it.
void expect_prefix_of(const analysis::ReachabilityGraph& full,
                      const analysis::ReachabilityGraph& stopped,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_TRUE(stopped.stopped());
  ASSERT_LE(stopped.num_states(), full.num_states());
  ASSERT_LE(stopped.num_expanded(), stopped.num_states());
  for (std::size_t s = 0; s < stopped.num_states(); ++s) {
    const auto ft = full.tokens(s);
    const auto st = stopped.tokens(s);
    ASSERT_TRUE(std::equal(ft.begin(), ft.end(), st.begin(), st.end()))
        << "state " << s << " tokens differ from the full graph";
    if (s < stopped.num_expanded()) {
      ASSERT_TRUE(stopped.state_expanded(s));
      const auto fe = full.edges(s);
      const auto se = stopped.edges(s);
      ASSERT_EQ(se.size(), fe.size()) << "state " << s;
      for (std::size_t e = 0; e < fe.size(); ++e) {
        ASSERT_EQ(se[e].transition, fe[e].transition) << "state " << s << " edge " << e;
        ASSERT_EQ(se[e].target, fe[e].target) << "state " << s << " edge " << e;
      }
    } else {
      EXPECT_FALSE(stopped.state_expanded(s)) << "state " << s;
      EXPECT_TRUE(stopped.edges(s).empty()) << "state " << s;
    }
  }
}

TEST(StopReach, PreExpiredDeadlineStopsAtFirstPoll) {
  const Net net = reach_models::stress_ring(10, 4);  // C(13,4) = 715 states
  const analysis::ReachabilityGraph full(net, reach_options());
  ASSERT_EQ(full.status(), analysis::ReachStatus::kComplete);

  StopSource source;
  source.set_timeout_seconds(0);
  const analysis::ReachabilityGraph stopped(net, reach_options(source.token()));
  EXPECT_EQ(stopped.status(), analysis::ReachStatus::kTimeout);
  EXPECT_EQ(stopped.num_expanded(), 0u);  // first poll is parent 0
  expect_prefix_of(full, stopped, "timeout0");
  EXPECT_EQ(graph_fingerprint(stopped, net), "0xea995c78025a6d22ULL");
}

TEST(StopReach, CancelAfterPollsStopsAtAFixedPosition) {
  // C(23,4) = 8855 states: enough expanded parents for several poll
  // positions (parents 0, 1024, 2048, ...).
  const Net net = reach_models::stress_ring(20, 4);
  analysis::ReachOptions full_options = reach_options();
  full_options.max_states = 20'000;
  const analysis::ReachabilityGraph full(net, full_options);
  ASSERT_EQ(full.status(), analysis::ReachStatus::kComplete);

  const std::pair<std::uint64_t, const char*> pins[] = {{2, "0x65ac69d71ec7523dULL"},
                                                        {4, "0x96da44b7e1120d8bULL"}};
  for (const auto& [polls, pinned] : pins) {
    StopSource source;
    source.cancel_after_polls(polls);
    analysis::ReachOptions o = reach_options(source.token());
    o.max_states = 20'000;
    const analysis::ReachabilityGraph stopped(net, o);
    EXPECT_EQ(stopped.status(), analysis::ReachStatus::kCancelled);
    // The n-th poll sits at parent (n-1) * kStopCheckStride.
    EXPECT_EQ(stopped.num_expanded(), (polls - 1) * kStopCheckStride);
    expect_prefix_of(full, stopped, "polls=" + std::to_string(polls));
    EXPECT_EQ(graph_fingerprint(stopped, net), pinned) << "polls=" << polls;
  }
}

TEST(StopReach, CancelAfterPollsOnFuzzedNets) {
  const std::pair<std::uint64_t, const char*> pins[] = {
      {11, "0x1542c828be178de6ULL"}, {23, "0x08c2d69d0c8b0086ULL"}, {57, "0x5e31dcce7f803da0ULL"}};
  for (const auto& [seed, pinned] : pins) {
    const Net net = test_support::fuzz_net(seed);
    const analysis::ReachabilityGraph full(net, reach_options());
    // Trip on the very first poll: fuzzed graphs are usually smaller than
    // one stride, so later polls may never happen.
    StopSource source;
    source.cancel_after_polls(1);
    const analysis::ReachabilityGraph stopped(net, reach_options(source.token()));
    EXPECT_EQ(stopped.status(), analysis::ReachStatus::kCancelled);
    expect_prefix_of(full, stopped, "fuzz seed=" + std::to_string(seed));
    EXPECT_EQ(graph_fingerprint(stopped, net), pinned) << "fuzz seed=" << seed;
  }
}

TEST(StopReach, RealDeadlinePrefixProperty) {
  // A wall-clock deadline cannot pin an exact stop position; it must still
  // produce a valid prefix (or complete if the build beat the clock).
  const Net net = reach_models::stress_ring(20, 4);
  analysis::ReachOptions full_options = reach_options();
  full_options.max_states = 20'000;
  const analysis::ReachabilityGraph full(net, full_options);
  StopSource source;
  source.set_timeout_seconds(1e-4);
  analysis::ReachOptions o = reach_options(source.token());
  o.max_states = 20'000;
  const analysis::ReachabilityGraph g(net, o);
  if (g.status() == analysis::ReachStatus::kTimeout) {
    expect_prefix_of(full, g, "real deadline");
  } else {
    EXPECT_EQ(g.status(), analysis::ReachStatus::kComplete);
  }
}

// --- timed exploration -----------------------------------------------------------
//
// The timed graph has one builder. It polls at fixed canonical positions —
// once per kStopCheckStride expanded states plus the first state of each
// instant — so a stopped graph is a pure function of where the stop fired:
// each one is pinned by fingerprint and checked against the build it
// interrupted.

analysis::TimedReachOptions timed_options(StopToken stop = {}) {
  analysis::TimedReachOptions o;
  o.max_states = 50'000;
  o.stop = stop;
  return o;
}

/// `stopped` is a prefix of `full`, the same build run without a stop: the
/// same states in the same discovery order, every row `stopped` expanded
/// complete and identical, and earliest times no earlier than the full
/// graph's (a later promotion can only lower them).
void expect_timed_prefix(const analysis::TimedReachabilityGraph& stopped,
                         const analysis::TimedReachabilityGraph& full,
                         const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_LE(stopped.num_states(), full.num_states());
  ASSERT_LT(stopped.num_expanded(), full.num_expanded());
  for (std::size_t s = 0; s < stopped.num_states(); ++s) {
    const auto sw = stopped.state_words(s);
    const auto fw = full.state_words(s);
    ASSERT_TRUE(std::equal(sw.begin(), sw.end(), fw.begin(), fw.end()))
        << "state " << s << " words differ";
    ASSERT_GE(stopped.earliest_time(s), full.earliest_time(s)) << "state " << s;
    if (!stopped.state_expanded(s)) continue;
    ASSERT_TRUE(full.state_expanded(s)) << "state " << s;
    const auto se = stopped.edges(s);
    const auto fe = full.edges(s);
    ASSERT_EQ(se.size(), fe.size()) << "state " << s;
    for (std::size_t e = 0; e < se.size(); ++e) {
      ASSERT_EQ(se[e].transition, fe[e].transition) << "state " << s << " edge " << e;
      ASSERT_EQ(se[e].target, fe[e].target) << "state " << s << " edge " << e;
    }
  }
}

std::string timed_fingerprint(const analysis::TimedReachabilityGraph& graph) {
  return test_support::hex_literal(test_support::hash_timed_graph(graph));
}

TEST(StopTimed, PreExpiredDeadlineStopsAtTheInitialState) {
  const Net net = reach_models::timed_race_ring(12, 3);
  StopSource source;
  source.set_timeout_seconds(0);
  const analysis::TimedReachabilityGraph stopped(net, timed_options(source.token()));
  EXPECT_EQ(stopped.status(), analysis::ReachStatus::kTimeout);
  EXPECT_EQ(stopped.num_states(), 1u);
  EXPECT_EQ(stopped.num_expanded(), 0u);
  EXPECT_TRUE(stopped.edges(0).empty());
  EXPECT_EQ(timed_fingerprint(stopped), test_support::hex_literal(0x5ab04f557e09db0eULL));
}

TEST(StopTimed, CancelAfterPollsStopsAtAFixedPosition) {
  // 418k timed states uncapped (timed_race_ring(12, 3)): the build can never
  // complete before the cancel trips, at any polls value used here.
  const Net net = reach_models::timed_race_ring(12, 3);
  const analysis::TimedReachabilityGraph full(net, timed_options());
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {2, 0x5affa5184402df6dULL}, {5, 0x755dff9cbb58d050ULL}};
  for (const auto& [polls, pinned] : pins) {
    StopSource source;
    source.cancel_after_polls(polls);
    const analysis::TimedReachabilityGraph stopped(net, timed_options(source.token()));
    EXPECT_EQ(stopped.status(), analysis::ReachStatus::kCancelled);
    expect_timed_prefix(stopped, full, "timed polls=" + std::to_string(polls));
    EXPECT_EQ(timed_fingerprint(stopped), test_support::hex_literal(pinned))
        << "polls=" << polls;
  }
}

TEST(StopTimed, CancelAfterPollsOnFuzzedTimedNets) {
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  const std::pair<std::uint64_t, std::uint64_t> pins[] = {
      {5, 0xa2eecaf7284f1d19ULL}, {19, 0x1c43ecda6b297a7cULL}, {41, 0xf60f123895146b8bULL}};
  for (const auto& [seed, pinned] : pins) {
    const Net net = test_support::fuzz_net(seed, fuzz);
    StopSource source;
    source.cancel_after_polls(1);
    const analysis::TimedReachabilityGraph stopped(net, timed_options(source.token()));
    EXPECT_EQ(stopped.status(), analysis::ReachStatus::kCancelled);
    expect_timed_prefix(stopped, analysis::TimedReachabilityGraph(net, timed_options()),
                        "timed fuzz seed=" + std::to_string(seed));
    EXPECT_EQ(timed_fingerprint(stopped), test_support::hex_literal(pinned))
        << "seed=" << seed;
  }
}

// --- simulation / replication / sweep: atomic failure -----------------------------

// stress_ring has no delays — its simulation is a zero-delay cascade — so
// the simulation-side tests run the timed race ring, whose firings advance
// the clock.
TEST(StopSim, BatchSimulatorCancelThrowsStopError) {
  const Net net = reach_models::timed_race_ring(6, 3);
  BatchOptions options;
  StopSource source;
  source.request_cancel();
  options.stop = source.token();
  BatchSimulator batch(CompiledNet::compile(net), 4, options);
  EXPECT_THROW(batch.run(10'000), StopError);
}

TEST(StopSim, ReplicationTimeoutThrowsStopError) {
  const Net net = reach_models::timed_race_ring(6, 3);
  StopSource source;
  source.set_timeout_seconds(0);
  try {
    run_replications(net, 10'000, 4, {}, 1, 1, source.token());
    FAIL() << "expected StopError";
  } catch (const StopError& e) {
    EXPECT_EQ(e.kind(), StopError::Kind::kTimeout);
  }
}

TEST(StopSim, ReplicationWithoutStopStillRuns) {
  const Net net = reach_models::timed_race_ring(6, 3);
  const ReplicationResult result = run_replications(net, 1'000, 3, {});
  EXPECT_EQ(result.runs.size(), 3u);
}

TEST(StopSim, SweepCancelThrowsStopError) {
  const Net net = reach_models::timed_race_ring(6, 3);
  SweepOptions options;
  options.replications = 2;
  StopSource source;
  source.request_cancel();
  options.stop = source.token();
  EXPECT_THROW(run_sweep(CompiledNet::compile(net), {}, 1'000, {}, options), StopError);
}

// --- query fixpoints --------------------------------------------------------------

TEST(StopQuery, CancelledTokenThrowsStopError) {
  const Net net = reach_models::stress_ring(8, 3);
  const analysis::ReachabilityGraph graph(net, reach_options());
  ASSERT_EQ(graph.status(), analysis::ReachStatus::kComplete);
  StopSource source;
  source.request_cancel();
  EXPECT_THROW(
      analysis::eval_query(graph, "forall s in S [ p0(s) >= 0 ]", source.token()),
      StopError);
  // Temporal fixpoints poll too.
  EXPECT_THROW(analysis::eval_query(graph, "forall s in S [ poss(s, p0(C) > 0, true) ]",
                                    source.token()),
               StopError);
  // The same queries succeed with a live token.
  StopSource live;
  EXPECT_TRUE(
      analysis::eval_query(graph, "forall s in S [ p0(s) >= 0 ]", live.token()).holds);
}

// --- the CLI surface --------------------------------------------------------------

// A small timed model (integer-constant delays, so analyze's timed pass
// runs too, and firings advance the clock, so simulate terminates).
constexpr const char* kCliModel = R"(
net stopdemo
place Bus_free init 1
place Bus_busy
place Jobs init 2
place Done
trans start in Bus_free, Jobs out Bus_busy
trans finish in Bus_busy out Bus_free, Done enabling 5
trans recycle in Done out Jobs enabling 3
)";

class StopCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pnut_stop_cli_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
    model_path_ = (dir_ / "model.pn").string();
    std::ofstream(model_path_) << kCliModel;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] const std::string& model_path() const { return model_path_; }

  std::filesystem::path dir_;
  std::string model_path_;
};

TEST_F(StopCliTest, SimulateTimeoutZeroFailsWithDeadline) {
  cli::Session session;
  const cli::Result r = session.execute(
      {"simulate", {model_path(), "--until", "100000", "--timeout", "0"}});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("deadline exceeded"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, ReplicateTimeoutZeroFailsWithDeadline) {
  cli::Session session;
  const cli::Result r = session.execute(
      {"replicate", {model_path(), "--replications", "2", "--timeout", "0"}});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("deadline exceeded"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, AnalyzeTimeoutZeroReportsStoppedPrefix) {
  cli::Session session;
  const cli::Result r =
      session.execute({"analyze", {model_path(), "--timeout", "0"}});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("STOPPED at deadline"), std::string::npos) << r.out;
}

TEST_F(StopCliTest, AnalyzeTimeoutZeroPrefixIsPinned) {
  // The stopped prefix's reachability lines, recorded when --threads 1, 2,
  // 4 and 8 still ran two builders and printed the same lines.
  cli::Session session;
  const cli::Result r = session.execute({"analyze", {model_path(), "--timeout", "0"}});
  EXPECT_EQ(r.code, 0) << r.err;
  const auto begin = r.out.find("\nreachability:");
  const auto end = r.out.find("state storage");
  ASSERT_NE(begin, std::string::npos) << r.out;
  ASSERT_NE(end, std::string::npos) << r.out;
  EXPECT_EQ(r.out.substr(begin, end - begin),
            "\nreachability: 1 states, 0 edges (STOPPED at deadline)\n  ");
}

TEST_F(StopCliTest, QueryTimeoutZeroFails) {
  cli::Session session;
  const cli::Result r = session.execute(
      {"query", {"--reach", model_path(), "forall s in S [ 1 = 1 ]", "--timeout", "0"}});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("deadline exceeded"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, NegativeTimeoutIsUsageError) {
  cli::Session session;
  const cli::Result r = session.execute(
      {"simulate", {model_path(), "--timeout", "-1"}});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--timeout"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, CancelInflightCancelsFutureRequests) {
  cli::Session session;
  session.cancel_inflight();
  const cli::Result r =
      session.execute({"simulate", {model_path(), "--until", "100000"}});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cancelled"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, StoppedGraphIsNeverCached) {
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  // A deadline-bearing analyze bypasses the cache entirely.
  const cli::Result stopped =
      session.execute({"analyze", {model_path(), "--timeout", "0"}});
  EXPECT_EQ(stopped.code, 0) << stopped.err;
  EXPECT_EQ(session.stats().graph_misses, 0u);
  EXPECT_EQ(session.stats().graph_cache_entries, 0u);
  // An untimed analyze afterwards builds (and caches) the real graph.
  const cli::Result full = session.execute({"analyze", {model_path()}});
  EXPECT_EQ(full.code, 0) << full.err;
  EXPECT_EQ(full.out.find("STOPPED"), std::string::npos) << full.out;
  EXPECT_GT(session.stats().graph_cache_entries, 0u);
}

}  // namespace
}  // namespace pnut
