// Cooperative cancellation and deadlines (util/stop.h) across the stack.
//
// The contract under test is *deterministic truncation*: a build stopped by
// its StopToken terminates at a canonical event position, so the truncated
// prefix is byte-identical across thread counts and engines — exactly like
// max_states truncation, but driven by wall-clock or an explicit cancel.
// Two deterministic stop shapes pin this exactly:
//   * a pre-expired deadline (timeout 0) stops every engine at its first
//     poll — the same position for every thread count;
//   * cancel_after_polls(n) trips on the n-th poll, and because engines
//     poll at canonical positions, the n-th poll is the same expansion
//     point sequentially and in every parallel seal.
// Real (nonzero) deadlines cannot pin an exact stop position, so for those
// the test asserts the prefix property against the full graph instead.
// Engines with no truncation-honest result (simulation lanes, replication,
// sweeps, query fixpoints) must instead fail atomically with StopError.
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

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

analysis::ReachOptions reach_options(unsigned threads, StopToken stop = {}) {
  analysis::ReachOptions o;
  o.threads = threads;
  o.stop = stop;
  return o;
}

/// Byte-level equality of two (possibly truncated) untimed graphs.
void expect_same_graph(const analysis::ReachabilityGraph& a,
                       const analysis::ReachabilityGraph& b, const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(b.status(), a.status());
  ASSERT_EQ(b.num_states(), a.num_states());
  ASSERT_EQ(b.num_expanded(), a.num_expanded());
  ASSERT_EQ(b.num_edges(), a.num_edges());
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    const auto at = a.tokens(s);
    const auto bt = b.tokens(s);
    ASSERT_TRUE(std::equal(at.begin(), at.end(), bt.begin(), bt.end()))
        << "state " << s << " tokens differ";
    const auto ae = a.edges(s);
    const auto be = b.edges(s);
    ASSERT_EQ(be.size(), ae.size()) << "state " << s;
    for (std::size_t e = 0; e < ae.size(); ++e) {
      ASSERT_EQ(be[e].transition, ae[e].transition) << "state " << s << " edge " << e;
      ASSERT_EQ(be[e].target, ae[e].target) << "state " << s << " edge " << e;
    }
  }
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

TEST(StopReach, PreExpiredDeadlineStopsAtFirstPollEveryThreadCount) {
  const Net net = reach_models::stress_ring(10, 4);  // C(13,4) = 715 states
  const analysis::ReachabilityGraph full(net, reach_options(1));
  ASSERT_EQ(full.status(), analysis::ReachStatus::kComplete);

  std::vector<std::unique_ptr<analysis::ReachabilityGraph>> stopped;
  for (const unsigned threads : kThreadCounts) {
    StopSource source;
    source.set_timeout_seconds(0);
    stopped.push_back(std::make_unique<analysis::ReachabilityGraph>(
        net, reach_options(threads, source.token())));
    EXPECT_EQ(stopped.back()->status(), analysis::ReachStatus::kTimeout);
    EXPECT_EQ(stopped.back()->num_expanded(), 0u);  // first poll is parent 0
    expect_prefix_of(full, *stopped.back(),
                     "timeout0 threads=" + std::to_string(threads));
  }
  for (std::size_t i = 1; i < stopped.size(); ++i) {
    expect_same_graph(*stopped[0], *stopped[i],
                      "timeout0 threads=" + std::to_string(kThreadCounts[i]));
  }
}

TEST(StopReach, CancelAfterPollsIsByteIdenticalAcrossThreadCounts) {
  // C(23,4) = 8855 states: enough expanded parents for several canonical
  // poll positions (parents 0, 1024, 2048, ...).
  const Net net = reach_models::stress_ring(20, 4);
  analysis::ReachOptions full_options = reach_options(1);
  full_options.max_states = 20'000;
  const analysis::ReachabilityGraph full(net, full_options);
  ASSERT_EQ(full.status(), analysis::ReachStatus::kComplete);

  for (const std::uint64_t polls : {std::uint64_t{2}, std::uint64_t{4}}) {
    std::vector<std::unique_ptr<analysis::ReachabilityGraph>> stopped;
    for (const unsigned threads : kThreadCounts) {
      StopSource source;
      source.cancel_after_polls(polls);
      analysis::ReachOptions o = reach_options(threads, source.token());
      o.max_states = 20'000;
      stopped.push_back(std::make_unique<analysis::ReachabilityGraph>(net, o));
      EXPECT_EQ(stopped.back()->status(), analysis::ReachStatus::kCancelled);
      // The n-th poll sits at canonical parent (n-1) * kStopCheckStride.
      EXPECT_EQ(stopped.back()->num_expanded(), (polls - 1) * kStopCheckStride);
      expect_prefix_of(full, *stopped.back(),
                       "polls=" + std::to_string(polls) +
                           " threads=" + std::to_string(threads));
    }
    for (std::size_t i = 1; i < stopped.size(); ++i) {
      expect_same_graph(*stopped[0], *stopped[i],
                        "polls=" + std::to_string(polls) +
                            " threads=" + std::to_string(kThreadCounts[i]));
    }
  }
}

TEST(StopReach, CancelAfterPollsOnFuzzedNets) {
  for (const std::uint64_t seed : {11u, 23u, 57u}) {
    const Net net = test_support::fuzz_net(seed);
    const analysis::ReachabilityGraph full(net, reach_options(1));
    // Trip on the very first poll: fuzzed graphs are usually smaller than
    // one stride, so later polls may never happen.
    std::vector<std::unique_ptr<analysis::ReachabilityGraph>> stopped;
    for (const unsigned threads : kThreadCounts) {
      StopSource source;
      source.cancel_after_polls(1);
      stopped.push_back(std::make_unique<analysis::ReachabilityGraph>(
          net, reach_options(threads, source.token())));
      EXPECT_EQ(stopped.back()->status(), analysis::ReachStatus::kCancelled);
      expect_prefix_of(full, *stopped.back(),
                       "fuzz seed=" + std::to_string(seed) +
                           " threads=" + std::to_string(threads));
    }
    for (std::size_t i = 1; i < stopped.size(); ++i) {
      expect_same_graph(*stopped[0], *stopped[i],
                        "fuzz seed=" + std::to_string(seed) +
                            " threads=" + std::to_string(kThreadCounts[i]));
    }
  }
}

TEST(StopReach, RealDeadlinePrefixProperty) {
  // A wall-clock deadline cannot pin an exact stop position; it must still
  // produce a valid prefix (or complete if the build beat the clock).
  const Net net = reach_models::stress_ring(20, 4);
  analysis::ReachOptions full_options = reach_options(1);
  full_options.max_states = 20'000;
  const analysis::ReachabilityGraph full(net, full_options);
  StopSource source;
  source.set_timeout_seconds(1e-4);
  analysis::ReachOptions o = reach_options(1, source.token());
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
  EXPECT_EQ(stopped.status(), analysis::TimedReachStatus::kTimeout);
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
    EXPECT_EQ(stopped.status(), analysis::TimedReachStatus::kCancelled);
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
    EXPECT_EQ(stopped.status(), analysis::TimedReachStatus::kCancelled);
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
  const analysis::ReachabilityGraph graph(net, reach_options(1));
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

TEST_F(StopCliTest, AnalyzeTimeoutZeroPrefixIdenticalAcrossThreadCounts) {
  cli::Session session;
  std::string first;
  for (const char* threads : {"1", "2", "4", "8"}) {
    const cli::Result r = session.execute(
        {"analyze", {model_path(), "--timeout", "0", "--threads", threads}});
    EXPECT_EQ(r.code, 0) << r.err;
    // The state/edge counts and status line of the stopped prefix must not
    // depend on the thread count. (The storage report can differ by build
    // path, so compare only through the reachability line.)
    const auto cut = r.out.find("state storage");
    const std::string head = cut == std::string::npos ? r.out : r.out.substr(0, cut);
    if (first.empty()) {
      first = head;
    } else {
      EXPECT_EQ(head, first) << "threads=" << threads;
    }
  }
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
