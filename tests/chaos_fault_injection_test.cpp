// Chaos suite: injected environment failures (util/fault_inject.h) against
// the exploration stack and the crash-only Session contract.
//
// What "graceful degradation" must mean, concretely:
//   * an injected disk-full (ENOSPC) at a spill write or segment mmap, or an
//     injected allocation failure at arena growth, surfaces as one clean
//     exception (std::system_error / std::bad_alloc) — never a crash, hang,
//     or silently wrong graph;
//   * the spill directory is removed on the error path (SpillDir unwinds
//     with the partially built graph);
//   * a cli::Session turns the same faults into a structured code-1 Result
//     and keeps serving — and once the fault clears, the retry's bytes are
//     identical to a never-faulted run's.
//
// Every test disarms in TearDown so a failing assertion cannot leak an
// armed fault into later tests. Runs under the `chaos` ctest label.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "../bench/reach_models.h"
#include "analysis/reachability.h"
#include "analysis/timed_reachability.h"
#include "cli/session.h"
#include "petri/net.h"
#include "support/golden_hash.h"
#include "util/fault_inject.h"

namespace pnut {
namespace {

namespace fs = std::filesystem;
using testing::FaultInjector;
using Site = testing::FaultInjector::Site;
using Failure = testing::FaultInjector::Failure;

/// A residency window small enough that the stress ring always spills.
analysis::SpillOptions tiny_spill(const std::string& dir) {
  analysis::SpillOptions spill;
  spill.max_resident_bytes = 24 * 1024;
  spill.segment_bytes = 2 * 1024;
  spill.dir = dir;
  return spill;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::disarm_all();
    dir_ = fs::temp_directory_path() /
           ("pnut_chaos_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::create_directories(dir_);
  }

  void TearDown() override {
    FaultInjector::disarm_all();
    fs::remove_all(dir_);
  }

  /// Number of entries currently under the test directory (a clean error
  /// path leaves zero spill subdirectories behind).
  [[nodiscard]] std::size_t dir_entries() const {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) ++n;
    return n;
  }

  fs::path dir_;
};

TEST_F(ChaosTest, DiskFullAtSpillWriteFailsCleanlyAndRemovesSpillDir) {
  const Net net = reach_models::stress_ring(20, 4);
  analysis::ReachOptions options;
  options.spill = tiny_spill(dir_.string());

  FaultInjector::arm(Site::kSpillWrite, 1, Failure::kDiskFull);
  try {
    const analysis::ReachabilityGraph graph(net, options);
    FAIL() << "expected std::system_error from the injected spill-write fault";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ENOSPC);
  }
  EXPECT_GE(FaultInjector::hits(Site::kSpillWrite), 1u);
  FaultInjector::disarm_all();

  // The failed build's spill subdirectory is gone.
  EXPECT_EQ(dir_entries(), 0u);

  // With the disk "repaired", the same build succeeds and is byte-identical
  // to an all-in-RAM reference.
  const analysis::ReachabilityGraph reference(net, {});
  const analysis::ReachabilityGraph retry(net, options);
  ASSERT_EQ(retry.status(), reference.status());
  ASSERT_EQ(retry.num_states(), reference.num_states());
  ASSERT_EQ(retry.num_edges(), reference.num_edges());
  for (std::size_t s = 0; s < reference.num_states(); ++s) {
    const auto rt = reference.tokens(s);
    const auto tt = retry.tokens(s);
    ASSERT_TRUE(std::equal(rt.begin(), rt.end(), tt.begin(), tt.end()))
        << "state " << s;
  }
}

TEST_F(ChaosTest, DiskFullAtSegmentMapFailsQueryThenRecovers) {
  const Net net = reach_models::stress_ring(20, 4);
  analysis::ReachOptions options;
  options.spill = tiny_spill(dir_.string());
  const analysis::ReachabilityGraph graph(net, options);
  ASSERT_EQ(graph.status(), analysis::ReachStatus::kComplete);
  ASSERT_TRUE(graph.spill_engaged());
  const analysis::ReachabilityGraph reference(net, {});

  // Queries stream over spilled segments; a failing mmap must surface, not
  // corrupt. place_bound scans every state's arena words, so it must fault
  // segments in. Once the fault clears the same query answers correctly —
  // the graph object survives its own query failing.
  FaultInjector::arm(Site::kSpillMap, 1, Failure::kDiskFull);
  EXPECT_THROW((void)graph.place_bound(PlaceId(0)), std::system_error);
  EXPECT_GE(FaultInjector::hits(Site::kSpillMap), 1u);
  FaultInjector::disarm_all();
  EXPECT_EQ(graph.place_bound(PlaceId(0)), reference.place_bound(PlaceId(0)));
  EXPECT_EQ(graph.deadlock_states(), reference.deadlock_states());
  EXPECT_EQ(graph.is_reversible(), reference.is_reversible());
}

TEST_F(ChaosTest, BadAllocAtArenaGrowthFailsCleanly) {
  const Net net = reach_models::stress_ring(20, 4);
  FaultInjector::arm(Site::kArenaGrow, 2, Failure::kBadAlloc);
  EXPECT_THROW(analysis::ReachabilityGraph(net, {}), std::bad_alloc);
  EXPECT_GE(FaultInjector::hits(Site::kArenaGrow), 1u);
  FaultInjector::disarm_all();
  const analysis::ReachabilityGraph retry(net, {});
  EXPECT_EQ(retry.status(), analysis::ReachStatus::kComplete);
}

// --- graph builds: a fault midway through the timed build ---
//
// A fault anywhere in the builder unwinds the build: it fails with the
// injected exception, the spill directory goes with it, and a retry is
// byte-identical to a never-faulted build.

/// How often a clean build checks `site`: the countdown that lands an
/// injected fault mid-build is half of it.
template <typename Build>
std::uint64_t clean_checks(Site site, const Build& build) {
  FaultInjector::arm(site, std::uint64_t{1} << 40);
  build();
  const std::uint64_t checks = FaultInjector::checks(site);
  FaultInjector::disarm_all();
  return checks;
}

class ChaosMidBuildTest : public ChaosTest {
 protected:
  /// Fault `site` halfway through `build` (which returns a fingerprint of
  /// the graph it built), expect `Error`, then a clean retry equal to
  /// `reference`.
  template <typename Error, typename Build>
  void expect_clean_failure(Site site, Failure failure, const Build& build,
                            std::uint64_t reference, const std::string& label) {
    const std::uint64_t checks = clean_checks(site, build);
    ASSERT_GE(checks, 2u) << label;
    FaultInjector::arm(site, checks / 2, failure);
    EXPECT_THROW((void)build(), Error) << label;
    EXPECT_GE(FaultInjector::hits(site), 1u) << label;
    FaultInjector::disarm_all();
    EXPECT_EQ(dir_entries(), 0u) << label;
    EXPECT_EQ(build(), reference) << label;
    EXPECT_EQ(dir_entries(), 0u) << label;
  }
};

TEST_F(ChaosMidBuildTest, UntimedBuildFailsCleanlyAndRetriesIdentically) {
  const Net net = reach_models::stress_ring(20, 4);
  const std::uint64_t reference =
      test_support::hash_graph(analysis::ReachabilityGraph(net, {}), {}, 0);
  analysis::ReachOptions options;
  options.spill = tiny_spill(dir_.string());
  const auto build = [&] {
    const analysis::ReachabilityGraph graph(net, options);
    EXPECT_TRUE(graph.spill_engaged());
    return test_support::hash_graph(graph, {}, 0);
  };
  expect_clean_failure<std::bad_alloc>(Site::kArenaGrow, Failure::kBadAlloc, build,
                                       reference, "arena growth");
  expect_clean_failure<std::system_error>(Site::kSpillWrite, Failure::kDiskFull, build,
                                          reference, "spill write");
}

TEST_F(ChaosMidBuildTest, TimedBuildFailsCleanlyAndRetriesIdentically) {
  const Net net = reach_models::timed_race_ring(9, 3);
  const std::uint64_t reference =
      test_support::hash_timed_graph(analysis::TimedReachabilityGraph(net, {}));
  analysis::TimedReachOptions options;
  options.spill = tiny_spill(dir_.string());
  const auto build = [&] {
    const analysis::TimedReachabilityGraph graph(net, options);
    EXPECT_TRUE(graph.spill_engaged());
    return test_support::hash_timed_graph(graph);
  };
  expect_clean_failure<std::bad_alloc>(Site::kArenaGrow, Failure::kBadAlloc, build,
                                       reference, "arena growth");
  expect_clean_failure<std::system_error>(Site::kSpillWrite, Failure::kDiskFull, build,
                                          reference, "spill write");
}

// --- the Session surface: structured failure, live server, identical retry ---

class ChaosSessionTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    // A ring big enough to spill under the CLI's --max-resident-bytes; the
    // model text mirrors reach_models::stress_ring(20, 4).
    std::string model = "net chaos_ring\n";
    for (int i = 0; i < 20; ++i) {
      model += "place p" + std::to_string(i) + (i == 0 ? " init 4\n" : "\n");
    }
    for (int i = 0; i < 20; ++i) {
      model += "trans t" + std::to_string(i) + " in p" + std::to_string(i) +
               " out p" + std::to_string((i + 1) % 20) + "\n";
    }
    model_path_ = (dir_ / "ring.pn").string();
    std::ofstream(model_path_) << model;
    spill_dir_ = (dir_ / "spill").string();
    fs::create_directories(spill_dir_);
  }

  [[nodiscard]] cli::Request analyze_spill_request() const {
    return {"analyze",
            {model_path_, "--max-resident-bytes", "24K", "--spill-dir", spill_dir_}};
  }

  std::string model_path_;
  std::string spill_dir_;
};

TEST_F(ChaosSessionTest, InjectedDiskFullMidBuildYieldsCode1AndLiveSession) {
  cli::Session session;

  // Reference: the same request on an unfaulted session.
  const cli::Result reference = session.execute(analyze_spill_request());
  ASSERT_EQ(reference.code, 0) << reference.err;

  FaultInjector::arm(Site::kSpillWrite, 1, Failure::kDiskFull);
  const cli::Result faulted = session.execute(analyze_spill_request());
  FaultInjector::disarm_all();
  EXPECT_EQ(faulted.code, 1);
  EXPECT_NE(faulted.err.find("injected disk-full fault"), std::string::npos)
      << faulted.err;
  // Partial output up to the failure is preserved (the invariant report
  // prints before the graph build starts).
  EXPECT_NE(faulted.out.find("place invariants"), std::string::npos) << faulted.out;
  // No spill subdirectory leaks from the failed build.
  EXPECT_EQ(fs::exists(spill_dir_) && !fs::is_empty(spill_dir_), false);

  // The session survived and the retry is byte-identical to the reference.
  const cli::Result retry = session.execute(analyze_spill_request());
  EXPECT_EQ(retry.code, 0) << retry.err;
  EXPECT_EQ(retry.out, reference.out);
  EXPECT_EQ(retry.err, reference.err);
}

TEST_F(ChaosSessionTest, InjectedOomYieldsOutOfMemoryCode1AndLiveSession) {
  cli::Session session;
  FaultInjector::arm(Site::kArenaGrow, 1, Failure::kBadAlloc);
  const cli::Result faulted = session.execute({"analyze", {model_path_}});
  FaultInjector::disarm_all();
  EXPECT_EQ(faulted.code, 1);
  EXPECT_NE(faulted.err.find("out of memory"), std::string::npos) << faulted.err;

  const cli::Result retry = session.execute({"analyze", {model_path_}});
  EXPECT_EQ(retry.code, 0) << retry.err;
  EXPECT_NE(retry.out.find("(complete)"), std::string::npos) << retry.out;
}

TEST_F(ChaosSessionTest, CachingSessionNeverCachesAFaultedBuild) {
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);

  FaultInjector::arm(Site::kArenaGrow, 1, Failure::kBadAlloc);
  const cli::Result faulted = session.execute({"analyze", {model_path_}});
  FaultInjector::disarm_all();
  EXPECT_EQ(faulted.code, 1);
  // The failed build must not have left a graph cache entry a later request
  // could be served from.
  EXPECT_EQ(session.stats().graph_cache_entries, 0u);

  const cli::Result retry = session.execute({"analyze", {model_path_}});
  EXPECT_EQ(retry.code, 0) << retry.err;
  EXPECT_NE(retry.out.find("(complete)"), std::string::npos) << retry.out;
  EXPECT_GT(session.stats().graph_cache_entries, 0u);
}

}  // namespace
}  // namespace pnut
