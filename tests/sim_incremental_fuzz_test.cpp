// Randomized pins for the simulator's incremental eligibility.
//
// tests/sim_compiled_equivalence_test.cpp pins the incremental (dirty-set)
// eligibility update to runs of the historical whole-net rescan on the
// paper's golden models and a few hand-built nets. This file widens that
// to populations of fuzzed nets (tests/support/net_fuzz.h): random
// structure, arc multiplicities, inhibitor arcs, every DelaySpec kind,
// frequencies, firing policies, and — in the interpreted population —
// predicates and actions whose data writes must re-dirty predicated
// transitions anywhere in the net. Each population folds every run's
// test_support::hash_sim_run fingerprint into one constant, frozen while
// the rescan still ran and was diffed trace-for-trace against the
// incremental update; any divergence in RNG consumption order shows up as
// a changed fingerprint.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "support/net_fuzz.h"
#include "support/sim_run.h"
#include "trace/trace.h"

namespace pnut {
namespace {

using test_support::expect_pin;
using test_support::Fingerprint;
using test_support::sim_run;

/// Fold one run's fingerprint into the population's `pin`.
void fold_run(const Net& net, std::uint64_t sim_seed, Time horizon, Fingerprint& pin) {
  pin.u64(test_support::hash_sim_run(sim_run(net, sim_seed, horizon)));
}

TEST(SimIncrementalFuzz, TimedNets) {
  test_support::FuzzOptions fuzz;
  fuzz.timed = true;
  fuzz.lossy_pct = 0;  // token-preserving: stays live for the whole horizon
  Fingerprint pin;
  for (std::uint64_t net_seed = 1; net_seed <= 25; ++net_seed) {
    const Net net = test_support::fuzz_net(net_seed, fuzz);
    for (std::uint64_t sim_seed = 1; sim_seed <= 3; ++sim_seed) {
      fold_run(net, sim_seed, 300, pin);
    }
  }
  expect_pin(pin, 0x7ff19b37550af305ULL);
}

TEST(SimIncrementalFuzz, TimedInterpretedNets) {
  // Actions mutate data mid-run, so predicated transitions must be
  // re-evaluated even when none of their places changed — the case the
  // dirty set is most likely to get wrong.
  test_support::FuzzOptions fuzz;
  fuzz.timed = true;
  fuzz.interpreted = true;
  fuzz.lossy_pct = 0;
  Fingerprint pin;
  for (std::uint64_t net_seed = 101; net_seed <= 125; ++net_seed) {
    const Net net = test_support::fuzz_net(net_seed, fuzz);
    for (std::uint64_t sim_seed = 1; sim_seed <= 3; ++sim_seed) {
      fold_run(net, sim_seed, 300, pin);
    }
  }
  expect_pin(pin, 0xea8c6cf20b8726f0ULL);
}

TEST(SimIncrementalFuzz, InhibitorHeavyNets) {
  // Inhibitor thresholds flip enablement on token *increase* — the inverse
  // watcher direction — so bias the population toward them.
  test_support::FuzzOptions fuzz;
  fuzz.timed = true;
  fuzz.inhibitor_pct = 80;
  fuzz.lossy_pct = 5;
  Fingerprint pin;
  for (std::uint64_t net_seed = 201; net_seed <= 215; ++net_seed) {
    const Net net = test_support::fuzz_net(net_seed, fuzz);
    for (std::uint64_t sim_seed = 1; sim_seed <= 3; ++sim_seed) {
      fold_run(net, sim_seed, 300, pin);
    }
  }
  expect_pin(pin, 0x9b32c0ea603eeafbULL);
}

}  // namespace
}  // namespace pnut
