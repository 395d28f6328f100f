// One Simulator run with every observable recorded — trace, Figure-5
// statistics, stop reason, clock, firing starts and final marking — plus
// its golden fingerprint (golden_hash.h). The simulator differential
// suites pin these fingerprints to constants frozen while the scalar
// engine (with its whole-net eligibility rescan) still ran beside the batch
// lane kernel.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "golden_hash.h"
#include "petri/compiled_net.h"
#include "petri/marking.h"
#include "sim/simulator.h"
#include "stat/stat.h"
#include "trace/trace.h"

namespace pnut::test_support {

struct SimRun {
  RecordedTrace trace;
  RunStats stats;
  StopReason stop = StopReason::kTimeLimit;
  Time now = 0;
  std::uint64_t firing_starts = 0;
  Marking marking;
};

/// Run `net` seeded `seed` with a trace recorder and a stat collector
/// attached — the harness every figure-producing run uses. `drive` makes
/// the run calls on the reset simulator and returns the last stop reason.
template <typename Drive>
SimRun driven_run(const Net& net, std::uint64_t seed, Drive drive) {
  SimRun out;
  StatCollector collector;
  MultiSink sinks;
  sinks.add(out.trace);
  sinks.add(collector);
  Simulator sim(CompiledNet::compile(net));
  sim.set_sink(&sinks);
  sim.reset(seed);
  out.stop = drive(sim);
  sim.finish();
  out.stats = collector.stats();
  out.now = sim.now();
  out.firing_starts = sim.total_firing_starts();
  out.marking = sim.marking();
  return out;
}

/// One run_until call to `horizon`.
inline SimRun sim_run(const Net& net, std::uint64_t seed, Time horizon) {
  return driven_run(net, seed, [horizon](Simulator& sim) { return sim.run_until(horizon); });
}

inline void add_marking(Fingerprint& f, const Marking& m) {
  f.u64(m.size());
  for (const TokenCount t : m.tokens()) f.u64(t);
}

[[nodiscard]] inline std::uint64_t hash_sim_run(const SimRun& run) {
  Fingerprint f;
  f.u64(hash_trace(run.trace));
  f.u64(hash_stats(run.stats));
  f.u64(static_cast<std::uint64_t>(run.stop));
  f.f64(run.now);
  f.u64(run.firing_starts);
  add_marking(f, run.marking);
  return f.value();
}

/// Pin a folded fingerprint; a mismatch prints the literal to paste.
inline void expect_pin(const Fingerprint& pin, std::uint64_t frozen) {
  EXPECT_EQ(pin.value(), frozen) << hex_literal(pin.value());
}

}  // namespace pnut::test_support
