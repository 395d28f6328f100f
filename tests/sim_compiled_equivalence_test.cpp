// Golden-trace pins for the simulator.
//
// Three guarantees are pinned here:
//
//  1. Golden anchors: trace fingerprints (event count, firing starts, an
//     FNV-1a hash over the full event stream, and the final marking)
//     captured from the pre-CompiledNet simulator on the paper's models.
//     (net, seed, horizon) must keep reproducing those exact traces.
//
//  2. The incremental (dirty-set, inverse-adjacency-driven) eligibility
//     update keeps reproducing the runs of the historical whole-net
//     rescan, frozen as test_support::hash_sim_run fingerprints while the
//     rescan still ran — on the paper's Figure 1 and Figure 4 models and
//     on stochastic nets exercising every delay kind.
//
//  3. Resumable runs (SimulatorResume): chunked run_until, run_for, event
//     budgets, reset without a seed and a sink reading the live state,
//     pinned to fingerprints frozen from the scalar engine.
#include <gtest/gtest.h>

#include <string>

#include "expr/compile.h"
#include "petri/compiled_net.h"
#include "pipeline/interpreted.h"
#include "pipeline/model.h"
#include "sim/simulator.h"
#include "stat/stat.h"
#include "support/sim_run.h"
#include "trace/trace.h"

namespace pnut {
namespace {

using test_support::expect_pin;
using test_support::Fingerprint;
using test_support::driven_run;
using test_support::SimRun;
using test_support::sim_run;

/// Fold one run's fingerprint into `pin`.
void fold_run(const Net& net, std::uint64_t seed, Time horizon, Fingerprint& pin) {
  pin.u64(test_support::hash_sim_run(sim_run(net, seed, horizon)));
}

/// Every delay kind, conflicts, infinite-server and inhibitor arcs: enabling
/// timers are armed, disarmed and left stale in the event queue.
Net stochastic_enabling_net() {
  Net net("stochastic_enabling");
  const PlaceId p = net.add_place("P", 3);
  const PlaceId q = net.add_place("Q");
  const PlaceId r = net.add_place("R", 1);
  const TransitionId a = net.add_transition("a");
  net.add_input(a, p);
  net.add_output(a, q);
  net.set_enabling_time(a, DelaySpec::uniform_int(1, 4));
  net.set_firing_time(a, DelaySpec::uniform_int(1, 3));
  const TransitionId b = net.add_transition("b");
  net.add_input(b, p);
  net.add_output(b, q);
  net.set_enabling_time(b, DelaySpec::discrete({{1, 0.5}, {3, 0.5}}));
  net.set_frequency(b, 2.5);
  const TransitionId c = net.add_transition("c");
  net.add_input(c, q);
  net.add_output(c, p);
  net.set_enabling_time(c, DelaySpec::uniform_int(0, 2));
  net.set_policy(c, FiringPolicy::kInfiniteServer);
  const TransitionId watcher = net.add_transition("watcher");
  net.add_input(watcher, r);
  net.add_output(watcher, r);
  net.add_inhibitor(watcher, q, 2);
  net.set_firing_time(watcher, DelaySpec::constant(2));
  return net;
}

/// FNV-1a over the event stream; mirrors the fingerprint tool that captured
/// the golden values from the pre-refactor simulator.
std::uint64_t trace_hash(const RecordedTrace& trace) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const TraceEvent& ev : trace.events()) {
    mix(static_cast<std::uint64_t>(ev.kind));
    mix(static_cast<std::uint64_t>(ev.time * 1024));
    mix(ev.transition.value);
    mix(ev.firing_id);
    for (const auto& d : ev.consumed) {
      mix(d.place.value);
      mix(d.count);
    }
    for (const auto& d : ev.produced) {
      mix(d.place.value);
      mix(d.count);
    }
    for (const auto& u : ev.scalar_updates) {
      mix(std::hash<std::string>{}(u.name));
      mix(static_cast<std::uint64_t>(u.value));
    }
    for (const auto& u : ev.table_updates) {
      mix(std::hash<std::string>{}(u.name));
      mix(static_cast<std::uint64_t>(u.index));
      mix(static_cast<std::uint64_t>(u.value));
    }
  }
  return h;
}

struct Golden {
  std::uint64_t seed;
  Time horizon;
  std::size_t events;
  std::uint64_t starts;
  std::uint64_t hash;
  const char* final_marking;
};

void expect_golden(const Net& net, const Golden& golden) {
  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(golden.seed);
  sim.run_until(golden.horizon);
  sim.finish();
  EXPECT_EQ(trace.events().size(), golden.events);
  EXPECT_EQ(sim.total_firing_starts(), golden.starts);
  EXPECT_EQ(trace_hash(trace), golden.hash);
  EXPECT_EQ(sim.marking().to_string(net), golden.final_marking);
}

// --- golden anchors (captured from the pre-refactor simulator) --------------

TEST(SimCompiledEquivalence, GoldenFigure1Prefetch) {
  expect_golden(pipeline::build_prefetch_model(),
                {42, 5000, 7996, 5998, 0xba28f7a093518ef4ULL,
                 "Bus_busy=1 Empty_I_buffers=2 Full_I_buffers=1 pre_fetching=1"});
}

TEST(SimCompiledEquivalence, GoldenFullPipelineModel) {
  expect_golden(pipeline::build_full_model(),
                {7, 2000, 2392, 1837, 0x6c7860d2c78cafc8ULL,
                 "Bus_free=1 Full_I_buffers=6 ready_to_issue_instruction=1"});
}

TEST(SimCompiledEquivalence, GoldenFigure4OperandFetch) {
  expect_golden(pipeline::build_interpreted_operand_fetch(),
                {1234, 3000, 2539, 2024, 0x0886b66f8f7da114ULL, "Bus_busy=1 fetching=1"});
}

TEST(SimCompiledEquivalence, GoldenFigure4InterpretedPipeline) {
  expect_golden(pipeline::build_interpreted_pipeline(),
                {99, 2000, 2533, 1992, 0xdac6e78af91969d0ULL,
                 "Bus_busy=1 Operand_fetch_pending=1 Empty_I_buffers=1 "
                 "Full_I_buffers=3 pre_fetching=1"});
}

// --- incremental eligibility vs the frozen whole-net rescan ----------------

TEST(SimCompiledEquivalence, MatchesFrozenRescanOnFigure1Prefetch) {
  const Net net = pipeline::build_prefetch_model();
  Fingerprint pin;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) fold_run(net, seed, 3000, pin);
  expect_pin(pin, 0x880a1132be1432b4ULL);
}

TEST(SimCompiledEquivalence, MatchesFrozenRescanOnFullModel) {
  const Net net = pipeline::build_full_model();
  Fingerprint pin;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) fold_run(net, seed, 2000, pin);
  expect_pin(pin, 0x94c91a0edba12c8cULL);
}

TEST(SimCompiledEquivalence, MatchesFrozenRescanOnFigure4Models) {
  const Net fetch = pipeline::build_interpreted_operand_fetch();
  const Net full = pipeline::build_interpreted_pipeline();
  Fingerprint pin;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    fold_run(fetch, seed, 2000, pin);
    fold_run(full, seed, 1500, pin);
  }
  expect_pin(pin, 0x5a16c7fbad1edf27ULL);
}

TEST(SimCompiledEquivalence, MatchesFrozenRescanWithStochasticEnablingDelays) {
  // Non-constant enabling delays consume RNG draws when transitions become
  // eligible — the hardest case for keeping the dirty-set refresh's draw
  // order identical to the whole-net rescan's.
  const Net net = stochastic_enabling_net();
  Fingerprint pin;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) fold_run(net, seed, 500, pin);
  expect_pin(pin, 0x9c85031698e4be67ULL);
}

TEST(SimCompiledEquivalence, MatchesFrozenRescanWithPredicatesAndActions) {
  // An action flips a variable; a predicated transition elsewhere in the
  // net (sharing no places) must still be re-evaluated after the action.
  Net net("predicated");
  net.initial_data().set("gate", 0);
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q", 1);
  const TransitionId toggler = net.add_transition("toggler");
  net.add_input(toggler, p);
  net.add_output(toggler, p);
  net.set_firing_time(toggler, DelaySpec::constant(3));
  net.set_action(toggler, expr::compile_action("gate = irand[0, 1]"));
  const TransitionId gated = net.add_transition("gated");
  net.add_input(gated, q);
  net.add_output(gated, q);
  net.set_firing_time(gated, DelaySpec::constant(2));
  net.set_predicate(gated, expr::compile_predicate("gate == 1"));
  Fingerprint pin;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) fold_run(net, seed, 400, pin);
  expect_pin(pin, 0xc6c2318f5b0c7673ULL);
}

TEST(SimCompiledEquivalence, SharedCompiledNetReproducesIndependentRuns) {
  // Many simulators off one immutable CompiledNet: each must behave exactly
  // as a simulator that compiled the net privately.
  const Net net = pipeline::build_full_model();
  const auto shared = CompiledNet::compile(net);

  for (std::uint64_t seed = 3; seed <= 5; ++seed) {
    RecordedTrace from_shared;
    Simulator shared_sim(shared);
    shared_sim.set_sink(&from_shared);
    shared_sim.reset(seed);
    shared_sim.run_until(1500);
    shared_sim.finish();

    const RecordedTrace from_private = sim_run(net, seed, 1500).trace;
    EXPECT_EQ(from_shared, from_private);
  }
}

TEST(SimCompiledEquivalence, CompiledNetOutlivesSourceNet) {
  // The simulator owns the compiled snapshot; the Net may be destroyed.
  std::shared_ptr<const CompiledNet> compiled;
  {
    const Net net = pipeline::build_prefetch_model();
    compiled = CompiledNet::compile(net);
  }
  Simulator sim(compiled);
  sim.reset(11);
  sim.run_until(1000);
  EXPECT_GT(sim.total_firing_starts(), 0u);
}

// --- resumable runs ---------------------------------------------------------
//
// What a Simulator does beyond one run from reset to horizon: resume across
// calls, stop on an event budget, reset without a seed, and expose its live
// state to its own sink.

TEST(SimulatorResume, ChunkedRunUntilMatchesOneCall) {
  const Net net = pipeline::build_interpreted_pipeline();
  const SimRun once = sim_run(net, 5, 2000);
  const SimRun chunked = driven_run(net, 5, [](Simulator& sim) {
    for (Time t = 137; t < 2000; t += 137) sim.run_until(t);
    return sim.run_until(2000);
  });
  EXPECT_EQ(chunked.trace, once.trace);
  const std::uint64_t hash = test_support::hash_sim_run(chunked);
  EXPECT_EQ(hash, test_support::hash_sim_run(once));
  EXPECT_EQ(hash, 0x97f8e7b2b2aa9737ULL) << test_support::hex_literal(hash);
}

TEST(SimulatorResume, RunForAdvancesFromTheClock) {
  const Net net = pipeline::build_full_model();
  const SimRun once = sim_run(net, 8, 2000);
  const SimRun stepped = driven_run(net, 8, [](Simulator& sim) {
    StopReason stop = StopReason::kTimeLimit;
    for (int i = 0; i < 20; ++i) stop = sim.run_for(100);
    return stop;
  });
  EXPECT_EQ(stepped.trace, once.trace);
  const std::uint64_t hash = test_support::hash_sim_run(stepped);
  EXPECT_EQ(hash, test_support::hash_sim_run(once));
  EXPECT_EQ(hash, 0x25456a91578c8787ULL) << test_support::hex_literal(hash);
}

TEST(SimulatorResume, EventBudgetStopsMidInstant) {
  // Two firings complete at t=5: a budget of one stops between them.
  Net net("twins");
  for (const char* name : {"a", "b"}) {
    const PlaceId in = net.add_place(std::string("in_") + name, 1);
    const PlaceId out = net.add_place(std::string("out_") + name);
    const TransitionId t = net.add_transition(name);
    net.add_input(t, in);
    net.add_output(t, out);
    net.set_firing_time(t, DelaySpec::constant(5));
  }
  Simulator sim(net);
  EXPECT_EQ(sim.run_until(10, 1), StopReason::kEventLimit);
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.completed_firings(TransitionId(0)) + sim.completed_firings(TransitionId(1)),
            1u);
  EXPECT_EQ(sim.marking().total(), 1u);
  EXPECT_EQ(sim.run_until(10), StopReason::kDeadlock);
  EXPECT_EQ(sim.now(), 10.0);
  EXPECT_EQ(sim.marking().total(), 2u);
}

TEST(SimulatorResume, EventBudgetCountsLiveEventsOnly) {
  // Stale enabling timers pop without counting against the budget; the
  // budget is checked before each pop. Chained budgeted calls replay the
  // uninterrupted run.
  const Net net = stochastic_enabling_net();
  Fingerprint pin;
  const SimRun budgeted = driven_run(net, 3, [&](Simulator& sim) {
    StopReason stop = StopReason::kEventLimit;
    while ((stop = sim.run_until(500, 7)) == StopReason::kEventLimit) {
      pin.f64(sim.now());
      pin.u64(sim.total_firing_starts());
      test_support::add_marking(pin, sim.marking());
    }
    return stop;
  });
  EXPECT_EQ(budgeted.trace, sim_run(net, 3, 500).trace);
  pin.u64(test_support::hash_sim_run(budgeted));
  expect_pin(pin, 0x177180a9fe014fd0ULL);
}

TEST(SimulatorResume, ResetWithoutSeedContinuesTheRandomStream) {
  const Net net = stochastic_enabling_net();
  RecordedTrace first;
  RecordedTrace second;
  Simulator sim(net);
  sim.set_sink(&first);
  sim.reset();
  sim.run_until(300);
  sim.finish();
  sim.set_sink(&second);
  sim.reset();
  sim.run_until(300);
  sim.finish();
  EXPECT_NE(first, second);
  Fingerprint pin;
  pin.u64(test_support::hash_trace(first));
  pin.u64(test_support::hash_trace(second));
  expect_pin(pin, 0x153226f76cefe462ULL);
}

/// A sink that reads its simulator's live state on every callback and
/// checks it against the state the trace so far implies.
class LiveStateProbe final : public TraceSink {
 public:
  explicit LiveStateProbe(const Simulator& sim) : sim_(sim) {}

  void begin(const TraceHeader& header) override {
    marking_ = header.initial_marking;
    data_ = header.initial_data;
    probe();
  }
  void event(const TraceEvent& ev) override {
    for (const TokenDelta& d : ev.consumed) marking_.remove(d.place, d.count);
    for (const TokenDelta& d : ev.produced) marking_.add(d.place, d.count);
    for (const ScalarUpdate& u : ev.scalar_updates) data_.set(u.name, u.value);
    for (const TableUpdate& u : ev.table_updates) {
      data_.set_table_entry(u.name, u.index, u.value);
    }
    probe();
  }
  void end(Time) override { probe(); }

  Fingerprint fingerprint;

 private:
  void probe() {
    EXPECT_EQ(sim_.marking(), marking_);
    EXPECT_EQ(sim_.data(), data_);
    fingerprint.f64(sim_.now());
    test_support::add_marking(fingerprint, sim_.marking());
    test_support::add_data(fingerprint, sim_.data());
    fingerprint.u64(sim_.total_firing_starts());
    for (std::uint32_t t = 0; t < sim_.compiled().num_transitions(); ++t) {
      fingerprint.u64(sim_.active_firings(TransitionId(t)));
      fingerprint.u64(sim_.completed_firings(TransitionId(t)));
    }
  }

  const Simulator& sim_;
  Marking marking_;
  DataContext data_;
};

TEST(SimulatorResume, SinkReadsLiveMarkingAndData) {
  const Net net = pipeline::build_interpreted_pipeline();
  Simulator sim(net);
  LiveStateProbe probe(sim);
  sim.set_sink(&probe);
  sim.reset(17);
  sim.run_until(400);
  sim.finish();
  expect_pin(probe.fingerprint, 0x42db1f55af66f941ULL);
}

}  // namespace
}  // namespace pnut
