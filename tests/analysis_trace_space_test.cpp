// TraceStateSpace against the TraceCursor oracle.
//
// A trace state space stores each state as arena words: tokens, in-flight
// counts and the trace's scalars in DataSchema encoding. A TraceCursor
// replays the same trace with a string-keyed DataContext. For every state,
// the marking, the in-flight counts, the clock and every scalar a state of
// the trace holds (read the way the query engine and the tracer read it:
// resolved once with find_variable, then by slot) must equal the cursor's,
// absent scalars included. Run on simulated traces of fuzzed interpreted
// nets (counters, table writes, actions that create a scalar mid-run), of
// the shipped models and of Figure 4's table-driven pipeline.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/state_space.h"
#include "pipeline/interpreted.h"
#include "sim/simulator.h"
#include "support/net_fuzz.h"
#include "textio/pn_format.h"
#include "trace/trace_text.h"

namespace pnut::analysis {
namespace {

RecordedTrace simulate(const Net& net, Time horizon, std::uint64_t seed) {
  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(seed);
  sim.run_until(horizon);
  sim.finish();
  return trace;
}

/// What one trace exercised, for the coverage checks of the callers.
struct Exercised {
  bool created_scalar = false;  ///< a scalar absent in state 0, present later
  bool table_update = false;
};

/// Compares `trace`'s state space with a cursor replay, state by state.
Exercised expect_matches_cursor(const RecordedTrace& trace, const std::string& label) {
  Exercised seen;
  // Every scalar some state holds, plus a name none does.
  std::set<std::string> names{"no_such_variable"};
  for (TraceCursor c(trace);; c.step()) {
    for (const auto& [name, value] : c.data().scalars()) {
      names.insert(name);
      seen.created_scalar |= !trace.header().initial_data.has(name);
    }
    if (c.at_end()) break;
  }
  for (const TraceEvent& ev : trace.events()) seen.table_update |= !ev.table_updates.empty();

  const TraceStateSpace space(trace);
  EXPECT_EQ(space.num_states(), trace.num_states()) << label;
  std::vector<std::optional<std::uint32_t>> slots;
  for (const std::string& name : names) {
    slots.push_back(space.find_variable(name));
    EXPECT_EQ(slots.back().has_value(), name != "no_such_variable") << label << ' ' << name;
  }

  TraceCursor cursor(trace);
  const std::size_t num_places = trace.header().place_names.size();
  const std::size_t num_transitions = trace.header().transition_names.size();
  for (std::size_t s = 0;; ++s) {
    std::ostringstream mismatch;
    for (std::uint32_t p = 0; p < num_places; ++p) {
      if (space.place_tokens(s, PlaceId(p)) != cursor.marking()[PlaceId(p)]) {
        mismatch << " place " << p;
      }
    }
    for (std::uint32_t t = 0; t < num_transitions; ++t) {
      if (space.transition_activity(s, TransitionId(t)) !=
          cursor.active_firings(TransitionId(t))) {
        mismatch << " transition " << t;
      }
    }
    if (space.state_time(s) != cursor.time()) mismatch << " time";
    std::size_t k = 0;
    for (const std::string& name : names) {
      const std::optional<std::int64_t> expected =
          cursor.data().has(name) ? std::optional(cursor.data().get(name)) : std::nullopt;
      const std::optional<std::uint32_t>& slot = slots[k++];
      if ((slot ? space.variable(s, *slot) : std::nullopt) != expected) {
        mismatch << " variable " << name;
      }
    }
    if (!mismatch.str().empty()) {
      ADD_FAILURE() << label << ": state " << s << " differs in" << mismatch.str();
      return seen;
    }
    if (cursor.at_end()) break;
    cursor.step();
  }
  return seen;
}

TEST(TraceStateSpaceOracle, FuzzedInterpretedNetsMatchACursorReplay) {
  test_support::FuzzOptions options;
  options.interpreted = true;
  options.timed = true;
  options.lossy_pct = 0;
  int created = 0;
  int tables = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const Net net = test_support::fuzz_net(seed, options);
    const Exercised seen =
        expect_matches_cursor(simulate(net, 60, seed + 1), "seed " + std::to_string(seed));
    created += seen.created_scalar ? 1 : 0;
    tables += seen.table_update ? 1 : 0;
  }
  // The population reaches both data features the schema has to handle.
  EXPECT_GT(created, 0);
  EXPECT_GT(tables, 0);
}

TEST(TraceStateSpaceOracle, ShippedModelsAndTheInterpretedPipelineMatchACursorReplay) {
  for (const char* model : {"pipeline_nocache.pn", "ext_cache_icache.pn", "ext_cache_dcache.pn",
                            "ext_cache_unified.pn"}) {
    std::ifstream in(std::string(PNUT_MODELS_DIR) + "/" + model);
    std::stringstream source;
    source << in.rdbuf();
    const textio::NetDocument doc = textio::parse_net(source.str());
    (void)expect_matches_cursor(simulate(doc.net, 400, 11), model);
  }
  (void)expect_matches_cursor(simulate(pipeline::build_interpreted_pipeline(), 300, 1988),
                              "fig4");
}

TEST(TraceStateSpaceOracle, EndEventUpdatesAreIgnoredAsTheCursorIgnoresThem) {
  // The reader accepts `v:` fields on an E line, but a cursor applies
  // updates only on S and A events: `late` exists in no state.
  const RecordedTrace trace = read_trace_text(
      "pnut-trace 1\n"
      "net n\n"
      "place 0 p 1\n"
      "transition 0 t\n"
      "var x 1\n"
      "start 0\n"
      "S 0 0 0 p0:1 v:x=2 v:y=3\n"
      "E 1 0 0 q0:1 v:late=4 v:x=9\n"
      "end 1\n");
  (void)expect_matches_cursor(trace, "end updates");
  const TraceStateSpace space(trace);
  EXPECT_FALSE(space.find_variable("late").has_value());
  EXPECT_EQ(space.variable(2, *space.find_variable("x")), 2);
  EXPECT_EQ(space.variable(0, *space.find_variable("y")), std::nullopt);
  EXPECT_EQ(space.variable(1, *space.find_variable("y")), 3);
}

}  // namespace
}  // namespace pnut::analysis
