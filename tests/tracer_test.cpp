// Unit tests for tracertool: signals, user-defined functions, markers,
// rendering, and trace verification (Figure 7 / Section 4.4).
#include <gtest/gtest.h>

#include "expr/compile.h"
#include "pipeline/model.h"
#include "sim/simulator.h"
#include "expr/ast.h"
#include "expr/lexer.h"
#include "tracer/tracer.h"

namespace pnut::tracer {
namespace {

/// Deterministic square-wave net: Bus alternates busy(3)/free(2).
Net square_wave_net() {
  Net net("wave");
  const PlaceId bus_free = net.add_place("Bus_free", 1);
  const PlaceId bus_busy = net.add_place("Bus_busy");
  const TransitionId grab = net.add_transition("grab");
  net.add_input(grab, bus_free);
  net.add_output(grab, bus_busy);
  net.set_enabling_time(grab, DelaySpec::constant(2));
  const TransitionId drop = net.add_transition("drop");
  net.add_input(drop, bus_busy);
  net.add_output(drop, bus_free);
  net.set_enabling_time(drop, DelaySpec::constant(3));
  return net;
}

RecordedTrace run(const Net& net, Time horizon, std::uint64_t seed = 1) {
  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(seed);
  sim.run_until(horizon);
  sim.finish();
  return trace;
}

TEST(Tracer, PlaceSignalSamplesTokenCounts) {
  const Net net = square_wave_net();
  const RecordedTrace trace = run(net, 20);
  Tracer tracer(trace);
  tracer.add_place_signal("Bus_busy");
  ASSERT_EQ(tracer.num_signals(), 1u);
  EXPECT_EQ(tracer.signal_label(0), "Bus_busy");
  // Free over [0,2), busy [2,5), free [5,7), busy [7,10)...
  EXPECT_EQ(tracer.value_at(0, 1.0), 0);
  EXPECT_EQ(tracer.value_at(0, 2.0), 1);
  EXPECT_EQ(tracer.value_at(0, 4.9), 1);
  EXPECT_EQ(tracer.value_at(0, 5.0), 0);
  EXPECT_EQ(tracer.value_at(0, 7.5), 1);
}

TEST(Tracer, TransitionSignalTracksInFlight) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(4));

  const RecordedTrace trace = run(net, 20);
  Tracer tracer(trace);
  tracer.add_transition_signal("T");
  EXPECT_EQ(tracer.value_at(0, 1.0), 1);  // firing 0..4
  EXPECT_EQ(tracer.value_at(0, 4.0), 1);  // restarted at 4
}

TEST(Tracer, VariableSignal) {
  Net net;
  net.initial_data().set("count", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(5));
  net.set_action(t, expr::compile_action("count = count + 1"));

  const RecordedTrace trace = run(net, 22);
  Tracer tracer(trace);
  tracer.add_variable_signal("count");
  EXPECT_EQ(tracer.value_at(0, 0.5), 1);   // first firing at t=0
  EXPECT_EQ(tracer.value_at(0, 12.0), 3);  // firings at 0, 5, 10
}

TEST(Tracer, FunctionSignalSumsActivity) {
  // Figure 7's user-defined function: the sum of execution transitions.
  const Net net = pipeline::build_full_model();
  const RecordedTrace trace = run(net, 2000, 42);
  Tracer tracer(trace);
  tracer.add_function_signal("exec_any",
                             "exec_type_1 + exec_type_2 + exec_type_3 + exec_type_4 + "
                             "exec_type_5");
  tracer.add_transition_signal("exec_type_1");
  tracer.add_transition_signal("exec_type_2");
  tracer.add_transition_signal("exec_type_3");
  tracer.add_transition_signal("exec_type_4");
  tracer.add_transition_signal("exec_type_5");

  // Pointwise: sum of individual signals equals the function signal.
  for (Time t = 0; t < 2000; t += 37) {
    std::int64_t sum = 0;
    for (std::size_t i = 1; i <= 5; ++i) sum += tracer.value_at(i, t);
    ASSERT_EQ(tracer.value_at(0, t), sum) << "at t=" << t;
  }
}

TEST(Tracer, FunctionSignalUsesVariablesAndPlaces) {
  Net net;
  net.initial_data().set("offset", 10);
  const PlaceId p = net.add_place("P", 2);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(1));

  const RecordedTrace trace = run(net, 10);
  Tracer tracer(trace);
  tracer.add_function_signal("shifted", "P + offset");
  EXPECT_GE(tracer.value_at(0, 0.5), 11);  // 1 or 2 tokens + 10
}

TEST(Tracer, UnknownNamesRejectedAtDefinition) {
  const Net net = square_wave_net();
  const RecordedTrace trace = run(net, 10);
  Tracer tracer(trace);
  EXPECT_THROW(tracer.add_place_signal("nope"), std::invalid_argument);
  EXPECT_THROW(tracer.add_transition_signal("nope"), std::invalid_argument);
  EXPECT_THROW(tracer.add_variable_signal("nope"), std::invalid_argument);
  EXPECT_THROW(tracer.add_function_signal("f", "nope + 1"), expr::EvalError);
  EXPECT_THROW(tracer.add_function_signal("f", "1 +"), expr::ParseError);
}

TEST(Tracer, FunctionSignalErrorsArePinned) {
  const Net net = square_wave_net();
  const RecordedTrace trace = run(net, 10);
  Tracer tracer(trace);
  const auto error_of = [&](const char* expression) -> std::string {
    try {
      tracer.add_function_signal("f", expression);
    } catch (const expr::EvalError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of("nope + 1"), "unknown identifier 'nope'");
  EXPECT_EQ(error_of("irand(1, 2)"),
            "irand is not allowed here (no random source; predicates must be "
            "deterministic)");
  EXPECT_EQ(error_of("Bus_busy[0]"),
            "unknown function or table 'Bus_busy' with 1 argument(s)");
  EXPECT_EQ(error_of("min(1)"), "min expects 2 arguments, got 1");
  EXPECT_EQ(error_of("grab / (Bus_busy - Bus_busy)"), "division by zero");
  EXPECT_EQ(error_of("(0 - 9223372036854775807 - 1) / (0 - 1)"), "division overflow");
  // Operands evaluate left to right: the first failure wins.
  EXPECT_EQ(error_of("1 / 0 + nope"), "division by zero");
  EXPECT_EQ(error_of("nope + 1 / 0"), "unknown identifier 'nope'");
  EXPECT_EQ(tracer.num_signals(), 0u);  // a failed signal is not added
}

TEST(Tracer, FunctionSignalNamesResolvePlaceTransitionVariable) {
  // `x` is both a place and a variable, `T` both a transition and a
  // variable: the net element wins. `late` exists only once T's action
  // has run, so reading it fails at the first state before that.
  Net net;
  net.initial_data().set("x", 100);
  net.initial_data().set("T", 200);
  const PlaceId x = net.add_place("x", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, x);
  net.add_output(t, x);
  net.set_firing_time(t, DelaySpec::constant(2));
  net.set_action(t, expr::compile_action("late = 7"));

  const RecordedTrace trace = run(net, 9);
  Tracer tracer(trace);
  tracer.add_function_signal("xt", "x * 10 + T");
  EXPECT_EQ(tracer.series(0).front(), 10);  // initial state: x holds 1 token
  EXPECT_EQ(tracer.value_at(0, 2.0), 1);    // x empty, T firing again
  tracer.add_function_signal("guarded", "(x > 5) && late");
  EXPECT_EQ(tracer.value_at(1, 8.0), 0);
  try {
    tracer.add_function_signal("late", "late + 1");
    ADD_FAILURE() << "an absent variable must not read as a value";
  } catch (const expr::EvalError& e) {
    EXPECT_STREQ(e.what(), "unknown identifier 'late'");
  }
  EXPECT_EQ(tracer.num_signals(), 2u);
}

TEST(Tracer, MarkersMeasureIntervals) {
  const Net net = square_wave_net();
  const RecordedTrace trace = run(net, 100);
  Tracer tracer(trace);
  tracer.set_marker('O', 54);
  tracer.set_marker('X', 94);
  EXPECT_EQ(tracer.marker('O'), Time{54});
  EXPECT_EQ(tracer.marker_distance('O', 'X'), 40.0);
  EXPECT_FALSE(tracer.marker('Z').has_value());
  EXPECT_THROW((void)tracer.marker_distance('O', 'Z'), std::invalid_argument);
  tracer.set_marker('O', 10);  // markers are movable
  EXPECT_EQ(tracer.marker_distance('O', 'X'), 84.0);
}

TEST(Tracer, MarkerAtState) {
  const Net net = square_wave_net();
  const RecordedTrace trace = run(net, 30);
  Tracer tracer(trace);
  tracer.set_marker_at_state('A', 0);
  EXPECT_EQ(tracer.marker('A'), Time{0});
}

TEST(Tracer, FirstTimeAtOrAbove) {
  const Net net = square_wave_net();
  const RecordedTrace trace = run(net, 30);
  Tracer tracer(trace);
  tracer.add_place_signal("Bus_busy");
  EXPECT_EQ(tracer.first_time_at_or_above(0, 1), Time{2});
  EXPECT_EQ(tracer.first_time_at_or_above(0, 1, 6), Time{7});
  EXPECT_FALSE(tracer.first_time_at_or_above(0, 2).has_value());
}

TEST(Tracer, RenderProducesWaveformRows) {
  const Net net = square_wave_net();
  const RecordedTrace trace = run(net, 40);
  Tracer tracer(trace);
  tracer.add_place_signal("Bus_busy");
  tracer.add_place_signal("Bus_free");
  tracer.set_marker('O', 10);
  tracer.set_marker('X', 30);

  RenderOptions options;
  options.columns = 40;
  const std::string display = tracer.render(0, 40, options);
  EXPECT_NE(display.find("Bus_busy"), std::string::npos);
  EXPECT_NE(display.find("Bus_free"), std::string::npos);
  EXPECT_NE(display.find("O position"), std::string::npos);
  EXPECT_NE(display.find("O <-> X: 20"), std::string::npos);
  // The waveform alternates: both glyph classes appear in the busy row.
  const std::size_t row_start = display.find("Bus_busy");
  const std::string row = display.substr(row_start, display.find('\n', row_start) - row_start);
  EXPECT_NE(row.find('_'), std::string::npos);
  EXPECT_NE(row.find('@'), std::string::npos);
}

TEST(Tracer, RenderAllCoversWholeTrace) {
  const Net net = square_wave_net();
  const RecordedTrace trace = run(net, 25);
  Tracer tracer(trace);
  tracer.add_place_signal("Bus_busy");
  const std::string display = tracer.render_all();
  EXPECT_FALSE(display.empty());
  EXPECT_THROW(tracer.render(5, 5), std::invalid_argument);
}

TEST(Tracer, RenderScalesValuesPastAnEighthOfInt64) {
  // An amplitude level is v * 8 / peak: past INT64_MAX / 8 the product must
  // not wrap, so a constant INT64_MAX draws full height and 2^61 on a 0/1
  // wave draws the same square wave as 3 does.
  const RecordedTrace trace = run(square_wave_net(), 20);
  Tracer tracer(trace);
  tracer.add_function_signal("f", "9223372036854775807");
  tracer.add_function_signal("g", "Bus_busy*2305843009213693952");
  tracer.add_function_signal("h", "Bus_busy*3");
  tracer.add_function_signal("m", "Bus_busy*4611686018427387904+4611686018427387903");
  RenderOptions options;
  options.columns = 20;
  options.show_axis = false;
  EXPECT_EQ(tracer.render(0, 20, options),
            "f        |@@@@@@@@@@@@@@@@@@@@| max=9223372036854775807\n"
            "g        |__@@@__@@@__@@@__@@@| max=2305843009213693952\n"
            "h        |__@@@__@@@__@@@__@@@| max=3\n"
            "m        |--@@@--@@@--@@@--@@@| max=9223372036854775807\n");
  options.unicode = true;
  EXPECT_EQ(tracer.render(0, 20, options),
            "f        |████████████████████| max=9223372036854775807\n"
            "g        |  ███  ███  ███  ███| max=2305843009213693952\n"
            "h        |  ███  ███  ███  ███| max=3\n"
            "m        |▄▄███▄▄███▄▄███▄▄███| max=9223372036854775807\n");
}

TEST(Tracer, CheckRunsPaperQueries) {
  const Net net = pipeline::build_full_model();
  const RecordedTrace trace = run(net, 3000, 7);
  Tracer tracer(trace);

  // Section 4.4, all three trace queries:
  EXPECT_TRUE(tracer.check("forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]").holds);
  const auto buffer_refill = tracer.check("exists s in (S-{#0}) [ Empty_I_buffers(s) = 6 ]");
  // The buffer starts full of empties and drains; whether it ever refills
  // completely is a property of this run — the query must evaluate either
  // way without error.
  (void)buffer_refill;
  EXPECT_TRUE(tracer.check("Exists s in S [exec_type_1(s) > 0]").holds);
}

}  // namespace
}  // namespace pnut::tracer
