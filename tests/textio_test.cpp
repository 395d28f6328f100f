// Unit tests for the .pn textual net format: parsing, printing, round
// trips, interpreted nets, diagnostics.
#include <gtest/gtest.h>

#include "pipeline/interpreted.h"
#include "sim/simulator.h"
#include "textio/pn_format.h"

namespace pnut::textio {
namespace {

constexpr const char* kPrefetchPn = R"(
# Figure 1: instruction pre-fetching
net prefetch
place Bus_free init 1
place Bus_busy
place Empty_I_buffers init 6 capacity 6
place Full_I_buffers capacity 6
place pre_fetching
place Operand_fetch_pending
place Result_store_pending
place Decoder_ready init 1
place Decoded_instruction

trans Start_prefetch in Bus_free, Empty_I_buffers*2
      inhibit Operand_fetch_pending, Result_store_pending
      out Bus_busy, pre_fetching
trans End_prefetch in pre_fetching, Bus_busy
      out Bus_free, Full_I_buffers*2 enabling 5
trans Decode in Full_I_buffers, Decoder_ready
      out Decoded_instruction, Empty_I_buffers firing 1
trans consume in Decoded_instruction out Decoder_ready
)";

TEST(PnFormat, ParsesThePrefetchModel) {
  const NetDocument doc = parse_net(kPrefetchPn);
  const Net& net = doc.net;
  EXPECT_EQ(net.name(), "prefetch");
  EXPECT_EQ(net.num_places(), 9u);
  EXPECT_EQ(net.num_transitions(), 4u);
  EXPECT_EQ(net.place(net.place_named("Empty_I_buffers")).initial_tokens, 6u);
  EXPECT_EQ(net.place(net.place_named("Empty_I_buffers")).capacity, TokenCount{6});

  const Transition& start = net.transition(net.transition_named("Start_prefetch"));
  EXPECT_EQ(start.inputs.size(), 2u);
  EXPECT_EQ(start.inhibitors.size(), 2u);
  EXPECT_EQ(net.input_weight(net.transition_named("Start_prefetch"),
                             net.place_named("Empty_I_buffers")),
            2u);
  const Transition& end = net.transition(net.transition_named("End_prefetch"));
  EXPECT_EQ(end.enabling_time.constant_value(), 5.0);
  const Transition& decode = net.transition(net.transition_named("Decode"));
  EXPECT_EQ(decode.firing_time.constant_value(), 1.0);
}

TEST(PnFormat, ParsedModelSimulates) {
  const NetDocument doc = parse_net(kPrefetchPn);
  Simulator sim(doc.net);
  sim.reset(3);
  sim.run_until(1000);
  EXPECT_GT(sim.completed_firings(doc.net.transition_named("Decode")), 50u);
}

TEST(PnFormat, RoundTripPlainNet) {
  const NetDocument doc = parse_net(kPrefetchPn);
  const std::string printed = print_net(doc);
  const NetDocument again = parse_net(printed);
  EXPECT_EQ(print_net(again), printed);
  EXPECT_EQ(again.net.num_places(), doc.net.num_places());
  EXPECT_EQ(again.net.num_transitions(), doc.net.num_transitions());
}

TEST(PnFormat, NumbersRoundTripExactly) {
  // Values past six significant digits print in their shortest exact form;
  // the rest keep their default text.
  const NetDocument doc = parse_net(R"(
place P init 1
trans a in P out P firing 1.2345678 freq 0.123456789
trans b in P out P firing discrete 1.0000001:0.3333333 2.5:0.6666667
trans c in P out P enabling 0.1 firing 1e-07 freq 70
)");
  const std::string printed = print_net(doc);
  EXPECT_NE(printed.find("firing 1.2345678 freq 0.123456789"), std::string::npos) << printed;
  EXPECT_NE(printed.find("discrete 1.0000001:0.3333333 2.5:0.6666667"), std::string::npos)
      << printed;
  EXPECT_NE(printed.find("firing 1e-07 enabling 0.1 freq 70"), std::string::npos) << printed;
  const NetDocument again = parse_net(printed);
  EXPECT_EQ(print_net(again), printed);
  for (const char* name : {"a", "b", "c"}) {
    const Transition& t = doc.net.transition(doc.net.transition_named(name));
    const Transition& u = again.net.transition(again.net.transition_named(name));
    EXPECT_EQ(u.frequency, t.frequency) << name;
    EXPECT_EQ(u.enabling_time.kind(), t.enabling_time.kind()) << name;
    EXPECT_EQ(u.firing_time.kind(), t.firing_time.kind()) << name;
    if (t.firing_time.kind() == DelaySpec::Kind::kConstant) {
      EXPECT_EQ(u.firing_time.constant_value(), t.firing_time.constant_value()) << name;
    } else {
      EXPECT_EQ(u.firing_time.choices(), t.firing_time.choices()) << name;
    }
  }
}

TEST(PnFormat, FrequenciesAndPolicies) {
  const NetDocument doc = parse_net(R"(
place P init 1
trans t1 in P out P freq 70 firing 1
trans t2 in P out P freq 20 policy infinite firing 1
trans t3 in P out P freq 10 firing 1
)");
  EXPECT_EQ(doc.net.transition(doc.net.transition_named("t1")).frequency, 70.0);
  EXPECT_EQ(doc.net.transition(doc.net.transition_named("t2")).policy,
            FiringPolicy::kInfiniteServer);
}

TEST(PnFormat, DelayDistributions) {
  const NetDocument doc = parse_net(R"(
place P init 1
trans u in P out P firing uniform 1 3
trans d in P out P firing discrete 1:0.5 2:0.3 5:0.2
)");
  const Transition& u = doc.net.transition(doc.net.transition_named("u"));
  EXPECT_EQ(u.firing_time.kind(), DelaySpec::Kind::kUniform);
  EXPECT_EQ(u.firing_time.uniform_bounds(), (std::pair<std::int64_t, std::int64_t>{1, 3}));
  const Transition& d = doc.net.transition(doc.net.transition_named("d"));
  EXPECT_EQ(d.firing_time.kind(), DelaySpec::Kind::kDiscrete);
  EXPECT_EQ(d.firing_time.choices().size(), 3u);
}

TEST(PnFormat, InterpretedNetWithPredicatesActionsAndTables) {
  const NetDocument doc = parse_net(R"(
net fig4
var type 0
var needed 0
var max_type 3
table operands 0 0 1 2
place Next init 1
place Decoded
place Bus_free init 1
place Bus_busy
place Fetching
trans Decode in Next out Decoded firing 1
      do "type = irand[1, max_type]; needed = operands[type]"
trans fetch_operand in Decoded, Bus_free out Bus_busy, Fetching
      when "needed > 0"
trans end_fetch in Fetching, Bus_busy out Bus_free, Decoded enabling 5
      do "needed = needed - 1"
trans done in Decoded out Next when "needed == 0"
)");
  const Net& net = doc.net;
  EXPECT_EQ(net.initial_data().get("max_type"), 3);
  EXPECT_EQ(net.initial_data().get_table("operands", 2), 1);
  EXPECT_TRUE(net.transition(net.transition_named("Decode")).action);
  EXPECT_TRUE(net.transition(net.transition_named("done")).predicate);

  // The interpreted net runs.
  Simulator sim(net);
  sim.reset(17);
  sim.run_until(500);
  EXPECT_GT(sim.completed_firings(net.transition_named("done")), 10u);

  // Interpreted sources survive the round trip.
  const std::string printed = print_net(doc);
  EXPECT_NE(printed.find("when \"needed > 0\""), std::string::npos);
  EXPECT_NE(printed.find("do \"type = irand[1, max_type]; needed = operands[type]\""),
            std::string::npos);
  const NetDocument again = parse_net(printed);
  EXPECT_EQ(print_net(again), printed);
}

TEST(PnFormat, ComputedDelayExpression) {
  const NetDocument doc = parse_net(R"(
var d 7
place P init 1
place Q
trans t in P out Q firing expr "d"
)");
  Simulator sim(doc.net);
  sim.run_until(6.5);
  EXPECT_EQ(sim.marking()[doc.net.place_named("Q")], 0u);
  sim.run_until(7);
  EXPECT_EQ(sim.marking()[doc.net.place_named("Q")], 1u);

  const std::string printed = print_net(doc);
  EXPECT_NE(printed.find("firing expr \"d\""), std::string::npos);
}

TEST(PnFormat, CppBuiltInterpretedNetRoundTripsThroughPrint) {
  // The Figure 4 net built in C++ (no NetDocument): every hook prints from
  // its own source text, and the reparsed net simulates to the identical
  // trace.
  const Net original = pipeline::build_interpreted_pipeline();
  const std::string printed = print_net(original);
  const NetDocument doc = parse_net(printed);
  EXPECT_EQ(print_net(doc), printed);

  const auto trace_of = [](const Net& net) {
    RecordedTrace trace;
    Simulator sim(net);
    sim.set_sink(&trace);
    sim.reset(2024);
    sim.run_until(3000);
    sim.finish();
    return trace;
  };
  const RecordedTrace expected = trace_of(original);
  ASSERT_GT(expected.events().size(), 100u);
  EXPECT_EQ(trace_of(doc.net), expected);
}

TEST(PnFormat, ModelLibraryDeclarationsParseAndRoundTrip) {
  const NetDocument doc = parse_net(R"pn(
net library
fn "bump(v) { return v + step; }"
fn "weigh(a, b) { let s = bump(a); return s + b; }"
param step 2
var total 0
array scratch 4
place P init 1
trans t in P out P firing 1 do "total = weigh(total, 1); scratch[0] = total"
trans u in P out P enabling expr "bump(1)"
)pn");
  ASSERT_EQ(doc.functions.functions.size(), 2u);
  EXPECT_EQ(doc.functions.functions[0]->name, "bump");
  EXPECT_EQ(doc.functions.functions[1]->name, "weigh");
  EXPECT_EQ(doc.params, (std::vector<std::string>{"step"}));
  EXPECT_EQ(doc.arrays, (std::vector<std::string>{"scratch"}));
  EXPECT_EQ(doc.net.initial_data().get("step"), 2);
  EXPECT_EQ(doc.net.initial_data().get_table("scratch", 3), 0);

  // The interpreted net runs: each firing of t bumps total through the
  // two-function chain.
  Simulator sim(doc.net);
  sim.reset(5);
  sim.run_until(10);
  EXPECT_GT(sim.data().get("total"), 0);

  // fn / param / array lines survive printing, in declaration order, and
  // the round trip is a fixed point.
  const std::string printed = print_net(doc);
  EXPECT_NE(printed.find("fn \"bump(v) { return v + step; }\""), std::string::npos);
  EXPECT_NE(printed.find("param step 2"), std::string::npos);
  EXPECT_NE(printed.find("array scratch 4"), std::string::npos);
  EXPECT_LT(printed.find("fn \"bump"), printed.find("fn \"weigh"));
  // params print as `param`, not as a second `var` line.
  EXPECT_EQ(printed.find("var step"), std::string::npos);
  const NetDocument again = parse_net(printed);
  EXPECT_EQ(print_net(again), printed);
  ASSERT_EQ(again.functions.functions.size(), 2u);
  EXPECT_EQ(again.params, doc.params);
  EXPECT_EQ(again.arrays, doc.arrays);
}

TEST(PnFormat, LibraryDeclarationErrors) {
  // fn bodies must be quoted strings with valid definitions.
  EXPECT_THROW(parse_net("fn unquoted(v) { return v; }\nplace P init 1\n"
                         "trans t in P out P\n"),
               std::runtime_error);
  EXPECT_THROW(parse_net("fn \"f(\"\nplace P init 1\ntrans t in P out P\n"),
               std::runtime_error);
  // Duplicates are rejected at their declaration line.
  try {
    parse_net("param a 1\nparam a 2\nplace P init 1\ntrans t in P out P\n");
    FAIL() << "duplicate param must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate param 'a'"), std::string::npos) << what;
  }
  EXPECT_THROW(parse_net("array a 4\narray a 4\nplace P init 1\ntrans t in P out P\n"),
               std::runtime_error);
  // Array extents obey the expression language's bound.
  EXPECT_THROW(parse_net("array a 0\nplace P init 1\ntrans t in P out P\n"),
               std::runtime_error);
  try {
    parse_net("array a 65537\nplace P init 1\ntrans t in P out P\n");
    FAIL() << "oversized array must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the bound (65536)"),
              std::string::npos)
        << e.what();
  }
}

TEST(PnFormat, EmbeddedExpressionErrorsMapToAbsoluteDocumentLines) {
  // The expression string starts on document line 4; an error on *its*
  // second line must be reported at document line 5, with a caret.
  try {
    parse_net("net bad\n"
              "place P init 1\n"
              "trans t in P out P\n"
              "      do \"x = 1;\n"
              "y = *\"\n");
    FAIL() << "bad embedded expression must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("bad action"), std::string::npos) << what;
    EXPECT_NE(what.find("y = *\n    ^"), std::string::npos) << what;
  }
  // fn strings get the same treatment.
  try {
    parse_net("fn \"f(v) { return v +; }\"\nplace P init 1\ntrans t in P out P\n");
    FAIL() << "bad fn must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("^"), std::string::npos) << what;
  }
}

TEST(PnFormat, ErrorsCarryLineNumbers) {
  try {
    parse_net("place P init 1\nplace P init 2\ntrans t in P out P\n");
    FAIL() << "duplicate place must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }

  try {
    parse_net("place P\ntrans t in Nowhere out P\n");
    FAIL() << "unknown place must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown place"), std::string::npos);
  }
}

TEST(PnFormat, RejectsMalformedInput) {
  EXPECT_THROW(parse_net("bogus stuff"), std::runtime_error);
  EXPECT_THROW(parse_net("place"), std::runtime_error);
  EXPECT_THROW(parse_net("place P init x"), std::runtime_error);
  EXPECT_THROW(parse_net("place P\ntrans t in"), std::runtime_error);
  EXPECT_THROW(parse_net("place P init 1\ntrans t in P out P firing"), std::runtime_error);
  EXPECT_THROW(parse_net("place P init 1\ntrans t in P out P firing discrete"),
               std::runtime_error);
  EXPECT_THROW(parse_net("place P init 1\ntrans t in P out P when \"1 +\""),
               std::runtime_error);
  EXPECT_THROW(parse_net("place P init 1\ntrans t in P out P policy sometimes"),
               std::runtime_error);
  EXPECT_THROW(parse_net("place P init 1\ntrans t in P out P when unquoted"),
               std::runtime_error);
  EXPECT_THROW(parse_net("place P init 1\ntrans t in P*x out P"), std::runtime_error);
  EXPECT_THROW(parse_net("place P \"quoted\""), std::runtime_error);
  EXPECT_THROW(parse_net("place P init 1\ntrans t in P out P do \"unterminated"),
               std::runtime_error);
}

TEST(PnFormat, ValidatesResultingNet) {
  // Transition with no arcs fails net validation at parse time.
  EXPECT_THROW(parse_net("place P init 1\ntrans lonely\n"), std::invalid_argument);
}

TEST(PnFormat, CommentsAndCommasAreFlexible) {
  const NetDocument doc = parse_net(R"(
# full-line comment
place A init 1  # trailing words would be options, so keep comments on their own lines
place B
trans t in A out B
)");
  EXPECT_EQ(doc.net.num_places(), 2u);
}

}  // namespace
}  // namespace pnut::textio
