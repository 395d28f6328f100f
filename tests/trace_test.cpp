// Unit tests for the trace module: recorder, cursor, filter, text IO.
#include <gtest/gtest.h>

#include <sstream>

#include "expr/compile.h"
#include "sim/simulator.h"
#include "trace/filter.h"
#include "trace/trace.h"
#include "trace/trace_text.h"

namespace pnut {
namespace {

/// Producer/consumer net with a shared bus-like resource.
Net sample_net() {
  Net net("sample");
  const PlaceId bus = net.add_place("Bus", 1);
  const PlaceId a = net.add_place("A", 3);
  const PlaceId out_a = net.add_place("OutA");
  const PlaceId b = net.add_place("B", 2);
  const PlaceId out_b = net.add_place("OutB");

  const TransitionId ta = net.add_transition("ta");
  net.add_input(ta, a);
  net.add_input(ta, bus);
  net.add_output(ta, out_a);
  net.add_output(ta, bus);
  net.set_firing_time(ta, DelaySpec::constant(2));

  const TransitionId tb = net.add_transition("tb");
  net.add_input(tb, b);
  net.add_input(tb, bus);
  net.add_output(tb, out_b);
  net.add_output(tb, bus);
  net.set_firing_time(tb, DelaySpec::constant(3));
  return net;
}

RecordedTrace record(const Net& net, TraceSink* extra = nullptr, Time horizon = 100) {
  RecordedTrace trace;
  MultiSink fan;
  fan.add(trace);
  if (extra != nullptr) fan.add(*extra);
  Simulator sim(net);
  sim.set_sink(&fan);
  sim.reset(11);
  sim.run_until(horizon);
  sim.finish();
  return trace;
}

TEST(Trace, HeaderCapturesNet) {
  const Net net = sample_net();
  const RecordedTrace trace = record(net);
  const TraceHeader& h = trace.header();
  EXPECT_EQ(h.net_name, "sample");
  EXPECT_EQ(h.place_names.size(), net.num_places());
  EXPECT_EQ(h.transition_names.size(), net.num_transitions());
  EXPECT_EQ(h.initial_marking[net.place_named("A")], 3u);
  EXPECT_TRUE(trace.complete());
}

TEST(Trace, RejectsOutOfOrderEvents) {
  RecordedTrace trace;
  TraceHeader header;
  header.place_names = {"P"};
  header.transition_names = {"T"};
  header.initial_marking = Marking(1);
  trace.begin(header);
  TraceEvent e1;
  e1.time = 5;
  e1.transition = TransitionId(0);
  trace.event(e1);
  TraceEvent e2;
  e2.time = 3;
  e2.transition = TransitionId(0);
  EXPECT_THROW(trace.event(e2), std::logic_error);
}

TEST(TraceCursor, WalksStatesAndRewinds) {
  const Net net = sample_net();
  const RecordedTrace trace = record(net);
  TraceCursor cursor(trace);
  EXPECT_EQ(cursor.state_index(), 0u);
  EXPECT_EQ(cursor.marking(), trace.header().initial_marking);

  std::size_t steps = 0;
  while (!cursor.at_end()) {
    cursor.step();
    ++steps;
  }
  EXPECT_EQ(steps, trace.events().size());
  EXPECT_EQ(cursor.state_index(), trace.num_states() - 1);

  cursor.rewind();
  EXPECT_EQ(cursor.state_index(), 0u);
  EXPECT_EQ(cursor.marking(), trace.header().initial_marking);
}

TEST(TraceCursor, PendingEventThrowsAtEnd) {
  const Net net = sample_net();
  const RecordedTrace trace = record(net);
  TraceCursor cursor(trace);
  while (!cursor.at_end()) cursor.step();
  EXPECT_THROW((void)cursor.pending_event(), std::logic_error);
  EXPECT_THROW(cursor.step(), std::logic_error);
}

TEST(TraceFilter, KeepsOnlyRelevantFirings) {
  const Net net = sample_net();
  RecordedTrace filtered;
  TraceFilter filter(net, filtered);
  filter.keep_transition("ta");
  const RecordedTrace full = record(net, &filter);

  EXPECT_LT(filtered.events().size(), full.events().size());
  EXPECT_GT(filtered.events().size(), 0u);
  EXPECT_EQ(filter.kept_events() + filter.dropped_events(), full.events().size());
  const TransitionId ta = net.transition_named("ta");
  for (const TraceEvent& ev : filtered.events()) {
    EXPECT_EQ(ev.transition, ta);
  }
}

TEST(TraceFilter, PlaceSelectionKeepsTouchingFirings) {
  const Net net = sample_net();
  RecordedTrace filtered;
  TraceFilter filter(net, filtered);
  filter.keep_place("OutB");
  const RecordedTrace full = record(net, &filter);

  const TransitionId tb = net.transition_named("tb");
  const PlaceId out_b = net.place_named("OutB");
  ASSERT_GT(filtered.events().size(), 0u);
  for (const TraceEvent& ev : filtered.events()) {
    EXPECT_EQ(ev.transition, tb) << "only tb touches OutB";
    // Deltas are projected onto kept places.
    for (const TokenDelta& d : ev.consumed) EXPECT_EQ(d.place, out_b);
    for (const TokenDelta& d : ev.produced) EXPECT_EQ(d.place, out_b);
  }

  // Token counts for the kept place still reconstruct exactly.
  TraceCursor cursor(filtered);
  while (!cursor.at_end()) cursor.step();
  TraceCursor full_cursor(full);
  while (!full_cursor.at_end()) full_cursor.step();
  EXPECT_EQ(cursor.marking()[out_b], full_cursor.marking()[out_b]);
}

TEST(TraceFilter, StartEndPairingPreserved) {
  const Net net = sample_net();
  RecordedTrace filtered;
  TraceFilter filter(net, filtered);
  filter.keep_place("OutA");
  record(net, &filter);

  int open = 0;
  for (const TraceEvent& ev : filtered.events()) {
    if (ev.kind == TraceEvent::Kind::kStart) {
      ++open;
    } else {
      ASSERT_GT(open, 0) << "End without matching Start in filtered trace";
      --open;
    }
  }
}

TEST(TraceText, RoundTripEmptyTrace) {
  Net net("tiny");
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_enabling_time(t, DelaySpec::constant(1000));  // nothing happens by 10

  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(1);
  sim.run_until(10);
  sim.finish();

  const RecordedTrace parsed = read_trace_text(write_trace_text(trace));
  EXPECT_EQ(parsed, trace);
  EXPECT_EQ(parsed.events().size(), 0u);
  EXPECT_EQ(parsed.end_time(), 10.0);
}

TEST(TraceText, RoundTripWithData) {
  Net net("datanet");
  net.initial_data().set("counter", 5);
  net.initial_data().set_table("tab", {7, 8, 9});
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_firing_time(t, DelaySpec::constant(1));
  net.set_action(t, expr::compile_action("counter = counter + 1; tab[0] = counter"));

  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(1);
  sim.run_until(5);
  sim.finish();

  const RecordedTrace parsed = read_trace_text(write_trace_text(trace));
  EXPECT_EQ(parsed, trace);

  TraceCursor cursor(parsed);
  while (!cursor.at_end()) cursor.step();
  EXPECT_EQ(cursor.data().get("counter"), 5 + 6);  // fires at 0..5
  EXPECT_EQ(cursor.data().get_table("tab", 0), 11);
}

TEST(TraceText, ParserRejectsGarbage) {
  EXPECT_THROW(read_trace_text(""), std::runtime_error);
  EXPECT_THROW(read_trace_text("not a trace\n"), std::runtime_error);
  EXPECT_THROW(read_trace_text("pnut-trace 1\nnet x\n"), std::runtime_error);  // no start/end
  EXPECT_THROW(read_trace_text("pnut-trace 1\nnet x\nstart 0\n"), std::runtime_error);
  EXPECT_THROW(read_trace_text("pnut-trace 1\nplace 3 P 0\nstart 0\nend 1\n"),
               std::runtime_error);  // non-dense index
  EXPECT_THROW(read_trace_text("pnut-trace 1\nstart 0\nS 1 0 0\nend 1\n"),
               std::runtime_error);  // unknown transition
}

TEST(TraceText, StreamingWriterMatchesBatchWriter) {
  const Net net = sample_net();
  std::ostringstream streamed;
  TextTraceWriter writer(streamed);
  const RecordedTrace trace = record(net, &writer);
  EXPECT_EQ(streamed.str(), write_trace_text(trace));
}

TEST(MultiSink, FansOutToAllSinks) {
  const Net net = sample_net();
  RecordedTrace a;
  RecordedTrace b;
  MultiSink fan;
  fan.add(a);
  fan.add(b);
  Simulator sim(net);
  sim.set_sink(&fan);
  sim.reset(3);
  sim.run_until(50);
  sim.finish();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.events().size(), 0u);
}

}  // namespace
}  // namespace pnut
