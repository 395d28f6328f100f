// Text serialization of traces.
//
// The paper stresses that "the intermediate trace representation need not be
// made specific to a particular modeling technique. Traces can be easily
// generated from SIMSCRIPT simulations as well as any other simulation
// language." The format below is a line-oriented, self-describing text
// grammar any tool (or other simulator) can emit:
//
//   pnut-trace 1
//   net <name>
//   place <index> <name> <initial-tokens>
//   transition <index> <name>
//   var <name> <value>            (initial data, optional)
//   table <name> <n> <v0> ... <vn-1>
//   start <time>
//   S <time> <transition-index> <firing-id> [p<place>:<count>]* [v:<name>=<val>]* [t:<name>[<idx>]=<val>]*
//   E <time> <transition-index> <firing-id> [q<place>:<count>]*
//   A <time> <transition-index> <firing-id> [p...]* [q...]* [v:...]* [t:...]*
//   end <time>
//
// p fields are tokens consumed, q fields tokens produced; A lines are
// atomic (zero-duration) firings carrying both.
//
// Element names must not contain whitespace (Net::validate-compatible names
// such as Bus_busy or Start-prefetch are fine).
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.h"

namespace pnut {

/// Streams events as text lines. Usable as a live sink so long experiments
/// never hold the trace in memory.
class TextTraceWriter final : public TraceSink {
 public:
  explicit TextTraceWriter(std::ostream& out) : out_(&out) {}

  void begin(const TraceHeader& header) override;
  void event(const TraceEvent& ev) override;
  void end(Time end_time) override;

 private:
  std::ostream* out_;
};

/// Serialize a complete recorded trace.
std::string write_trace_text(const RecordedTrace& trace);

/// Parse a text trace; throws std::runtime_error with a line number on any
/// syntax or consistency error. Consistency means the events are in time
/// order and replay through TraceCursor::step (no event removes more tokens
/// than a place holds, overflows a token count or updates an unknown table
/// entry, and no End event comes without a firing of its transition in
/// flight), and the end time is not earlier than the last event.
RecordedTrace read_trace_text(std::istream& in);
RecordedTrace read_trace_text(const std::string& text);

}  // namespace pnut
