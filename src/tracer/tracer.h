// Tracertool (Sections 4.3-4.4, Figure 7): a software logic state analyzer
// for simulation traces, plus trace verification.
//
// "Probes are placed at relevant inputs ... and the resulting timing traces
// are examined. ... A user may select any places or transitions to be
// plotted over time and may define arbitrary functions (using a simple
// programming language) on places and transitions."
//
// A Tracer is built over a RecordedTrace. Signals are probes:
//   * place signals     — token count over time,
//   * transition signals — firings in flight over time,
//   * variable signals  — data-variable value over time,
//   * function signals  — any expression over places/transitions/variables,
//     e.g. "exec_type_1 + exec_type_2 + exec_type_3" (Figure 7's
//     user-defined sum of execution activity). An expression compiles once
//     to bytecode (expr/program.h) against one scalar slot per name it
//     reads, and runs on the expression VM (expr/vm.h) once per state, so
//     its values and error texts are the engines' own.
//
// render() draws the signals as ASCII waveforms against a time axis
// (Figure 7's display); markers ('O' and 'X' in the figure) can be dropped
// at times or state indices and measured against each other. check()
// evaluates Section 4.4 queries on the trace through the shared query
// engine.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/query.h"
#include "analysis/state_space.h"
#include "trace/trace.h"

namespace pnut::tracer {

struct RenderOptions {
  /// Waveform columns (time resolution of the display).
  std::size_t columns = 72;
  /// Use Unicode block characters for amplitude; false = pure-ASCII ramp.
  bool unicode = false;
  /// Print the time axis and marker rows.
  bool show_axis = true;
};

class Tracer {
 public:
  /// Materializes the trace's state sequence once; signals sample it.
  explicit Tracer(const RecordedTrace& trace);

  // --- probes -----------------------------------------------------------------

  /// Probe a place's token count. Label defaults to the element name.
  void add_place_signal(std::string_view place_name, std::string_view label = {});
  /// Probe a transition's in-flight firing count.
  void add_transition_signal(std::string_view transition_name, std::string_view label = {});
  /// Probe a data variable, resolved once to its slot in the trace states.
  void add_variable_signal(std::string_view variable, std::string_view label = {});
  /// Probe an expression over places, transitions and variables (each name
  /// resolves once: a place, else a transition, else a variable slot, no
  /// state scan). Evaluates it on every state at definition time: throws
  /// expr::ParseError on bad syntax and expr::EvalError when a state's
  /// evaluation fails (an unknown name, a variable absent from that state,
  /// division by zero, irand, a table call, ...). A failed signal is not
  /// added.
  void add_function_signal(std::string_view label, std::string_view expression);

  [[nodiscard]] std::size_t num_signals() const { return signals_.size(); }
  [[nodiscard]] const std::string& signal_label(std::size_t index) const {
    return signals_.at(index).label;
  }

  /// Value of signal `index` at time `t` (value of the last state whose
  /// timestamp is <= t; before the first state, the initial value).
  [[nodiscard]] std::int64_t value_at(std::size_t index, Time t) const;

  /// The signal's full per-state series (state k = after trace event k-1).
  [[nodiscard]] const std::vector<std::int64_t>& series(std::size_t index) const {
    return signals_.at(index).values;
  }

  // --- markers ----------------------------------------------------------------

  /// Drop marker `name` at a time, or at a state's timestamp.
  void set_marker(char name, Time position);
  void set_marker_at_state(char name, std::size_t state_index);
  [[nodiscard]] std::optional<Time> marker(char name) const;
  /// |time(a) - time(b)|; throws if either marker is unset.
  [[nodiscard]] Time marker_distance(char a, char b) const;

  /// First time >= `from` at which signal `index` satisfies
  /// `value >= threshold`; nullopt if never.
  [[nodiscard]] std::optional<Time> first_time_at_or_above(std::size_t index,
                                                           std::int64_t threshold,
                                                           Time from = 0) const;

  // --- display ----------------------------------------------------------------

  /// Render all signals over [t0, t1] as a Figure 7 style display.
  [[nodiscard]] std::string render(Time t0, Time t1, RenderOptions options = {}) const;

  /// Render the whole trace.
  [[nodiscard]] std::string render_all(RenderOptions options = {}) const;

  // --- verification -------------------------------------------------------------

  /// Evaluate a Section 4.4 query on this trace.
  [[nodiscard]] analysis::QueryResult check(std::string_view query) const;

  [[nodiscard]] const analysis::TraceStateSpace& states() const { return states_; }
  [[nodiscard]] Time start_time() const;
  [[nodiscard]] Time end_time() const { return trace_->end_time(); }

 private:
  struct Signal {
    std::string label;
    std::vector<std::int64_t> values;  ///< per state
  };

  /// Append a signal whose value in state i is value_of(i).
  template <class ValueOf>
  void add_signal(std::string label, ValueOf value_of);

  /// State index of the last state with timestamp <= t.
  [[nodiscard]] std::size_t state_at(Time t) const;

  const RecordedTrace* trace_;
  analysis::TraceStateSpace states_;
  std::vector<Signal> signals_;
  std::vector<std::pair<char, Time>> markers_;
};

}  // namespace pnut::tracer
