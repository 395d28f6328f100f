// The P-NUT statistical analysis tool (Section 4.2, Figure 5).
//
// stat consumes a trace (live, as a sink, or recorded) and produces the
// three tables of Figure 5:
//
//   RUN STATISTICS    — run number, initial clock, length, events started /
//                       finished;
//   EVENT STATISTICS  — per transition: min/max/avg/σ concurrent firings,
//                       starts/ends, throughput (ends ÷ simulated time);
//   PLACE STATISTICS  — per place: min/max/avg/σ token count, all
//                       time-weighted.
//
// The mapping from these numbers to processor-level concepts is the user's
// (Section 4.2): the average token count of Bus_busy *is* bus utilization
// because the model keeps Bus_busy + Bus_free = 1; the Issue transition's
// throughput *is* the instruction processing rate. pipeline/metrics.h
// packages the mappings for the paper's model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace pnut {

struct PlaceStats {
  std::string name;
  TokenCount min_tokens = 0;
  TokenCount max_tokens = 0;
  double avg_tokens = 0;     ///< time-weighted mean
  double stddev_tokens = 0;  ///< time-weighted standard deviation
};

struct TransitionStats {
  std::string name;
  std::uint32_t min_concurrent = 0;
  std::uint32_t max_concurrent = 0;
  double avg_concurrent = 0;     ///< time-weighted mean of in-flight firings
  double stddev_concurrent = 0;  ///< time-weighted standard deviation
  std::uint64_t starts = 0;
  std::uint64_t ends = 0;
  double throughput = 0;  ///< ends / simulated length
};

struct RunStats {
  int run_number = 1;
  Time initial_clock = 0;
  Time length = 0;
  std::uint64_t events_started = 0;
  std::uint64_t events_finished = 0;
  std::vector<TransitionStats> transitions;
  std::vector<PlaceStats> places;

  /// Lookup by element name; throws std::invalid_argument if absent.
  [[nodiscard]] const PlaceStats& place(std::string_view name) const;
  [[nodiscard]] const TransitionStats& transition(std::string_view name) const;
};

/// Figure 5's time-weighted accumulator: one place's token count or one
/// transition's in-flight firings, integrated over simulated time.
struct TimeWeighted {
  std::int64_t current = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  Time last_change = 0;
  double weighted_sum = 0;    ///< ∫ value dt
  double weighted_sumsq = 0;  ///< ∫ value² dt

  void settle(Time now) {
    const double dt = now - last_change;
    // dt == 0 contributes current * 0.0 == ±0.0; the sums start at +0.0
    // and only ever accumulate, so they are never -0.0 and adding ±0.0 is
    // a bit identity — skipping it is byte-equal and saves work at shared
    // instants.
    if (dt == 0) return;
    weighted_sum += static_cast<double>(current) * dt;
    weighted_sumsq += static_cast<double>(current) * static_cast<double>(current) * dt;
    last_change = now;
  }
  void change(Time now, std::int64_t delta) {
    settle(now);
    current += delta;
    if (current < min) min = current;
    if (current > max) max = current;
  }
};

/// One run's raw Figure 5 counters. StatCollector fills them from a trace,
/// the batch lane kernel (sim/batch_sim.h) from its own firings; both start
/// with begin() and summarize with finish(), so their reports agree to the
/// bit.
struct RunCounters {
  std::vector<TimeWeighted> places;
  std::vector<TimeWeighted> transitions;
  std::vector<std::uint64_t> starts;  ///< per transition
  std::vector<std::uint64_t> ends;    ///< per transition
  std::uint64_t events_started = 0;
  std::uint64_t events_finished = 0;

  /// Start a run at `start`: place i holds initial_tokens[i], nothing is
  /// in flight, nothing has been counted.
  void begin(Time start, std::span<const TokenCount> initial_tokens,
             std::size_t num_transitions);

  /// Settle every accumulator at `end_time` and summarize the run over
  /// [start_time, end_time]; rows take their names from the spans.
  [[nodiscard]] RunStats finish(int run_number, Time start_time, Time end_time,
                                std::span<const std::string> place_names,
                                std::span<const std::string> transition_names) const;
};

/// Streaming statistics accumulator. Attach to a simulator (possibly behind
/// a TraceFilter) or feed a RecordedTrace through collect().
class StatCollector final : public TraceSink {
 public:
  /// Tag the produced RunStats with a run number (Figure 5 reports it).
  void set_run_number(int n) { run_number_ = n; }

  void begin(const TraceHeader& header) override;
  void event(const TraceEvent& ev) override;
  void end(Time end_time) override;

  /// Final statistics; valid after end(). Throws std::logic_error before.
  [[nodiscard]] const RunStats& stats() const;

 private:
  int run_number_ = 1;
  TraceHeader header_;
  RunCounters counters_;
  std::optional<RunStats> result_;
};

/// Run a complete recorded trace through a collector.
RunStats collect_stats(const RecordedTrace& trace, int run_number = 1);

/// Format the Figure 5 report: RUN / EVENT / PLACE STATISTICS as aligned
/// plain-text tables. `skip_idle` drops rows whose element never changed
/// (Figure 5 shows only the interesting rows).
std::string format_report(const RunStats& stats, bool skip_idle = false);

/// The same report as troff/tbl markup — the paper notes reports are
/// "in format suitable for processing by text processing tools (tbl and
/// troff)".
std::string format_report_tbl(const RunStats& stats);

}  // namespace pnut
