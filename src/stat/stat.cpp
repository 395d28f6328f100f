#include "stat/stat.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pnut {

const PlaceStats& RunStats::place(std::string_view name) const {
  for (const PlaceStats& p : places) {
    if (p.name == name) return p;
  }
  throw std::invalid_argument("RunStats: no place named '" + std::string(name) + "'");
}

const TransitionStats& RunStats::transition(std::string_view name) const {
  for (const TransitionStats& t : transitions) {
    if (t.name == name) return t;
  }
  throw std::invalid_argument("RunStats: no transition named '" + std::string(name) + "'");
}

void RunCounters::begin(Time start, std::span<const TokenCount> initial_tokens,
                        std::size_t num_transitions) {
  places.assign(initial_tokens.size(), TimeWeighted{});
  for (std::size_t i = 0; i < places.size(); ++i) {
    TimeWeighted& acc = places[i];
    acc.current = static_cast<std::int64_t>(initial_tokens[i]);
    acc.min = acc.max = acc.current;
    acc.last_change = start;
  }
  transitions.assign(num_transitions, TimeWeighted{});
  for (TimeWeighted& acc : transitions) acc.last_change = start;
  starts.assign(num_transitions, 0);
  ends.assign(num_transitions, 0);
  events_started = 0;
  events_finished = 0;
}

RunStats RunCounters::finish(int run_number, Time start_time, Time end_time,
                             std::span<const std::string> place_names,
                             std::span<const std::string> transition_names) const {
  RunStats out;
  out.run_number = run_number;
  out.initial_clock = start_time;
  out.length = end_time - start_time;
  out.events_started = events_started;
  out.events_finished = events_finished;

  const double length = out.length;
  // Time-weighted mean and standard deviation, settling a copy at end_time.
  const auto moments = [&](TimeWeighted acc) {
    acc.settle(end_time);
    double avg = 0;
    double stddev = 0;
    if (length > 0) {
      avg = acc.weighted_sum / length;
      const double var = acc.weighted_sumsq / length - avg * avg;
      stddev = var > 0 ? std::sqrt(var) : 0;
    }
    return std::pair<double, double>(avg, stddev);
  };

  out.places.reserve(places.size());
  for (std::size_t i = 0; i < places.size(); ++i) {
    const TimeWeighted& acc = places[i];
    const auto [avg, sd] = moments(acc);
    PlaceStats p;
    p.name = place_names[i];
    p.min_tokens = static_cast<TokenCount>(std::max<std::int64_t>(acc.min, 0));
    p.max_tokens = static_cast<TokenCount>(std::max<std::int64_t>(acc.max, 0));
    p.avg_tokens = avg;
    p.stddev_tokens = sd;
    out.places.push_back(std::move(p));
  }

  out.transitions.reserve(transitions.size());
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const TimeWeighted& acc = transitions[i];
    const auto [avg, sd] = moments(acc);
    TransitionStats t;
    t.name = transition_names[i];
    t.min_concurrent = static_cast<std::uint32_t>(std::max<std::int64_t>(acc.min, 0));
    t.max_concurrent = static_cast<std::uint32_t>(std::max<std::int64_t>(acc.max, 0));
    t.avg_concurrent = avg;
    t.stddev_concurrent = sd;
    t.starts = starts[i];
    t.ends = ends[i];
    t.throughput = length > 0 ? static_cast<double>(ends[i]) / length : 0;
    out.transitions.push_back(std::move(t));
  }
  return out;
}

void StatCollector::begin(const TraceHeader& header) {
  if (header.initial_marking.size() != header.place_names.size()) {
    throw std::invalid_argument("StatCollector: the trace header names " +
                                std::to_string(header.place_names.size()) +
                                " places but its initial marking has " +
                                std::to_string(header.initial_marking.size()));
  }
  header_ = header;
  counters_.begin(header.start_time, header.initial_marking.tokens(),
                  header.transition_names.size());
  result_.reset();
}

void StatCollector::event(const TraceEvent& ev) {
  RunCounters& c = counters_;
  if (ev.kind == TraceEvent::Kind::kAtomic) {
    ++c.events_started;
    ++c.events_finished;
    ++c.starts.at(ev.transition.value);
    ++c.ends.at(ev.transition.value);
    // Apply the *net* per-place delta so a token swapped through a place at
    // one instant does not register a transient min/max excursion.
    for (const TokenDelta& d : ev.consumed) {
      std::int64_t net = -static_cast<std::int64_t>(d.count);
      for (const TokenDelta& p : ev.produced) {
        if (p.place == d.place) net += static_cast<std::int64_t>(p.count);
      }
      c.places.at(d.place.value).change(ev.time, net);
    }
    for (const TokenDelta& p : ev.produced) {
      bool consumed_too = false;
      for (const TokenDelta& d : ev.consumed) consumed_too |= (d.place == p.place);
      if (!consumed_too) {
        c.places.at(p.place.value).change(ev.time, static_cast<std::int64_t>(p.count));
      }
    }
    return;
  }
  if (ev.kind == TraceEvent::Kind::kStart) {
    ++c.events_started;
    ++c.starts.at(ev.transition.value);
    c.transitions.at(ev.transition.value).change(ev.time, +1);
    for (const TokenDelta& d : ev.consumed) {
      c.places.at(d.place.value).change(ev.time, -static_cast<std::int64_t>(d.count));
    }
  } else {
    ++c.events_finished;
    ++c.ends.at(ev.transition.value);
    c.transitions.at(ev.transition.value).change(ev.time, -1);
    for (const TokenDelta& d : ev.produced) {
      c.places.at(d.place.value).change(ev.time, +static_cast<std::int64_t>(d.count));
    }
  }
}

void StatCollector::end(Time end_time) {
  result_ = counters_.finish(run_number_, header_.start_time, end_time,
                             header_.place_names, header_.transition_names);
}

const RunStats& StatCollector::stats() const {
  if (!result_) {
    throw std::logic_error("StatCollector: stats() called before the trace ended");
  }
  return *result_;
}

RunStats collect_stats(const RecordedTrace& trace, int run_number) {
  StatCollector collector;
  collector.set_run_number(run_number);
  collector.begin(trace.header());
  for (const TraceEvent& ev : trace.events()) collector.event(ev);
  collector.end(trace.end_time());
  return collector.stats();
}

namespace {

std::string fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

/// Left-align `text` in a column of `width` (plus two spaces of gutter).
void put(std::ostringstream& out, const std::string& text, std::size_t width) {
  out << text;
  for (std::size_t i = text.size(); i < width + 2; ++i) out << ' ';
}

}  // namespace

std::string format_report(const RunStats& s, bool skip_idle) {
  std::ostringstream out;

  out << "RUN STATISTICS\n";
  out << "  Run number            " << s.run_number << '\n';
  out << "  Initial clock value   " << fmt(s.initial_clock, 10) << '\n';
  out << "  Length of Simulation  " << fmt(s.length, 10) << '\n';
  out << "  Events started        " << s.events_started << '\n';
  out << "  Events finished       " << s.events_finished << "\n\n";

  // Column widths for the event table.
  std::size_t name_w = 10;
  for (const TransitionStats& t : s.transitions) name_w = std::max(name_w, t.name.size());

  out << "EVENT STATISTICS\n";
  std::ostringstream header_row;
  put(header_row, "Transition", name_w);
  put(header_row, "Min/Max", 9);
  put(header_row, "Avg", 9);
  put(header_row, "Std.Dev", 9);
  put(header_row, "Starts/Ends", 13);
  put(header_row, "Throughput", 10);
  out << "  " << header_row.str() << '\n';
  for (const TransitionStats& t : s.transitions) {
    if (skip_idle && t.starts == 0) continue;
    std::ostringstream row;
    put(row, t.name, name_w);
    put(row, std::to_string(t.min_concurrent) + "/" + std::to_string(t.max_concurrent), 9);
    put(row, fmt(t.avg_concurrent), 9);
    put(row, fmt(t.stddev_concurrent, 6), 9);
    put(row, std::to_string(t.starts) + "/" + std::to_string(t.ends), 13);
    put(row, fmt(t.throughput), 10);
    out << "  " << row.str() << '\n';
  }
  out << '\n';

  std::size_t pname_w = 5;
  for (const PlaceStats& p : s.places) pname_w = std::max(pname_w, p.name.size());

  out << "PLACE STATISTICS\n";
  std::ostringstream pheader;
  put(pheader, "Place", pname_w);
  put(pheader, "Min/Max", 9);
  put(pheader, "Avg", 9);
  put(pheader, "Std.Dev", 9);
  out << "  " << pheader.str() << '\n';
  for (const PlaceStats& p : s.places) {
    if (skip_idle && p.min_tokens == p.max_tokens && p.avg_tokens == p.min_tokens &&
        p.stddev_tokens == 0 && p.max_tokens == 0) {
      continue;
    }
    std::ostringstream row;
    put(row, p.name, pname_w);
    put(row, std::to_string(p.min_tokens) + "/" + std::to_string(p.max_tokens), 9);
    put(row, fmt(p.avg_tokens), 9);
    put(row, fmt(p.stddev_tokens, 6), 9);
    out << "  " << row.str() << '\n';
  }

  return out.str();
}

std::string format_report_tbl(const RunStats& s) {
  std::ostringstream out;
  out << ".TS\ncenter box;\nl l l l l l.\n";
  out << "Transition\tMin/Max\tAvg\tStd.Dev\tStarts/Ends\tThroughput\n=\n";
  for (const TransitionStats& t : s.transitions) {
    out << t.name << '\t' << t.min_concurrent << '/' << t.max_concurrent << '\t'
        << fmt(t.avg_concurrent) << '\t' << fmt(t.stddev_concurrent, 6) << '\t' << t.starts
        << '/' << t.ends << '\t' << fmt(t.throughput) << '\n';
  }
  out << ".TE\n.TS\ncenter box;\nl l l l.\n";
  out << "Place\tMin/Max\tAvg\tStd.Dev\n=\n";
  for (const PlaceStats& p : s.places) {
    out << p.name << '\t' << p.min_tokens << '/' << p.max_tokens << '\t' << fmt(p.avg_tokens)
        << '\t' << fmt(p.stddev_tokens, 6) << '\n';
  }
  out << ".TE\n";
  return out.str();
}

}  // namespace pnut
