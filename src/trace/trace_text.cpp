#include "trace/trace_text.h"

#include <cstdio>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/parse_number.h"

namespace pnut {

namespace {

/// Times are written with enough digits to round-trip exactly.
std::string format_time(Time t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", t);
  return buf;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw std::runtime_error("trace text, line " + std::to_string(line_no) + ": " + message);
}

/// The next field of `ls` read whole as a T: an integer in T's range
/// (parse_int) or, for a floating-point T, a finite number. A missing field
/// makes a malformed `kind` line; a field that is no T is named as `what`.
template <typename T>
T read_field(std::istream& ls, std::size_t line_no, const char* kind, const char* what) {
  std::string field;
  if (!(ls >> field)) fail(line_no, std::string("malformed ") + kind + " line");
  std::optional<T> value;
  if constexpr (std::is_floating_point_v<T>) {
    value = parse_finite_number(field);
  } else {
    value = parse_int<T>(field);
  }
  if (!value) fail(line_no, std::string("bad ") + what + " '" + field + "'");
  return *value;
}

}  // namespace

void TextTraceWriter::begin(const TraceHeader& header) {
  std::ostream& out = *out_;
  out << "pnut-trace 1\n";
  out << "net " << (header.net_name.empty() ? "-" : header.net_name) << '\n';
  for (std::size_t i = 0; i < header.place_names.size(); ++i) {
    out << "place " << i << ' ' << header.place_names[i] << ' '
        << header.initial_marking[PlaceId(static_cast<std::uint32_t>(i))] << '\n';
  }
  for (std::size_t i = 0; i < header.transition_names.size(); ++i) {
    out << "transition " << i << ' ' << header.transition_names[i] << '\n';
  }
  for (const auto& [name, value] : header.initial_data.scalars()) {
    out << "var " << name << ' ' << value << '\n';
  }
  for (const auto& [name, values] : header.initial_data.tables()) {
    out << "table " << name << ' ' << values.size();
    for (std::int64_t v : values) out << ' ' << v;
    out << '\n';
  }
  out << "start " << format_time(header.start_time) << '\n';
}

void TextTraceWriter::event(const TraceEvent& ev) {
  std::ostream& out = *out_;
  const char tag = ev.kind == TraceEvent::Kind::kStart   ? 'S'
                   : ev.kind == TraceEvent::Kind::kEnd   ? 'E'
                                                         : 'A';
  out << tag << ' ' << format_time(ev.time) << ' ' << ev.transition.value << ' '
      << ev.firing_id;
  for (const TokenDelta& d : ev.consumed) {
    out << " p" << d.place.value << ':' << d.count;
  }
  for (const TokenDelta& d : ev.produced) {
    out << " q" << d.place.value << ':' << d.count;
  }
  for (const ScalarUpdate& u : ev.scalar_updates) {
    out << " v:" << u.name << '=' << u.value;
  }
  for (const TableUpdate& u : ev.table_updates) {
    out << " t:" << u.name << '[' << u.index << "]=" << u.value;
  }
  out << '\n';
}

void TextTraceWriter::end(Time end_time) {
  *out_ << "end " << format_time(end_time) << '\n';
  out_->flush();
}

std::string write_trace_text(const RecordedTrace& trace) {
  std::ostringstream out;
  TextTraceWriter writer(out);
  writer.begin(trace.header());
  for (const TraceEvent& ev : trace.events()) writer.event(ev);
  writer.end(trace.end_time());
  return out.str();
}

RecordedTrace read_trace_text(const std::string& text) {
  std::istringstream in(text);
  return read_trace_text(in);
}

RecordedTrace read_trace_text(std::istream& in) {
  RecordedTrace trace;
  TraceHeader header;
  std::vector<TokenCount> initial_tokens;
  bool began = false;
  bool ended = false;

  std::string line;
  std::size_t line_no = 0;

  // --- header ---------------------------------------------------------------
  if (!std::getline(in, line)) fail(1, "empty input");
  ++line_no;
  if (line != "pnut-trace 1") fail(line_no, "bad magic, expected 'pnut-trace 1'");

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;

    if (keyword == "net") {
      ls >> header.net_name;
      if (header.net_name == "-") header.net_name.clear();
    } else if (keyword == "place") {
      const auto index = read_field<std::size_t>(ls, line_no, "place", "place index");
      std::string name;
      if (!(ls >> name)) fail(line_no, "malformed place line");
      const auto count = read_field<TokenCount>(ls, line_no, "place", "initial token count");
      if (index != header.place_names.size()) fail(line_no, "place indices must be dense");
      header.place_names.push_back(name);
      initial_tokens.push_back(count);
    } else if (keyword == "transition") {
      const auto index =
          read_field<std::size_t>(ls, line_no, "transition", "transition index");
      std::string name;
      if (!(ls >> name)) fail(line_no, "malformed transition line");
      if (index != header.transition_names.size()) {
        fail(line_no, "transition indices must be dense");
      }
      header.transition_names.push_back(name);
    } else if (keyword == "var") {
      std::string name;
      if (!(ls >> name)) fail(line_no, "malformed var line");
      header.initial_data.set(name, read_field<std::int64_t>(ls, line_no, "var", "var value"));
    } else if (keyword == "table") {
      std::string name;
      if (!(ls >> name)) fail(line_no, "malformed table line");
      const auto n = read_field<std::size_t>(ls, line_no, "table", "table size");
      // Grown entry by entry: the size is only as large as the line it is on.
      std::vector<std::int64_t> values;
      std::string entry;
      for (std::size_t i = 0; i < n; ++i) {
        if (!(ls >> entry)) fail(line_no, "table shorter than declared size");
        const auto value = parse_int<std::int64_t>(entry);
        if (!value) fail(line_no, "bad table value '" + entry + "'");
        values.push_back(*value);
      }
      header.initial_data.set_table(name, std::move(values));
    } else if (keyword == "start") {
      header.start_time = read_field<Time>(ls, line_no, "start", "start time");
      header.initial_marking = Marking(header.place_names.size());
      for (std::size_t i = 0; i < initial_tokens.size(); ++i) {
        header.initial_marking[PlaceId(static_cast<std::uint32_t>(i))] = initial_tokens[i];
      }
      trace.begin(header);
      began = true;
      break;
    } else {
      fail(line_no, "unknown header keyword '" + keyword + "'");
    }
  }
  if (!began) fail(line_no, "missing 'start' line");

  // Every event is replayed as it is read, by the TraceCursor every trace
  // command steps, so an event that removes more tokens than a place holds,
  // overflows a count, updates an unknown table entry or ends a firing that
  // is not in flight fails here, with its line number, for all of them.
  TraceCursor replay(trace);

  // --- events ---------------------------------------------------------------
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;

    if (keyword == "end") {
      const Time end_time = read_field<Time>(ls, line_no, "end", "end time");
      if (end_time < replay.time()) {
        fail(line_no, "end time is earlier than the last event or the start time");
      }
      trace.end(end_time);
      ended = true;
      break;
    }
    if (keyword != "S" && keyword != "E" && keyword != "A") {
      fail(line_no, "expected event line (S/E/A) or 'end', got '" + keyword + "'");
    }

    TraceEvent ev;
    ev.kind = (keyword == "S")   ? TraceEvent::Kind::kStart
              : (keyword == "E") ? TraceEvent::Kind::kEnd
                                 : TraceEvent::Kind::kAtomic;
    ev.time = read_field<Time>(ls, line_no, "event", "event time");
    const auto transition_index =
        read_field<std::uint32_t>(ls, line_no, "event", "transition index");
    ev.firing_id = read_field<std::uint64_t>(ls, line_no, "event", "firing id");
    if (transition_index >= header.transition_names.size()) {
      fail(line_no, "event references unknown transition index " +
                        std::to_string(transition_index));
    }
    ev.transition = TransitionId(transition_index);

    std::string field;
    while (ls >> field) {
      const std::string_view view = field;
      if (field.size() >= 2 && (field[0] == 'p' || field[0] == 'q') &&
          field.find(':') != std::string::npos && field[1] != ':') {
        const auto colon = field.find(':');
        const auto place_index = parse_int<std::uint32_t>(view.substr(1, colon - 1));
        if (!place_index) fail(line_no, "bad place index in '" + field + "'");
        if (*place_index >= header.place_names.size()) {
          fail(line_no, "token delta references unknown place index " +
                            std::to_string(*place_index));
        }
        const auto count = parse_int<TokenCount>(view.substr(colon + 1));
        if (!count) {
          fail(line_no, "bad token count in '" + field + "' (expected an integer in [0, " +
                            std::to_string(std::numeric_limits<TokenCount>::max()) + "])");
        }
        TokenDelta d{PlaceId(*place_index), *count};
        (field[0] == 'p' ? ev.consumed : ev.produced).push_back(d);
      } else if (field.rfind("v:", 0) == 0) {
        const auto eq = field.find('=');
        const auto value = eq == std::string::npos
                               ? std::nullopt
                               : parse_int<std::int64_t>(view.substr(eq + 1));
        if (!value) fail(line_no, "malformed var update '" + field + "'");
        ev.scalar_updates.push_back(ScalarUpdate{field.substr(2, eq - 2), *value});
      } else if (field.rfind("t:", 0) == 0) {
        const auto lb = field.find('[');
        const auto rb = field.find("]=");
        const auto index = lb == std::string::npos || rb == std::string::npos || rb < lb
                               ? std::nullopt
                               : parse_int<std::int64_t>(view.substr(lb + 1, rb - lb - 1));
        const auto value =
            index ? parse_int<std::int64_t>(view.substr(rb + 2)) : std::nullopt;
        if (!value) fail(line_no, "malformed table update '" + field + "'");
        ev.table_updates.push_back(TableUpdate{field.substr(2, lb - 2), *index, *value});
      } else {
        fail(line_no, "unknown event field '" + field + "'");
      }
    }
    try {
      trace.event(ev);
      replay.step();
    } catch (const std::exception& e) {
      fail(line_no, e.what());
    }
  }
  if (!ended) fail(line_no, "missing 'end' line");
  return trace;
}

}  // namespace pnut
