#include "tracer/tracer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "expr/parser.h"
#include "expr/program.h"
#include "expr/vm.h"
#include "petri/data_frame.h"

namespace pnut::tracer {

Tracer::Tracer(const RecordedTrace& trace) : trace_(&trace), states_(trace) {}

Time Tracer::start_time() const { return trace_->header().start_time; }

std::size_t Tracer::state_at(Time t) const {
  // States are ordered by time; binary search the last state with
  // state_time <= t.
  std::size_t lo = 0;
  std::size_t hi = states_.num_states();  // exclusive
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (states_.state_time(mid) <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

std::string label_or(std::string_view label, std::string_view name) {
  return std::string(label.empty() ? name : label);
}

/// Every net-level name an expression reads, once each, in first-read order
/// (locals are frame slots the parser already bound).
void collect_names(const expr::Node& node, std::vector<std::string>& out) {
  const auto* ident = dynamic_cast<const expr::IdentifierNode*>(&node);
  if (ident != nullptr && ident->local_slot() < 0 &&
      std::find(out.begin(), out.end(), ident->name()) == out.end()) {
    out.push_back(ident->name());
  }
  expr::for_each_child(node, [&](const expr::Node& child) { collect_names(child, out); });
}

}  // namespace

template <class ValueOf>
void Tracer::add_signal(std::string label, ValueOf value_of) {
  Signal s{std::move(label), {}};
  s.values.reserve(states_.num_states());
  for (std::size_t i = 0; i < states_.num_states(); ++i) s.values.push_back(value_of(i));
  signals_.push_back(std::move(s));
}

void Tracer::add_place_signal(std::string_view place_name, std::string_view label) {
  const auto p = states_.find_place(place_name);
  if (!p) {
    throw std::invalid_argument("Tracer: no place named '" + std::string(place_name) + "'");
  }
  add_signal(label_or(label, place_name),
             [&](std::size_t i) { return states_.place_tokens(i, *p); });
}

void Tracer::add_transition_signal(std::string_view transition_name, std::string_view label) {
  const auto t = states_.find_transition(transition_name);
  if (!t) {
    throw std::invalid_argument("Tracer: no transition named '" +
                                std::string(transition_name) + "'");
  }
  add_signal(label_or(label, transition_name),
             [&](std::size_t i) { return states_.transition_activity(i, *t); });
}

void Tracer::add_variable_signal(std::string_view variable, std::string_view label) {
  const auto slot = states_.find_variable(variable);
  add_signal(label_or(label, variable), [&](std::size_t i) {
    const auto v = slot ? states_.variable(i, *slot) : std::nullopt;
    if (!v) {
      throw std::invalid_argument("Tracer: no data variable named '" +
                                  std::string(variable) + "'");
    }
    return *v;
  });
}

void Tracer::add_function_signal(std::string_view label, std::string_view expression) {
  const expr::NodePtr ast = expr::parse_expression(expression);

  // One frame slot per name the expression reads, each resolved once: a
  // place, else a transition, else a variable of the trace. A name that is
  // none of these stays an absent slot, as does a variable in a state that
  // lacks it: reading one raises the VM's unknown-identifier error.
  std::vector<std::string> names;
  collect_names(*ast, names);
  const DataSchema schema = DataSchema::build({}, names);
  const expr::Code code = expr::compile_expression(*ast, schema);
  enum class Kind : std::uint8_t { kPlace, kTransition, kVariable };
  struct Input {
    Kind kind;
    std::uint32_t id;    ///< place or transition index, or variable slot
    std::uint32_t slot;  ///< scalar slot in the frame
  };
  std::vector<Input> inputs;
  for (const std::string& name : names) {
    const std::uint32_t slot = *schema.scalar_slot(name);
    if (const auto p = states_.find_place(name)) {
      inputs.push_back({Kind::kPlace, p->value, slot});
    } else if (const auto t = states_.find_transition(name)) {
      inputs.push_back({Kind::kTransition, t->value, slot});
    } else if (const auto v = states_.find_variable(name)) {
      inputs.push_back({Kind::kVariable, *v, slot});
    }
  }

  DataFrame frame = schema.make_frame({});
  expr::VmScratch scratch;
  add_signal(std::string(label), [&](std::size_t i) {
    for (const Input& in : inputs) {
      const std::optional<std::int64_t> value =
          in.kind == Kind::kPlace        ? states_.place_tokens(i, PlaceId(in.id))
          : in.kind == Kind::kTransition ? states_.transition_activity(i, TransitionId(in.id))
                                         : states_.variable(i, in.id);
      frame.present[in.slot] = value.has_value() ? 1 : 0;
      frame.values[in.slot] = value.value_or(0);
    }
    return expr::vm_eval(code, frame, nullptr, scratch);
  });
}

std::int64_t Tracer::value_at(std::size_t index, Time t) const {
  return signals_.at(index).values.at(state_at(t));
}

void Tracer::set_marker(char name, Time position) {
  for (auto& [n, t] : markers_) {
    if (n == name) {
      t = position;
      return;
    }
  }
  markers_.emplace_back(name, position);
}

void Tracer::set_marker_at_state(char name, std::size_t state_index) {
  set_marker(name, states_.state_time(state_index));
}

std::optional<Time> Tracer::marker(char name) const {
  for (const auto& [n, t] : markers_) {
    if (n == name) return t;
  }
  return std::nullopt;
}

Time Tracer::marker_distance(char a, char b) const {
  const auto ta = marker(a);
  const auto tb = marker(b);
  if (!ta || !tb) {
    throw std::invalid_argument(std::string("Tracer: marker '") + (ta ? b : a) +
                                "' is not set");
  }
  return std::fabs(*ta - *tb);
}

std::optional<Time> Tracer::first_time_at_or_above(std::size_t index, std::int64_t threshold,
                                                   Time from) const {
  const Signal& s = signals_.at(index);
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    if (states_.state_time(i) < from) continue;
    if (s.values[i] >= threshold) return states_.state_time(i);
  }
  return std::nullopt;
}

namespace {

/// Amplitude ramps, low to high. Index 0 is "zero".
constexpr const char* kAsciiRamp = "_.:-=+*#@";
constexpr const char* kUnicodeRamp[] = {"▁", "▂", "▃", "▄",
                                        "▅", "▆", "▇", "█"};

}  // namespace

std::string Tracer::render(Time t0, Time t1, RenderOptions options) const {
  if (t1 <= t0) throw std::invalid_argument("Tracer::render: require t0 < t1");
  const std::size_t cols = std::max<std::size_t>(options.columns, 8);

  std::size_t label_w = 8;
  for (const Signal& s : signals_) label_w = std::max(label_w, s.label.size());

  std::ostringstream out;
  char buf[64];

  // Sample each signal at column midpoints.
  auto column_time = [&](std::size_t c) {
    return t0 + (t1 - t0) * (static_cast<double>(c) + 0.5) / static_cast<double>(cols);
  };

  for (const Signal& s : signals_) {
    // Scale per signal over the window.
    std::int64_t peak = 1;
    std::vector<std::int64_t> samples(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      samples[c] = s.values.at(state_at(column_time(c)));
      peak = std::max(peak, samples[c]);
    }
    out << s.label;
    for (std::size_t i = s.label.size(); i < label_w + 1; ++i) out << ' ';
    out << '|';
    for (std::size_t c = 0; c < cols; ++c) {
      // v * 8 in 128 bits: it overflows int64 once v passes INT64_MAX / 8.
      const __int128 v8 = static_cast<__int128>(samples[c]) * 8;
      if (v8 <= 0) {
        out << (options.unicode ? ' ' : kAsciiRamp[0]);
      } else if (options.unicode) {
        out << kUnicodeRamp[std::min<__int128>(7, (v8 - 1) / peak)];
      } else {
        // Map (0, peak] onto ramp indices 1..8 so that v == peak renders
        // full height ('@') even when peak == 1.
        out << kAsciiRamp[std::clamp<__int128>(v8 / peak, 1, 8)];
      }
    }
    out << "| max=" << peak << '\n';
  }

  if (options.show_axis) {
    // Time axis.
    for (std::size_t i = 0; i < label_w + 1; ++i) out << ' ';
    out << '+';
    for (std::size_t c = 0; c < cols; ++c) out << (c % 10 == 9 ? '+' : '-');
    out << "+\n";
    for (std::size_t i = 0; i < label_w + 2; ++i) out << ' ';
    std::snprintf(buf, sizeof(buf), "%-.6g", t0);
    out << buf;
    char right[32];
    std::snprintf(right, sizeof(right), "%.6g", t1);
    for (std::size_t i = std::strlen(buf); i + std::strlen(right) < cols; ++i) out << ' ';
    out << right << '\n';

    // Marker row + legend.
    if (!markers_.empty()) {
      std::string row(cols, ' ');
      for (const auto& [name, t] : markers_) {
        if (t < t0 || t > t1) continue;
        const auto c = static_cast<std::size_t>((t - t0) / (t1 - t0) * (cols - 1));
        row[std::min(c, cols - 1)] = name;
      }
      for (std::size_t i = 0; i < label_w + 2; ++i) out << ' ';
      out << row << '\n';
      for (const auto& [name, t] : markers_) {
        std::snprintf(buf, sizeof(buf), "  %c position: %.6g (state #%zu)\n", name, t,
                      state_at(t));
        out << buf;
      }
      for (std::size_t i = 0; i < markers_.size(); ++i) {
        for (std::size_t j = i + 1; j < markers_.size(); ++j) {
          std::snprintf(buf, sizeof(buf), "  %c <-> %c: %.6g\n", markers_[i].first,
                        markers_[j].first,
                        std::fabs(markers_[i].second - markers_[j].second));
          out << buf;
        }
      }
    }
  }
  return out.str();
}

std::string Tracer::render_all(RenderOptions options) const {
  const Time t0 = start_time();
  Time t1 = end_time();
  if (t1 <= t0) t1 = t0 + 1;
  return render(t0, t1, options);
}

analysis::QueryResult Tracer::check(std::string_view query) const {
  return analysis::eval_query(states_, query);
}

}  // namespace pnut::tracer
