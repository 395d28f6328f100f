#include "anim/animator.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace pnut::anim {

Animator::Animator(const RecordedTrace& trace, AnimOptions options)
    : trace_(&trace), options_(options), cursor_(trace) {}

std::string Animator::state_block() const {
  std::ostringstream out;
  const Marking& m = cursor_.marking();

  std::size_t name_w = 4;
  for (std::size_t i = 0; i < m.size(); ++i) {
    const PlaceId p(static_cast<std::uint32_t>(i));
    if (m[p] > 0 || options_.show_empty_places) {
      name_w = std::max(name_w, place_name(p).size());
    }
  }
  for (std::size_t i = 0; i < trace_->header().transition_names.size(); ++i) {
    if (cursor_.active_firings(TransitionId(static_cast<std::uint32_t>(i))) > 0) {
      name_w = std::max(name_w, transition_name(TransitionId(static_cast<std::uint32_t>(i)))
                                    .size());
    }
  }

  for (std::size_t i = 0; i < m.size(); ++i) {
    const PlaceId p(static_cast<std::uint32_t>(i));
    const TokenCount tokens = m[p];
    if (tokens == 0 && !options_.show_empty_places) continue;
    out << "  (" << place_name(p) << ')';
    for (std::size_t k = place_name(p).size(); k < name_w; ++k) out << ' ';
    out << ' ';
    if (tokens <= options_.max_token_glyphs) {
      for (TokenCount k = 0; k < tokens; ++k) out << 'o';
    } else {
      out << 'o' << 'x' << tokens;
    }
    out << '\n';
  }

  for (std::size_t i = 0; i < trace_->header().transition_names.size(); ++i) {
    const TransitionId t(static_cast<std::uint32_t>(i));
    const std::uint32_t active = cursor_.active_firings(t);
    if (active == 0) continue;
    out << "  [" << transition_name(t) << ']';
    for (std::size_t k = transition_name(t).size(); k < name_w; ++k) out << ' ';
    out << " firing";
    if (active > 1) out << " x" << active;
    out << '\n';
  }
  return out.str();
}

std::string Animator::frame(const std::string& headline,
                            const std::vector<std::string>& arc_lines) const {
  std::ostringstream out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "t=%-10.6g state #%zu  %s\n", cursor_.time(),
                cursor_.state_index(), headline.c_str());
  out << buf;
  for (const std::string& line : arc_lines) out << "  " << line << '\n';
  out << state_block();
  return out.str();
}

std::string Animator::current_frame() const { return frame("", {}); }

std::vector<std::string> Animator::single_step() {
  if (cursor_.at_end()) throw std::logic_error("Animator: at end of trace");
  const TraceEvent ev = cursor_.pending_event();
  const std::string tname = transition_name(ev.transition);

  // The event's arc and update lines; each kind of event shows its own.
  std::vector<std::string> consumed;
  for (const TokenDelta& d : ev.consumed) {
    consumed.push_back(place_name(d.place) + " ==(" + std::to_string(d.count) + ")==> [" +
                       tname + ']');
  }
  std::vector<std::string> produced;
  for (const TokenDelta& d : ev.produced) {
    produced.push_back("[" + tname + "] ==(" + std::to_string(d.count) + ")==> " +
                       place_name(d.place));
  }
  std::vector<std::string> updates;
  for (const ScalarUpdate& u : ev.scalar_updates) {
    updates.push_back(u.name + " := " + std::to_string(u.value));
  }
  for (const TableUpdate& u : ev.table_updates) {
    updates.push_back(u.name + "[" + std::to_string(u.index) + "] := " + std::to_string(u.value));
  }

  std::vector<std::string> frames;
  if (ev.kind == TraceEvent::Kind::kAtomic) {
    // Zero-duration firing: tokens flow in and out in one step.
    consumed.insert(consumed.end(), produced.begin(), produced.end());
    consumed.insert(consumed.end(), updates.begin(), updates.end());
    frames.push_back(frame(tname + " fires", consumed));
    cursor_.step();
    frames.push_back(frame("after " + tname, {}));
  } else if (ev.kind == TraceEvent::Kind::kStart) {
    // Sub-frame 1: tokens in transit from input places to the transition.
    if (consumed.empty()) consumed.push_back("[" + tname + "] (no input tokens)");
    frames.push_back(frame(tname + " begins firing", consumed));
    cursor_.step();
    // Sub-frame 2: the transition holds the tokens.
    frames.push_back(frame(tname + " firing", updates));
  } else {
    // Sub-frame: tokens in transit from the transition to output places.
    if (produced.empty()) produced.push_back("[" + tname + "] (no output tokens)");
    frames.push_back(frame(tname + " completes firing", produced));
    cursor_.step();
    frames.push_back(frame("after " + tname, {}));
  }
  return frames;
}

std::string Animator::play(std::size_t last_state) {
  std::ostringstream out;
  const std::string rule(options_.width, '-');
  while (!cursor_.at_end() && cursor_.state_index() < last_state) {
    for (const std::string& f : single_step()) out << rule << '\n' << f;
  }
  out << rule << '\n';
  return out.str();
}

}  // namespace pnut::anim
