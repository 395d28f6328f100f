#include "analysis/state_space.h"

#include <algorithm>
#include <numeric>

namespace pnut::analysis {

TraceStateSpace::TraceStateSpace(const RecordedTrace& trace)
    : trace_(&trace),
      num_places_(trace.header().place_names.size()),
      data_offset_(num_places_ + trace.header().transition_names.size()),
      arena_(0) {
  // The header's scalars and every name the S and A events assign (a cursor ignores E's).
  std::vector<std::string> names;
  for (const auto& [name, value] : trace.header().initial_data.scalars()) names.push_back(name);
  for (const TraceEvent& ev : trace.events()) {
    for (const ScalarUpdate& u : ev.scalar_updates) {
      if (ev.kind != TraceEvent::Kind::kEnd &&
          std::find(names.begin(), names.end(), u.name) == names.end()) {
        names.push_back(u.name);
      }
    }
  }
  schema_ = DataSchema::build({}, names);
  arena_ = StateArena(data_offset_ + schema_.encoded_words());

  TraceCursor cursor(trace);
  const std::size_t n = trace.num_states();
  arena_.reserve(n);
  times_.reserve(n);

  std::vector<std::uint32_t> scratch(arena_.width());
  DataFrame frame{std::vector<std::int64_t>(schema_.num_values()),
                  std::vector<std::uint8_t>(schema_.num_scalars())};
  const auto set_scalar = [&](const std::string& name, std::int64_t value) {
    const std::uint32_t slot = *schema_.scalar_slot(name);
    frame.values[slot] = value;
    frame.present[slot] = 1;
  };
  for (const auto& [name, value] : trace.header().initial_data.scalars()) set_scalar(name, value);
  const auto snapshot = [&] {
    const auto& tokens = cursor.marking().tokens();
    std::copy(tokens.begin(), tokens.end(), scratch.begin());
    const auto& active = cursor.all_active_firings();
    std::copy(active.begin(), active.end(),
              scratch.begin() + static_cast<std::ptrdiff_t>(num_places_));
    schema_.encode(frame, scratch.data() + data_offset_);
    arena_.push(scratch);
    times_.push_back(cursor.time());
  };

  snapshot();
  while (!cursor.at_end()) {
    const TraceEvent& ev = cursor.pending_event();
    cursor.step();
    if (ev.kind != TraceEvent::Kind::kEnd) {
      for (const ScalarUpdate& u : ev.scalar_updates) set_scalar(u.name, u.value);
    }
    snapshot();
  }
}

void TraceStateSpace::successor_rows(std::vector<std::size_t>& offsets,
                                     std::vector<std::uint32_t>& targets) const {
  const std::size_t n = arena_.size();
  offsets.resize(n + 1);
  targets.resize(n == 0 ? 0 : n - 1);
  std::iota(offsets.begin(), offsets.end() - 1, std::size_t{0});
  offsets[n] = targets.size();
  std::iota(targets.begin(), targets.end(), std::uint32_t{1});
}

std::optional<PlaceId> TraceStateSpace::find_place(std::string_view name) const {
  const auto& names = trace_->header().place_names;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return PlaceId(static_cast<std::uint32_t>(i));
  }
  return std::nullopt;
}

std::optional<TransitionId> TraceStateSpace::find_transition(std::string_view name) const {
  const auto& names = trace_->header().transition_names;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return TransitionId(static_cast<std::uint32_t>(i));
  }
  return std::nullopt;
}

}  // namespace pnut::analysis
