#include "analysis/state_space.h"

#include <numeric>

namespace pnut::analysis {

TraceStateSpace::TraceStateSpace(const RecordedTrace& trace)
    : trace_(&trace),
      num_places_(trace.header().place_names.size()),
      arena_(trace.header().place_names.size() + trace.header().transition_names.size()) {
  TraceCursor cursor(trace);
  const std::size_t n = trace.num_states();
  arena_.reserve(n);
  data_.reserve(n);
  times_.reserve(n);

  std::vector<std::uint32_t> scratch(arena_.width());
  const auto snapshot = [&] {
    const auto& tokens = cursor.marking().tokens();
    std::copy(tokens.begin(), tokens.end(), scratch.begin());
    const auto active = cursor.all_active_firings();
    std::copy(active.begin(), active.end(),
              scratch.begin() + static_cast<std::ptrdiff_t>(num_places_));
    arena_.push(scratch);
    data_.push_back(cursor.data());
    times_.push_back(cursor.time());
  };

  snapshot();
  while (!cursor.at_end()) {
    cursor.step();
    snapshot();
  }
}

std::int64_t TraceStateSpace::place_tokens(std::size_t state, PlaceId p) const {
  return arena_[state][p.value];
}

std::int64_t TraceStateSpace::transition_activity(std::size_t state, TransitionId t) const {
  return arena_[state][num_places_ + t.value];
}

std::optional<std::int64_t> TraceStateSpace::variable(std::size_t state,
                                                      std::string_view name) const {
  const DataContext& d = data_.at(state);
  if (d.has(name)) return d.get(name);
  return std::nullopt;
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
