#include "petri/net.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace pnut {

// --- DelaySpec ---------------------------------------------------------------

DelaySpec DelaySpec::constant(Time value) {
  if (value < 0) throw std::invalid_argument("DelaySpec::constant: negative delay");
  DelaySpec d;
  d.kind_ = Kind::kConstant;
  d.constant_ = value;
  return d;
}

DelaySpec DelaySpec::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo < 0 || hi < lo) {
    throw std::invalid_argument("DelaySpec::uniform_int: require 0 <= lo <= hi");
  }
  DelaySpec d;
  d.kind_ = Kind::kUniform;
  d.lo_ = lo;
  d.hi_ = hi;
  return d;
}

DelaySpec DelaySpec::discrete(std::vector<std::pair<Time, double>> choices) {
  if (choices.empty()) {
    throw std::invalid_argument("DelaySpec::discrete: empty choice list");
  }
  double total = 0;
  for (const auto& [value, weight] : choices) {
    if (value < 0) throw std::invalid_argument("DelaySpec::discrete: negative delay value");
    if (weight < 0) throw std::invalid_argument("DelaySpec::discrete: negative weight");
    total += weight;
  }
  if (total <= 0) throw std::invalid_argument("DelaySpec::discrete: zero total weight");
  DelaySpec d;
  d.kind_ = Kind::kDiscrete;
  d.choices_ = std::move(choices);
  return d;
}

DelaySpec DelaySpec::computed(ComputedDelay delay) {
  if (!delay.ast) throw std::invalid_argument("DelaySpec::computed: null expression");
  DelaySpec d;
  d.kind_ = Kind::kComputed;
  d.computed_ = std::move(delay);
  return d;
}

Time DelaySpec::sample(Rng& rng) const {
  switch (kind_) {
    case Kind::kConstant:
      return constant_;
    case Kind::kUniform:
      return static_cast<Time>(rng.next_int(lo_, hi_));
    case Kind::kDiscrete: {
      double total = 0;
      for (const auto& [value, weight] : choices_) total += weight;
      double r = rng.next_double() * total;
      for (const auto& [value, weight] : choices_) {
        r -= weight;
        if (r < 0) return value;
      }
      return choices_.back().first;
    }
    case Kind::kComputed:
      throw std::logic_error(
          "DelaySpec::sample: computed delays are evaluated by the net's bytecode");
  }
  return 0;  // unreachable
}

std::optional<Time> DelaySpec::mean() const {
  switch (kind_) {
    case Kind::kConstant:
      return constant_;
    case Kind::kUniform:
      return static_cast<Time>(lo_ + hi_) / 2.0;
    case Kind::kDiscrete: {
      double total = 0;
      double acc = 0;
      for (const auto& [value, weight] : choices_) {
        total += weight;
        acc += value * weight;
      }
      return acc / total;
    }
    case Kind::kComputed:
      return std::nullopt;
  }
  return std::nullopt;
}

// --- Net construction --------------------------------------------------------

PlaceId Net::add_place(std::string_view name, TokenCount initial_tokens,
                       std::optional<TokenCount> capacity) {
  places_.push_back(Place{std::string(name), initial_tokens, capacity});
  const auto id = static_cast<std::uint32_t>(places_.size() - 1);
  place_index_.emplace(places_.back().name, id);  // first occurrence wins
  return PlaceId(id);
}

TransitionId Net::add_transition(std::string_view name) {
  Transition t;
  t.name = std::string(name);
  transitions_.push_back(std::move(t));
  const auto id = static_cast<std::uint32_t>(transitions_.size() - 1);
  transition_index_.emplace(transitions_.back().name, id);
  return TransitionId(id);
}

void Net::check_place(PlaceId id) const {
  if (!id.valid() || id.value >= places_.size()) {
    throw std::out_of_range("Net: invalid PlaceId " + std::to_string(id.value));
  }
}

void Net::check_transition(TransitionId id) const {
  if (!id.valid() || id.value >= transitions_.size()) {
    throw std::out_of_range("Net: invalid TransitionId " + std::to_string(id.value));
  }
}

void Net::add_input(TransitionId t, PlaceId p, TokenCount weight) {
  check_transition(t);
  check_place(p);
  transitions_[t.value].inputs.push_back(Arc{p, weight});
}

void Net::add_output(TransitionId t, PlaceId p, TokenCount weight) {
  check_transition(t);
  check_place(p);
  transitions_[t.value].outputs.push_back(Arc{p, weight});
}

void Net::add_inhibitor(TransitionId t, PlaceId p, TokenCount threshold) {
  check_transition(t);
  check_place(p);
  transitions_[t.value].inhibitors.push_back(Arc{p, threshold});
}

void Net::set_firing_time(TransitionId t, DelaySpec spec) {
  check_transition(t);
  transitions_[t.value].firing_time = std::move(spec);
}

void Net::set_enabling_time(TransitionId t, DelaySpec spec) {
  check_transition(t);
  transitions_[t.value].enabling_time = std::move(spec);
}

void Net::set_frequency(TransitionId t, double frequency) {
  check_transition(t);
  if (frequency <= 0) {
    throw std::invalid_argument("Net::set_frequency: frequency must be > 0 for '" +
                                transitions_[t.value].name + "'");
  }
  transitions_[t.value].frequency = frequency;
}

void Net::set_policy(TransitionId t, FiringPolicy policy) {
  check_transition(t);
  transitions_[t.value].policy = policy;
}

void Net::set_predicate(TransitionId t, Predicate predicate) {
  check_transition(t);
  transitions_[t.value].predicate = std::move(predicate);
}

void Net::set_action(TransitionId t, Action action) {
  check_transition(t);
  transitions_[t.value].action = std::move(action);
}

void Net::set_initial_tokens(PlaceId p, TokenCount tokens) {
  check_place(p);
  places_[p.value].initial_tokens = tokens;
}

// --- lookup --------------------------------------------------------------------

std::optional<PlaceId> Net::find_place(std::string_view name) const {
  const auto it = place_index_.find(name);
  if (it == place_index_.end()) return std::nullopt;
  return PlaceId(it->second);
}

std::optional<TransitionId> Net::find_transition(std::string_view name) const {
  const auto it = transition_index_.find(name);
  if (it == transition_index_.end()) return std::nullopt;
  return TransitionId(it->second);
}

PlaceId Net::place_named(std::string_view name) const {
  if (auto id = find_place(name)) return *id;
  throw std::invalid_argument("Net: no place named '" + std::string(name) + "'");
}

TransitionId Net::transition_named(std::string_view name) const {
  if (auto id = find_transition(name)) return *id;
  throw std::invalid_argument("Net: no transition named '" + std::string(name) + "'");
}

// --- structural queries ---------------------------------------------------------

std::vector<TransitionId> Net::consumers_of(PlaceId p) const {
  check_place(p);
  std::vector<TransitionId> out;
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    for (const Arc& a : transitions_[i].inputs) {
      if (a.place == p) {
        out.push_back(TransitionId(static_cast<std::uint32_t>(i)));
        break;
      }
    }
  }
  return out;
}

std::vector<TransitionId> Net::producers_of(PlaceId p) const {
  check_place(p);
  std::vector<TransitionId> out;
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    for (const Arc& a : transitions_[i].outputs) {
      if (a.place == p) {
        out.push_back(TransitionId(static_cast<std::uint32_t>(i)));
        break;
      }
    }
  }
  return out;
}

std::vector<TransitionId> Net::inhibited_by(PlaceId p) const {
  check_place(p);
  std::vector<TransitionId> out;
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    for (const Arc& a : transitions_[i].inhibitors) {
      if (a.place == p) {
        out.push_back(TransitionId(static_cast<std::uint32_t>(i)));
        break;
      }
    }
  }
  return out;
}

TokenCount Net::input_weight(TransitionId t, PlaceId p) const {
  check_transition(t);
  check_place(p);
  TokenCount total = 0;
  for (const Arc& a : transitions_[t.value].inputs) {
    if (a.place == p) total += a.weight;
  }
  return total;
}

TokenCount Net::output_weight(TransitionId t, PlaceId p) const {
  check_transition(t);
  check_place(p);
  TokenCount total = 0;
  for (const Arc& a : transitions_[t.value].outputs) {
    if (a.place == p) total += a.weight;
  }
  return total;
}

bool Net::is_marked_graph() const {
  // Single pass: count per-place *distinct* consumer/producer transitions
  // instead of the old O(places * transitions) consumers_of/producers_of
  // rescans. `last_*` dedupes multiple arcs from one transition to a place.
  constexpr std::uint32_t kNone = UINT32_MAX;
  std::vector<std::uint32_t> last_consumer(places_.size(), kNone);
  std::vector<std::uint32_t> last_producer(places_.size(), kNone);
  std::vector<std::uint8_t> consumer_count(places_.size(), 0);
  std::vector<std::uint8_t> producer_count(places_.size(), 0);
  for (std::uint32_t ti = 0; ti < transitions_.size(); ++ti) {
    const Transition& t = transitions_[ti];
    if (!t.inhibitors.empty()) return false;
    for (const Arc& a : t.inputs) {
      if (a.weight != 1) return false;
      if (a.place.value >= places_.size()) continue;
      if (last_consumer[a.place.value] == ti) continue;
      last_consumer[a.place.value] = ti;
      if (++consumer_count[a.place.value] > 1) return false;
    }
    for (const Arc& a : t.outputs) {
      if (a.weight != 1) return false;
      if (a.place.value >= places_.size()) continue;
      if (last_producer[a.place.value] == ti) continue;
      last_producer[a.place.value] = ti;
      if (++producer_count[a.place.value] > 1) return false;
    }
  }
  return true;
}

// --- validation ------------------------------------------------------------------

std::vector<std::string> Net::validate() const {
  std::vector<std::string> issues;

  std::set<std::string> place_names;
  for (const Place& p : places_) {
    if (p.name.empty()) issues.push_back("place with empty name");
    if (!place_names.insert(p.name).second) {
      issues.push_back("duplicate place name '" + p.name + "'");
    }
    if (p.capacity && p.initial_tokens > *p.capacity) {
      issues.push_back("place '" + p.name + "' starts with " +
                       std::to_string(p.initial_tokens) + " tokens, above its capacity " +
                       std::to_string(*p.capacity));
    }
  }

  std::set<std::string> transition_names;
  for (const Transition& t : transitions_) {
    if (t.name.empty()) issues.push_back("transition with empty name");
    if (!transition_names.insert(t.name).second) {
      issues.push_back("duplicate transition name '" + t.name + "'");
    }
    if (t.name.size() && place_names.count(t.name)) {
      issues.push_back("name '" + t.name + "' used for both a place and a transition");
    }
    if (t.inputs.empty() && t.outputs.empty()) {
      issues.push_back("transition '" + t.name + "' has no input or output arcs");
    }
    if (t.frequency <= 0) {
      issues.push_back("transition '" + t.name + "' has non-positive frequency");
    }
    auto check_arcs = [&](const std::vector<Arc>& arcs, const char* kind) {
      std::set<std::uint32_t> seen;
      for (const Arc& a : arcs) {
        if (!a.place.valid() || a.place.value >= places_.size()) {
          issues.push_back("transition '" + t.name + "' has " + kind +
                           " arc to invalid place id");
          continue;
        }
        if (a.weight == 0) {
          issues.push_back("transition '" + t.name + "' has zero-weight " + kind +
                           " arc to '" + places_[a.place.value].name + "'");
        }
        if (!seen.insert(a.place.value).second) {
          issues.push_back("transition '" + t.name + "' has duplicate " + kind +
                           " arcs to '" + places_[a.place.value].name +
                           "' (merge them into one weighted arc)");
        }
      }
    };
    check_arcs(t.inputs, "input");
    check_arcs(t.outputs, "output");
    check_arcs(t.inhibitors, "inhibitor");
  }

  return issues;
}

void Net::validate_or_throw() const {
  const auto issues = validate();
  if (issues.empty()) return;
  std::ostringstream msg;
  msg << "Net '" << name_ << "' failed validation:";
  for (const auto& issue : issues) msg << "\n  - " << issue;
  throw std::invalid_argument(msg.str());
}

}  // namespace pnut
