#include "petri/marking.h"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace pnut {

Marking Marking::initial(const Net& net) {
  Marking m(net.num_places());
  for (std::size_t i = 0; i < net.num_places(); ++i) {
    m.tokens_[i] = net.place(PlaceId(static_cast<std::uint32_t>(i))).initial_tokens;
  }
  return m;
}

void Marking::add(PlaceId p, TokenCount n) {
  TokenCount& slot = tokens_.at(p.value);
  if (slot > std::numeric_limits<TokenCount>::max() - n) {
    throw std::overflow_error("Marking::add: token count overflow on place " +
                              std::to_string(p.value));
  }
  slot += n;
}

void Marking::remove(PlaceId p, TokenCount n) {
  TokenCount& slot = tokens_.at(p.value);
  if (slot < n) {
    throw std::underflow_error("Marking::remove: removing " + std::to_string(n) +
                               " tokens from place " + std::to_string(p.value) +
                               " which holds only " + std::to_string(slot));
  }
  slot -= n;
}

std::uint64_t Marking::total() const {
  std::uint64_t sum = 0;
  for (TokenCount t : tokens_) sum += t;
  return sum;
}

std::string Marking::to_string(const Net& net) const {
  std::ostringstream out;
  bool first = true;
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i] == 0) continue;
    if (!first) out << ' ';
    out << net.place(PlaceId(static_cast<std::uint32_t>(i))).name << '=' << tokens_[i];
    first = false;
  }
  if (first) out << "(empty)";
  return out.str();
}

std::size_t MarkingHash::operator()(const Marking& m) const noexcept {
  return static_cast<std::size_t>(hash_words(m.tokens().data(), m.tokens().size()));
}

bool tokens_available(const Net& net, const Marking& m, TransitionId t) {
  const Transition& tr = net.transition(t);
  for (const Arc& a : tr.inputs) {
    if (m[a.place] < a.weight) return false;
  }
  for (const Arc& a : tr.inhibitors) {
    if (m[a.place] >= a.weight) return false;
  }
  return true;
}

TokenCount enabling_degree(const Net& net, const Marking& m, TransitionId t) {
  const Transition& tr = net.transition(t);
  for (const Arc& a : tr.inhibitors) {
    if (m[a.place] >= a.weight) return 0;
  }
  TokenCount degree = std::numeric_limits<TokenCount>::max();
  bool has_input = false;
  for (const Arc& a : tr.inputs) {
    has_input = true;
    degree = std::min(degree, m[a.place] / a.weight);
  }
  // A source transition (no inputs) is enabled but its degree is
  // conventionally 1: nothing bounds it, and unbounded concurrent firing is
  // never what a model means.
  return has_input ? degree : 1;
}

}  // namespace pnut
