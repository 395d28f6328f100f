#include "petri/compiled_net.h"

#include <algorithm>
#include <limits>

namespace pnut {

namespace {

/// Build one inverse-CSR index: for each place, the sorted ids of the
/// transitions that have an arc of the given kind touching it. `select`
/// yields the arc span of a transition.
template <typename SelectArcs>
void build_inverse(std::size_t num_places, std::size_t num_transitions, SelectArcs select,
                   std::vector<TransitionId>& data, std::vector<std::uint32_t>& offsets) {
  std::vector<std::uint32_t> counts(num_places, 0);
  for (std::uint32_t t = 0; t < num_transitions; ++t) {
    for (const Arc& a : select(t)) ++counts[a.place.value];
  }
  offsets.assign(num_places + 1, 0);
  for (std::size_t p = 0; p < num_places; ++p) offsets[p + 1] = offsets[p] + counts[p];
  data.resize(offsets[num_places]);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  // Transitions are visited in ascending id order, so each row comes out
  // sorted — the property the deterministic dirty-set update relies on.
  for (std::uint32_t t = 0; t < num_transitions; ++t) {
    for (const Arc& a : select(t)) data[cursor[a.place.value]++] = TransitionId(t);
  }
}

}  // namespace

CompiledNet::CompiledNet(const Net& net) : net_(net) {
  net_.validate_or_throw();
  num_places_ = net_.num_places();
  num_transitions_ = net_.num_transitions();

  // Forward CSR: concatenate per-transition arc lists.
  in_off_.assign(num_transitions_ + 1, 0);
  out_off_.assign(num_transitions_ + 1, 0);
  inh_off_.assign(num_transitions_ + 1, 0);
  for (std::size_t t = 0; t < num_transitions_; ++t) {
    const Transition& tr = net_.transitions()[t];
    in_off_[t + 1] = in_off_[t] + static_cast<std::uint32_t>(tr.inputs.size());
    out_off_[t + 1] = out_off_[t] + static_cast<std::uint32_t>(tr.outputs.size());
    inh_off_[t + 1] = inh_off_[t] + static_cast<std::uint32_t>(tr.inhibitors.size());
  }
  in_arcs_.reserve(in_off_.back());
  out_arcs_.reserve(out_off_.back());
  inh_arcs_.reserve(inh_off_.back());
  for (const Transition& tr : net_.transitions()) {
    in_arcs_.insert(in_arcs_.end(), tr.inputs.begin(), tr.inputs.end());
    out_arcs_.insert(out_arcs_.end(), tr.outputs.begin(), tr.outputs.end());
    inh_arcs_.insert(inh_arcs_.end(), tr.inhibitors.begin(), tr.inhibitors.end());
  }

  // Inverse CSR.
  auto input_span = [&](std::uint32_t t) { return inputs(TransitionId(t)); };
  auto output_span = [&](std::uint32_t t) { return outputs(TransitionId(t)); };
  auto inhibitor_span = [&](std::uint32_t t) { return inhibitors(TransitionId(t)); };
  build_inverse(num_places_, num_transitions_, input_span, cons_, cons_off_);
  build_inverse(num_places_, num_transitions_, output_span, prod_, prod_off_);
  build_inverse(num_places_, num_transitions_, inhibitor_span, test_, test_off_);

  // Watchers = consumers ∪ inhibitor testers, per place, merged sorted.
  watch_off_.assign(num_places_ + 1, 0);
  watch_.reserve(cons_.size() + test_.size());
  for (std::uint32_t p = 0; p < num_places_; ++p) {
    const auto c = consumers(PlaceId(p));
    const auto i = inhibitor_testers(PlaceId(p));
    const std::size_t before = watch_.size();
    std::set_union(c.begin(), c.end(), i.begin(), i.end(), std::back_inserter(watch_));
    watch_off_[p + 1] = watch_off_[p] + static_cast<std::uint32_t>(watch_.size() - before);
  }

  // Flags, frequencies, predicated set.
  flags_.assign(num_transitions_, 0);
  freq_.resize(num_transitions_);
  for (std::uint32_t t = 0; t < num_transitions_; ++t) {
    const Transition& tr = net_.transitions()[t];
    std::uint8_t f = 0;
    if (tr.is_immediate()) f |= kImmediate;
    if (tr.is_interpreted()) f |= kInterpreted;
    if (!tr.inhibitors.empty()) f |= kHasInhibitors;
    if (tr.policy == FiringPolicy::kSingleServer) f |= kSingleServer;
    if (tr.enabling_time.is_statically_zero()) f |= kZeroEnabling;
    if (tr.predicate) {
      f |= kHasPredicate;
      predicated_.push_back(TransitionId(t));
    }
    if (tr.action) {
      f |= kHasAction;
      net_has_actions_ = true;
    }
    net_has_computed_delays_ |= tr.firing_time.kind() == DelaySpec::Kind::kComputed ||
                                tr.enabling_time.kind() == DelaySpec::Kind::kComputed;
    flags_[t] = f;
    freq_[t] = tr.frequency;
    net_has_inhibitors_ |= !tr.inhibitors.empty();
  }

  // Marked-graph check, one pass over the CSR arrays.
  is_marked_graph_ = inh_arcs_.empty() &&
                     std::all_of(in_arcs_.begin(), in_arcs_.end(),
                                 [](const Arc& a) { return a.weight == 1; }) &&
                     std::all_of(out_arcs_.begin(), out_arcs_.end(),
                                 [](const Arc& a) { return a.weight == 1; });
  if (is_marked_graph_) {
    for (std::uint32_t p = 0; p < num_places_ && is_marked_graph_; ++p) {
      is_marked_graph_ = consumers(PlaceId(p)).size() <= 1 &&
                         producers(PlaceId(p)).size() <= 1;
    }
  }
}

std::shared_ptr<const CompiledNet> CompiledNet::compile(const Net& net) {
  return std::make_shared<const CompiledNet>(net);
}

TokenCount CompiledNet::enabling_degree(const Marking& m, TransitionId t) const {
  const auto& tokens = m.tokens();
  for (const Arc& a : inhibitors(t)) {
    if (tokens[a.place.value] >= a.weight) return 0;
  }
  TokenCount degree = std::numeric_limits<TokenCount>::max();
  bool has_input = false;
  for (const Arc& a : inputs(t)) {
    has_input = true;
    degree = std::min(degree, tokens[a.place.value] / a.weight);
  }
  return has_input ? degree : 1;
}

TokenCount CompiledNet::input_weight(TransitionId t, PlaceId p) const {
  TokenCount total = 0;
  for (const Arc& a : inputs(t)) {
    if (a.place == p) total += a.weight;
  }
  return total;
}

TokenCount CompiledNet::output_weight(TransitionId t, PlaceId p) const {
  TokenCount total = 0;
  for (const Arc& a : outputs(t)) {
    if (a.place == p) total += a.weight;
  }
  return total;
}

}  // namespace pnut
