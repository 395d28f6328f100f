// CompiledNet: the immutable, flat runtime view of a validated Net.
//
// Section 4.1 of the paper describes the P-NUT simulator as "a simple
// simulation engine which 'pushes' tokens around a Timed Petri Net" — the
// engine's whole job is testing and updating transition enablement as
// tokens move. The mutable Net (src/petri/net.h) is a *description*: arcs
// live in per-transition std::vectors, names are looked up by scanning, and
// structural queries (who consumes place p?) cost O(T * arcs) each. That is
// fine for model construction but wrong for the inner loop of every tool
// that executes or analyzes the net.
//
// CompiledNet is built once from a validated Net and never mutated. It
// repacks the structure the way the runtime consumes it:
//
//   * CSR (compressed sparse row) arc arrays: all input arcs of all
//     transitions in one contiguous {place, weight} buffer with a T+1
//     offsets table, likewise outputs and inhibitors. Testing enablement of
//     transition t touches one contiguous span — no pointer chasing.
//   * The inverse adjacency, also CSR but indexed by place: the transitions
//     that consume from p, produce into p, or test p with an inhibitor arc.
//     This is the index the paper's token-pushing loop needs and never had:
//     when the token count of p changes, exactly consumers(p) and
//     inhibitor_testers(p) — the "eligibility watchers" — can change their
//     enablement. The simulator's incremental eligibility update and every
//     analyzer's incidence construction read these spans.
//   * Precomputed per-transition flags (immediate, interpreted, inhibitors,
//     single-server, statically-zero enabling time) and a flat frequency
//     array, so the conflict-resolution loop reads plain arrays instead of
//     re-deriving properties from DelaySpecs per firing.
//   * Hashed name->id indices (shared with Net) for the by-name addressing
//     every tool uses at its edges.
//
// Ownership: CompiledNet snapshots the Net (a private copy), so the
// compiled view is self-contained and genuinely immutable — later mutation
// of the source Net cannot skew a running simulator or analyzer. One
// CompiledNet (via std::shared_ptr<const CompiledNet>) is designed to be
// shared read-only by any number of Simulator instances and analyzers at
// once; it is the substrate for multi-replication and future sharded or
// batched execution.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "petri/marking.h"
#include "petri/net.h"

namespace pnut {

class CompiledNet {
 public:
  /// Validates `net` (throws std::invalid_argument on structural problems)
  /// and snapshots it into the flat compiled form.
  explicit CompiledNet(const Net& net);

  /// Convenience: compile into a shareable immutable handle.
  static std::shared_ptr<const CompiledNet> compile(const Net& net);

  // --- source view ----------------------------------------------------------

  /// The snapshotted description (names, delay specs, initial data, ...).
  [[nodiscard]] const Net& net() const { return net_; }
  [[nodiscard]] const std::string& name() const { return net_.name(); }
  [[nodiscard]] std::size_t num_places() const { return num_places_; }
  [[nodiscard]] std::size_t num_transitions() const { return num_transitions_; }

  // --- forward CSR: per-transition arc spans --------------------------------

  [[nodiscard]] std::span<const Arc> inputs(TransitionId t) const {
    return span_of(in_arcs_, in_off_, t.value);
  }
  [[nodiscard]] std::span<const Arc> outputs(TransitionId t) const {
    return span_of(out_arcs_, out_off_, t.value);
  }
  [[nodiscard]] std::span<const Arc> inhibitors(TransitionId t) const {
    return span_of(inh_arcs_, inh_off_, t.value);
  }

  // --- inverse CSR: per-place transition spans ------------------------------

  /// Transitions with an input arc from `p` (token consumers).
  [[nodiscard]] std::span<const TransitionId> consumers(PlaceId p) const {
    return span_of(cons_, cons_off_, p.value);
  }
  /// Transitions with an output arc into `p` (token producers).
  [[nodiscard]] std::span<const TransitionId> producers(PlaceId p) const {
    return span_of(prod_, prod_off_, p.value);
  }
  /// Transitions with an inhibitor arc testing `p`.
  [[nodiscard]] std::span<const TransitionId> inhibitor_testers(PlaceId p) const {
    return span_of(test_, test_off_, p.value);
  }
  /// consumers(p) ∪ inhibitor_testers(p), deduplicated and sorted by id:
  /// exactly the transitions whose enablement can flip when the token count
  /// of `p` changes. Drives the simulator's incremental eligibility update.
  [[nodiscard]] std::span<const TransitionId> eligibility_watchers(PlaceId p) const {
    return span_of(watch_, watch_off_, p.value);
  }

  /// Transitions with a data predicate, sorted by id: the set whose
  /// enablement can flip when the data state changes (any action ran).
  [[nodiscard]] std::span<const TransitionId> predicated_transitions() const {
    return {predicated_.data(), predicated_.size()};
  }

  // --- precomputed flags & per-transition metadata --------------------------

  [[nodiscard]] bool is_immediate(TransitionId t) const {
    return (flags_[t.value] & kImmediate) != 0;
  }
  [[nodiscard]] bool is_interpreted(TransitionId t) const {
    return (flags_[t.value] & kInterpreted) != 0;
  }
  [[nodiscard]] bool has_inhibitors(TransitionId t) const {
    return (flags_[t.value] & kHasInhibitors) != 0;
  }
  [[nodiscard]] bool is_single_server(TransitionId t) const {
    return (flags_[t.value] & kSingleServer) != 0;
  }
  [[nodiscard]] bool has_zero_enabling_time(TransitionId t) const {
    return (flags_[t.value] & kZeroEnabling) != 0;
  }
  [[nodiscard]] bool has_predicate(TransitionId t) const {
    return (flags_[t.value] & kHasPredicate) != 0;
  }
  [[nodiscard]] bool has_action(TransitionId t) const {
    return (flags_[t.value] & kHasAction) != 0;
  }
  /// Whole-net summaries.
  [[nodiscard]] bool net_has_inhibitors() const { return net_has_inhibitors_; }
  [[nodiscard]] bool net_has_actions() const { return net_has_actions_; }
  [[nodiscard]] bool net_is_interpreted() const { return !predicated_.empty() || net_has_actions_; }
  /// Any predicate, action or computed delay: the nets whose engines run an
  /// expr::NetProgram. Hook-free nets skip the data state entirely.
  [[nodiscard]] bool net_has_hooks() const {
    return net_is_interpreted() || net_has_computed_delays_;
  }

  [[nodiscard]] double frequency(TransitionId t) const { return freq_[t.value]; }
  [[nodiscard]] const DelaySpec& firing_time(TransitionId t) const {
    return net_.transitions()[t.value].firing_time;
  }
  [[nodiscard]] const DelaySpec& enabling_time(TransitionId t) const {
    return net_.transitions()[t.value].enabling_time;
  }
  [[nodiscard]] const std::string& transition_name(TransitionId t) const {
    return net_.transitions()[t.value].name;
  }
  [[nodiscard]] const std::string& place_name(PlaceId p) const {
    return net_.places()[p.value].name;
  }
  [[nodiscard]] TokenCount initial_tokens(PlaceId p) const {
    return net_.places()[p.value].initial_tokens;
  }
  [[nodiscard]] std::optional<TokenCount> capacity(PlaceId p) const {
    return net_.places()[p.value].capacity;
  }

  // --- hashed name lookup ---------------------------------------------------

  [[nodiscard]] std::optional<PlaceId> find_place(std::string_view name) const {
    return net_.find_place(name);
  }
  [[nodiscard]] std::optional<TransitionId> find_transition(std::string_view name) const {
    return net_.find_transition(name);
  }
  [[nodiscard]] PlaceId place_named(std::string_view name) const {
    return net_.place_named(name);
  }
  [[nodiscard]] TransitionId transition_named(std::string_view name) const {
    return net_.transition_named(name);
  }

  // --- enablement over the CSR arrays (unchecked hot path) ------------------

  /// Token-availability test (input weights satisfied, inhibitors clear)
  /// over any flat token-count view — a Marking's vector or a StateStore
  /// arena slice.
  [[nodiscard]] bool tokens_available(std::span<const TokenCount> tokens,
                                      TransitionId t) const {
    for (const Arc& a : inputs(t)) {
      if (tokens[a.place.value] < a.weight) return false;
    }
    for (const Arc& a : inhibitors(t)) {
      if (tokens[a.place.value] >= a.weight) return false;
    }
    return true;
  }
  [[nodiscard]] bool tokens_available(const Marking& m, TransitionId t) const {
    return tokens_available(std::span<const TokenCount>(m.tokens()), t);
  }

  /// Concurrent enablement degree on token counts alone (see
  /// pnut::enabling_degree for the convention on source transitions).
  [[nodiscard]] TokenCount enabling_degree(const Marking& m, TransitionId t) const;

  // --- incidence ------------------------------------------------------------

  /// Total tokens consumed from / produced to `p` per firing of `t`.
  [[nodiscard]] TokenCount input_weight(TransitionId t, PlaceId p) const;
  [[nodiscard]] TokenCount output_weight(TransitionId t, PlaceId p) const;
  /// Incidence matrix entry C[p][t] = output_weight - input_weight.
  [[nodiscard]] std::int64_t incidence(TransitionId t, PlaceId p) const {
    return static_cast<std::int64_t>(output_weight(t, p)) -
           static_cast<std::int64_t>(input_weight(t, p));
  }

  /// Precomputed: every place has at most one producer and one consumer, no
  /// inhibitors, unit weights (see Net::is_marked_graph).
  [[nodiscard]] bool is_marked_graph() const { return is_marked_graph_; }

 private:
  enum Flag : std::uint8_t {
    kImmediate = 1,
    kInterpreted = 2,
    kHasInhibitors = 4,
    kSingleServer = 8,
    kZeroEnabling = 16,
    kHasPredicate = 32,
    kHasAction = 64,
  };

  template <typename T>
  static std::span<const T> span_of(const std::vector<T>& data,
                                    const std::vector<std::uint32_t>& offsets,
                                    std::uint32_t row) {
    return {data.data() + offsets[row], data.data() + offsets[row + 1]};
  }

  Net net_;  ///< validated snapshot; arc vectors here are the source of CSR
  std::size_t num_places_ = 0;
  std::size_t num_transitions_ = 0;

  // Forward CSR (rows = transitions).
  std::vector<Arc> in_arcs_, out_arcs_, inh_arcs_;
  std::vector<std::uint32_t> in_off_, out_off_, inh_off_;

  // Inverse CSR (rows = places).
  std::vector<TransitionId> cons_, prod_, test_, watch_;
  std::vector<std::uint32_t> cons_off_, prod_off_, test_off_, watch_off_;

  std::vector<TransitionId> predicated_;
  std::vector<std::uint8_t> flags_;
  std::vector<double> freq_;
  bool net_has_inhibitors_ = false;
  bool net_has_actions_ = false;
  bool net_has_computed_delays_ = false;
  bool is_marked_graph_ = false;
};

}  // namespace pnut
