// Structural invariant analysis (P- and T-invariants).
//
// The paper leans on invariants informally — "the sum of the tokens on
// [Bus_free and Bus_busy] should always equal one" — and checks them by
// query. This module derives them *structurally*: a place invariant is a
// non-negative integer weighting y of places with yᵀC = 0 (C the incidence
// matrix), so yᵀM is constant across every reachable marking regardless of
// timing, frequencies or predicates. The constant is fixed by the initial
// marking. Dually, a transition invariant x ≥ 0 with Cx = 0 gives firing
// counts that return the net to its marking (the cyclic workloads of every
// model in the paper).
//
// Computed with the classical Farkas / Fourier-Motzkin elimination on
// [C | I], keeping minimal-support generators. Worst case exponential, in
// practice instant for model-sized nets (the pipeline model: 20 places).
//
// Caveat for timed interpretation: with firing-time semantics, tokens "in
// the transition" are on neither place, so yᵀM dips by the in-flight
// contribution while a weighted transition fires; invariants are exact over
// atomic states (reachability-graph states, and trace states when no
// weighted firing is in flight). The tests check both readings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/reachability.h"
#include "petri/compiled_net.h"
#include "petri/marking.h"
#include "petri/net.h"

namespace pnut::analysis {

/// A semi-positive invariant: one weight per place (P-invariant) or per
/// transition (T-invariant), in net index order.
struct Invariant {
  std::vector<std::uint64_t> weights;

  /// Indices with non-zero weight.
  [[nodiscard]] std::vector<std::size_t> support() const;

  friend bool operator==(const Invariant&, const Invariant&) = default;
};

/// Minimal-support generators of the semi-positive place invariants.
/// The incidence matrix is built from the CompiledNet's CSR arc arrays;
/// the Net overloads compile internally.
std::vector<Invariant> place_invariants(const Net& net);
std::vector<Invariant> place_invariants(const CompiledNet& net);

/// Minimal-support generators of the semi-positive transition invariants.
std::vector<Invariant> transition_invariants(const Net& net);
std::vector<Invariant> transition_invariants(const CompiledNet& net);

/// Weighted token sum yᵀM for a marking.
std::uint64_t invariant_value(const Invariant& inv, const Marking& marking);

/// Pretty form: "Bus_free + Bus_busy = 1" or "Empty + Full + 2*pre_fetching = 6"
/// (constant from the net's initial marking).
std::string format_place_invariant(const Net& net, const Invariant& inv);

/// Pretty form of a T-invariant: "Decode + Type_1 + Issue + exec_type_1 + no_store".
std::string format_transition_invariant(const Net& net, const Invariant& inv);

/// True if every place appears in the support of some place invariant —
/// a sufficient condition for structural boundedness.
bool covered_by_place_invariants(const Net& net, const std::vector<Invariant>& invariants);

/// A P-invariant whose weighted token sum deviated from its initial value
/// on a reachable state — structurally impossible for a true invariant, so
/// a non-empty result means the invariant derivation and the exploration
/// disagree (a modelling or tooling bug worth surfacing loudly).
struct InvariantViolation {
  std::size_t invariant = 0;  ///< index into the checked invariant list
  std::size_t state = 0;      ///< graph state where the value deviated
  std::uint64_t value = 0;    ///< observed weighted sum
  std::uint64_t expected = 0; ///< weighted sum of the initial marking
};

/// The invariant engine's reachability pass: check yᵀM = yᵀM₀ for each
/// P-invariant over every state of an explored reachability graph — one
/// flat scan of the state arena. Sound on truncated graphs too: every
/// discovered marking is reachable, so any deviation found is real (the
/// check just cannot be exhaustive there). A read-only scan.
std::vector<InvariantViolation> check_place_invariants_on_graph(
    const ReachabilityGraph& graph, const std::vector<Invariant>& invariants);

}  // namespace pnut::analysis
