// The untimed successor rule of the reachability builder (reachability.cpp),
// written as detail::ReachKernel, as timed_encode.h's TimedKernel is the
// timed builder's one successor rule. It fixes which successors a state has
// and in which order, so it fixes the state numbering every graph query and
// pinned fingerprint reads.
//
// A state is its full word vector, [ marking tokens | data words ], where
// the data words are DataSchema's encoding of the state's frame
// (petri/data_frame.h) and exist only when an action can change data;
// action-free nets read the fixed initial data.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/reachability.h"
#include "expr/program.h"
#include "expr/vm.h"
#include "petri/compiled_net.h"
#include "petri/marking.h"
#include "petri/rng.h"

namespace pnut::analysis::detail {

/// The untimed builder's stop poll, before expanding state `state`: the
/// token is read at every kStopCheckStride-th state, and expansion order is
/// id order, so a stop lands on a fixed state. Returns the status to stop
/// with.
[[nodiscard]] inline std::optional<ReachStatus> poll_stop(const StopToken& stop,
                                                          std::uint32_t state) {
  if (state % kStopCheckStride != 0) return std::nullopt;
  return stop_status(stop);
}

/// The untimed successor rule, run on a state's words; expanding a state
/// allocates nothing once the kernel's buffers are warm.
class ReachKernel {
 public:
  /// How an expansion ended.
  enum class Expansion : std::uint8_t {
    kComplete,   ///< every successor emitted
    kHalted,     ///< emit returned false
    kOverBound,  ///< a firing exceeded place_bound; nothing emitted for it
  };

  /// `program` is the net's compiled bytecode; it must be non-null
  /// whenever the net has predicates or actions.
  ReachKernel(const CompiledNet& net, const ReachOptions& options,
              const expr::NetProgram* program)
      : net_(net),
        program_(program),
        track_data_(net.net_has_actions()),
        num_places_(net.num_places()),
        data_words_(track_data_ ? program->schema().encoded_words() : 0),
        place_bound_(options.place_bound),
        respect_capacities_(options.respect_capacities),
        samples_(std::max<std::size_t>(options.irand_fanout_limit, 1)),
        words_(num_places_ + data_words_),
        parent_data_(data_words_) {
    if (!track_data_) pred_memo_.assign(net.num_transitions(), -1);
  }

  /// Words per state.
  [[nodiscard]] std::size_t width() const { return words_.size(); }

  /// The initial state: the net's initial marking, then the encoded
  /// initial frame. The span is the kernel's scratch, valid until the next
  /// call.
  [[nodiscard]] std::span<const std::uint32_t> initial_state() {
    const Marking initial = Marking::initial(net_.net());
    std::copy(initial.tokens().begin(), initial.tokens().end(), words_.begin());
    if (track_data_) {
      program_->schema().encode(program_->initial_frame(), words_.data() + num_places_);
    }
    return words_;
  }

  /// Enumerate the successors of state `state` (whose id seeds the action
  /// samples), given its `words`, in a fixed order: enabled transitions
  /// ascending, and for an action the distinct
  /// sampled outcomes in order of first occurrence.
  /// `emit(transition, successor_words)` returns false to stop.
  ///
  /// A transition fires when its tokens are available, its predicate holds
  /// and (with respect_capacities) no capacity would overflow. A firing
  /// whose successor exceeds place_bound — on its output places, or on any
  /// place when state 0 is expanded, whose marking is the model's to
  /// declare — ends the expansion with kOverBound and no edge for it.
  ///
  /// `words` is copied first, so it may point into an arena that emit
  /// grows. The successor span is the kernel's scratch, valid until emit
  /// returns. A deposit past UINT32_MAX tokens throws Marking::add's
  /// std::overflow_error, and model errors propagate; successors emitted
  /// before either stay emitted.
  template <typename EmitFn>
  Expansion expand(std::uint32_t state, std::span<const std::uint32_t> words, EmitFn&& emit) {
    std::copy(words.begin(), words.end(), words_.begin());
    std::uint32_t* w = words_.data();
    if (track_data_) {
      std::copy_n(w + num_places_, data_words_, parent_data_.begin());
      program_->schema().decode(w + num_places_, parent_frame_);
    }
    const std::span<const TokenCount> tokens(w, num_places_);

    for (std::uint32_t ti = 0; ti < net_.num_transitions(); ++ti) {
      const TransitionId t(ti);
      if (!net_.tokens_available(tokens, t)) continue;
      if (!predicate_holds(t)) continue;
      if (respect_capacities_ && overflows_capacity(tokens, t)) continue;

      // Fire in place (enablement guarantees no underflow); undone below.
      for (const Arc& a : net_.inputs(t)) w[a.place.value] -= a.weight;
      for (const Arc& a : net_.outputs(t)) add_tokens_checked(w[a.place.value], a.place, a.weight);

      // Only output places can newly exceed the bound — every interned
      // state already passed this check — except at state 0.
      bool over = false;
      if (state == 0) {
        for (std::size_t i = 0; i < num_places_; ++i) over |= w[i] > place_bound_;
      } else {
        for (const Arc& a : net_.outputs(t)) over |= w[a.place.value] > place_bound_;
      }
      if (over) return Expansion::kOverBound;

      if (!net_.has_action(t)) {
        // Deterministic data: the parent's data words are still in place.
        if (!emit(t, std::span<const std::uint32_t>(words_))) return Expansion::kHalted;
      } else {
        const std::size_t outcomes = sample_outcomes(state, t);
        for (std::size_t i = 0; i < outcomes; ++i) {
          std::copy_n(outcomes_.data() + i * data_words_, data_words_, w + num_places_);
          if (!emit(t, std::span<const std::uint32_t>(words_))) return Expansion::kHalted;
        }
        std::copy(parent_data_.begin(), parent_data_.end(), w + num_places_);
      }

      for (const Arc& a : net_.outputs(t)) w[a.place.value] -= a.weight;
      for (const Arc& a : net_.inputs(t)) w[a.place.value] += a.weight;
    }
    return Expansion::kComplete;
  }

 private:
  /// Action-free nets have a constant data state, so each predicate has
  /// one truth value per run: memoize it at its first evaluation (its first
  /// enabled-by-tokens test, so an evaluation error surfaces there).
  [[nodiscard]] bool predicate_holds(TransitionId t) {
    const expr::Code* code = program_ ? program_->predicate(t) : nullptr;
    if (code == nullptr) return true;
    if (!track_data_) {
      std::int8_t& memo = pred_memo_[t.value];
      if (memo < 0) memo = expr::vm_eval(*code, program_->initial_frame(), nullptr, vm_) != 0;
      return memo != 0;
    }
    return expr::vm_eval(*code, parent_frame_, nullptr, vm_) != 0;
  }

  /// Would firing `t` from `tokens` overflow any capacity?
  [[nodiscard]] bool overflows_capacity(std::span<const TokenCount> tokens,
                                        TransitionId t) const {
    for (const Arc& a : net_.outputs(t)) {
      const auto capacity = net_.capacity(a.place);
      if (!capacity) continue;
      TokenCount after = tokens[a.place.value] + a.weight;
      // Tokens consumed from the same place by this firing offset the gain.
      for (const Arc& in : net_.inputs(t)) {
        if (in.place == a.place) after -= std::min(after, in.weight);
      }
      if (after > *capacity) return true;
    }
    return false;
  }

  /// Run `t`'s action once per sample, each from the parent's frame with a
  /// deterministic per-(state, transition, sample) seed, and keep the
  /// distinct encoded outcomes in order of first occurrence
  /// (outcomes_[i * data_words_ ..]). Returns how many were kept.
  std::size_t sample_outcomes(std::uint32_t state, TransitionId t) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < samples_; ++k) {
      cand_frame_.assign(parent_frame_);
      Rng rng(0x9e3779b97f4a7c15ULL ^ (state * 0x100000001b3ULL) ^
              (static_cast<std::uint64_t>(t.value) << 32) ^ k);
      expr::vm_exec(*program_->action(t), cand_frame_, &rng, vm_);
      if (outcomes_.size() < (kept + 1) * data_words_) outcomes_.resize((kept + 1) * data_words_);
      std::uint32_t* key = outcomes_.data() + kept * data_words_;
      program_->schema().encode(cand_frame_, key);
      bool seen = false;
      for (std::size_t i = 0; i < kept && !seen; ++i) {
        seen = std::equal(key, key + data_words_, outcomes_.data() + i * data_words_);
      }
      if (!seen) ++kept;
    }
    return kept;
  }

  const CompiledNet& net_;
  const expr::NetProgram* program_;  ///< null for hook-free nets
  bool track_data_;                  ///< actions change data: data words per state
  std::size_t num_places_, data_words_;
  TokenCount place_bound_;
  bool respect_capacities_;
  std::size_t samples_;  ///< action samples per firing
  std::vector<std::uint32_t> words_;        ///< the parent, fired in place
  std::vector<std::uint32_t> parent_data_;  ///< the parent's data words
  std::vector<std::uint32_t> outcomes_;     ///< distinct sampled data words
  std::vector<std::int8_t> pred_memo_;      ///< action-free: -1 unknown, else 0/1
  DataFrame parent_frame_, cand_frame_;
  expr::VmScratch vm_;
};

}  // namespace pnut::analysis::detail
