// Shared state encoding and successor kernel for the timed reachability
// explorers.
//
// The sequential builder (timed_reachability.cpp) and the parallel engine
// (timed_parallel_exploration.cpp) must agree *exactly* on how a timed
// state is laid out in arena words and which successors leave it in which
// order, so the word layout, the two-bucket scheduler and the one
// successor kernel live here, the way reach_encode.h serves the untimed
// builders.
//
// Word layout of an interned timed state (see timed_reachability.h):
//   [ marking tokens | per-transition remaining enabling delay |
//     per-(transition, remaining-cycles) in-flight firing counts ]
// — a canonical fixed-width encoding (the in-flight multiset becomes counts
// indexed by remaining time), so interning needs no strings and no sorting.
// TimedKernel (below) expands states on these words directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/timed_reachability.h"
#include "petri/compiled_net.h"
#include "petri/marking.h"

namespace pnut::analysis::detail {

/// The two-bucket 0-1 BFS scheduler state shared by the sequential builder
/// and the parallel seal — the piece of the timed exploration that MUST be
/// byte-for-byte identical between them (canonical ids are its discovery
/// order, earliest times its arrival bookkeeping, truncation its stop
/// rules), so it lives here once instead of being maintained in two copies.
///
/// `current` is the cost-0 (firing) closure of the instant `now`, expanded
/// FIFO to a fixed point; `next` stages the tick targets of the following
/// instant. A cost-0 edge can reach a state already staged for `next` (the
/// same encoded state produced both by a tick and by a firing): the state
/// is *promoted* into `current`, its earliest time corrected down, and its
/// stale `next` entry skipped at the bucket swap. `in_current` marks states
/// queued for (or already past) expansion — set at most once per state,
/// since everything in `current` is expanded within its bucket; `in_next`
/// dedups the staging list.
struct TimedSchedule {
  std::vector<std::uint64_t> earliest_time;  ///< per state, in ticks
  std::vector<std::uint32_t> current;        ///< cost-0 closure pending list
  std::vector<std::uint32_t> next;           ///< staged tick bucket
  std::vector<std::uint8_t> in_current, in_next;
  std::vector<std::uint8_t> expanded;  ///< per state: edge row is complete
  std::uint64_t now = 0;
  TimedReachStatus status = TimedReachStatus::kComplete;
  /// Stop-poll accounting, shared so both engines poll at identical
  /// canonical positions: exactly one stopped_by() call per expanded state
  /// (the sequential pop and the parallel seal walk visit states in the
  /// same order), polling every kStopCheckStride states plus the first
  /// state after each tick (instant boundaries).
  std::uint64_t expand_count = 0;
  bool poll_pending = false;

  /// The stop poll before expanding the next state: true when `stop`
  /// fires here, with `status` set to kTimeout or kCancelled.
  [[nodiscard]] bool stopped_by(const StopToken& stop) {
    const bool due = poll_pending || expand_count % kStopCheckStride == 0;
    poll_pending = false;
    ++expand_count;
    if (!due) return false;
    const StopToken::Reason reason = stop.poll();
    if (reason == StopToken::Reason::kNone) return false;
    status = reason == StopToken::Reason::kDeadline ? TimedReachStatus::kTimeout
                                                    : TimedReachStatus::kCancelled;
    return true;
  }

  /// Seed with the initial state (index 0, time 0, pending expansion).
  void bootstrap() {
    earliest_time.assign(1, 0);
    current.assign(1, 0);
    in_current.assign(1, 1);
    in_next.assign(1, 0);
    expanded.assign(1, 0);
  }

  /// Record one discovered edge target — `fresh` on its first sighting,
  /// right after the state was appended as index `target` making
  /// `num_states` states total. Assigns/min-updates the earliest time,
  /// applies the stop rules, and schedules the target (current-closure
  /// promotion, next-bucket staging, or horizon-gated nothing). The caller
  /// adds the edge itself *before* calling (the max_states stop keeps the
  /// edge that hit the cap, exactly like the sequential builder always
  /// did). Returns false when max_states hit: stop everything, the
  /// expanding parent's row stays partial and unmarked.
  bool record(std::uint32_t target, bool fresh, std::uint64_t cost,
              std::size_t num_states, const TimedReachOptions& options) {
    const std::uint64_t arrival = now + cost;
    if (fresh) {
      earliest_time.push_back(arrival);
      in_current.push_back(0);
      in_next.push_back(0);
      expanded.push_back(0);
      if (num_states > options.max_states) {
        status = TimedReachStatus::kTruncated;
        return false;
      }
      if (arrival > options.max_time) status = TimedReachStatus::kTruncated;
    } else if (arrival < earliest_time[target]) {
      earliest_time[target] = arrival;  // promotion: found at cost 0
    }
    if (in_current[target] == 0 && earliest_time[target] <= options.max_time) {
      if (earliest_time[target] <= now) {
        in_current[target] = 1;
        current.push_back(target);
      } else if (in_next[target] == 0) {
        in_next[target] = 1;
        next.push_back(target);
      }
    }
    return true;
  }

  /// Cost-0 closure complete: advance one tick into the staged bucket
  /// (skipping states a firing path promoted into the old closure).
  /// Returns false when nothing is staged — the exploration is finished.
  bool advance_tick() {
    current.clear();
    for (const std::uint32_t s : next) {
      if (in_current[s] == 0) {
        in_current[s] = 1;
        current.push_back(s);
      }
    }
    next.clear();
    if (current.empty()) return false;
    ++now;
    poll_pending = true;  // instant boundary: poll at the next expansion
    return true;
  }
};

/// Fixed word layout of a net's timed states: integer delays per
/// transition plus the in-flight region offsets derived from them.
struct TimedLayout {
  std::size_t num_places = 0;
  std::size_t num_transitions = 0;
  std::vector<std::uint32_t> enabling_delay;  ///< per transition
  std::vector<std::uint32_t> firing_delay;    ///< per transition
  /// inflight_off[t] .. inflight_off[t+1]-1: count slots for transition t,
  /// indexed by remaining-cycles - 1. inflight_off[nt] is the state width.
  std::vector<std::uint32_t> inflight_off;

  [[nodiscard]] std::size_t width() const { return inflight_off[num_transitions]; }

  /// Derive the layout, validating the net for timed analysis. Throws
  /// std::invalid_argument if any delay is not a non-negative integer
  /// constant, or if the net is interpreted (predicates/actions) — timed
  /// analysis is defined on the uninterpreted timing skeleton — and
  /// TimedLimitError if a delay does not fit a word or the state would be
  /// wider than kMaxTimedStateWords.
  static TimedLayout build(const CompiledNet& net) {
    const auto integer_delay = [](const DelaySpec& spec, const std::string& transition,
                                  const char* kind) {
      if (spec.kind() != DelaySpec::Kind::kConstant) {
        throw std::invalid_argument("TimedReachabilityGraph: transition '" + transition +
                                    "' has a non-constant " + kind +
                                    " time; timed analysis needs integer constants");
      }
      const Time value = spec.constant_value();
      if (value < 0 || value != std::floor(value)) {
        throw std::invalid_argument("TimedReachabilityGraph: transition '" + transition +
                                    "' has a non-integer " + kind + " time");
      }
      // Range-check before the cast: converting a value past the word's
      // range (1e20, infinity) is undefined behaviour.
      if (value > static_cast<Time>(UINT32_MAX)) {
        throw TimedLimitError(std::string("TimedReachabilityGraph: the ") + kind +
                              " time of transition '" + transition +
                              "' is past 4294967295 cycles");
      }
      return static_cast<std::uint32_t>(value);
    };

    TimedLayout layout;
    layout.num_places = net.num_places();
    layout.num_transitions = net.num_transitions();
    const std::size_t nt = layout.num_transitions;
    layout.enabling_delay.resize(nt);
    layout.firing_delay.resize(nt);
    for (std::uint32_t i = 0; i < nt; ++i) {
      const TransitionId t(i);
      if (net.is_interpreted(t)) {
        throw std::invalid_argument("TimedReachabilityGraph: transition '" +
                                    net.transition_name(t) +
                                    "' has predicates/actions; timed analysis works on "
                                    "the uninterpreted timing skeleton");
      }
      layout.enabling_delay[i] =
          integer_delay(net.enabling_time(t), net.transition_name(t), "enabling");
      layout.firing_delay[i] =
          integer_delay(net.firing_time(t), net.transition_name(t), "firing");
    }
    // The width in 64 bits, checked against the budget before any offset
    // is narrowed to a word.
    std::uint64_t width = layout.num_places + nt;
    if (width > kMaxTimedStateWords) {
      throw TimedLimitError("TimedReachabilityGraph: " + std::to_string(layout.num_places) +
                            " places and " + std::to_string(nt) +
                            " transitions make a timed state wider than " +
                            std::to_string(kMaxTimedStateWords) + " words");
    }
    layout.inflight_off.resize(nt + 1);
    layout.inflight_off[0] = static_cast<std::uint32_t>(width);
    for (std::uint32_t i = 0; i < nt; ++i) {
      width += layout.firing_delay[i];
      if (width > kMaxTimedStateWords) {
        throw TimedLimitError("TimedReachabilityGraph: transition '" +
                              net.transition_name(TransitionId(i)) + "' (firing " +
                              std::to_string(layout.firing_delay[i]) +
                              ") makes a timed state wider than " +
                              std::to_string(kMaxTimedStateWords) + " words");
      }
      layout.inflight_off[i + 1] = static_cast<std::uint32_t>(width);
    }
    return layout;
  }
};

/// The timed successor rule, run directly on arena words; expanding a state
/// allocates nothing. One kernel per thread (the scratch words are its
/// own); both builders expand every state through it.
///
/// Canonical-timer invariant: in every state the kernel produces, an
/// ineligible transition's timer word holds its full enabling delay. The
/// initial state sets every timer to its delay, and each successor resets
/// the timers of the transitions that are ineligible in it. An eligible
/// transition's timer is its remaining delay. Three consequences keep the
/// successors cheap:
///   * a firing only has to find the transitions it *disables*: a timer
///     that stays eligible keeps running, and one that becomes eligible
///     already holds its full delay;
///   * a tick only adds tokens, so the only transitions it can disable are
///     the inhibitor testers of the places its completions deposit into,
///     and of those only the ones eligible in the parent can hold a
///     running timer;
///   * a single server with a firing of its own in flight was ineligible
///     in the parent and stays so until a tick completes that firing, and
///     nothing in between touches its timer: it already holds its full
///     delay, so the re-tests need only the token test.
class TimedKernel {
 public:
  TimedKernel(const CompiledNet& net, const TimedLayout& layout)
      : net_(net),
        layout_(layout),
        np_(layout.num_places),
        nt_(layout.num_transitions),
        width_(layout.width()),
        parent_(width_),
        next_(width_),
        eligible_(nt_),
        waits_on_slots_(nt_) {
    // disabled_by(t): the transitions other than t that firing t can
    // disable — the consumers of the places it takes from and, when its
    // firing delay is 0, the inhibitor testers of the places it deposits
    // into. (t's own timer restarts at its full delay whether or not t
    // stays eligible.) completion_testers(t): the inhibitor testers of
    // the places t's completion deposits into, when its firing delay is
    // not 0. No duplicates in either list.
    std::vector<std::uint8_t> listed(nt_, 0);
    const auto collect = [&](std::span<const TransitionId> transitions,
                             std::vector<std::uint32_t>& list) {
      for (const TransitionId u : transitions) {
        if (listed[u.value] == 0) {
          listed[u.value] = 1;
          list.push_back(u.value);
        }
      }
    };
    const auto unlist = [&](const std::vector<std::uint32_t>& list, std::size_t from) {
      for (std::size_t i = from; i < list.size(); ++i) listed[list[i]] = 0;
    };
    disabled_off_.push_back(0);
    testers_off_.push_back(0);
    for (std::uint32_t t = 0; t < nt_; ++t) {
      const TransitionId tid(t);
      const bool delayed = layout.firing_delay[t] != 0;
      listed[t] = 1;
      for (const Arc& a : net.inputs(tid)) collect(net.consumers(a.place), disabled_);
      if (!delayed) {
        for (const Arc& a : net.outputs(tid)) collect(net.inhibitor_testers(a.place), disabled_);
      }
      unlist(disabled_, disabled_off_.back());
      listed[t] = 0;
      disabled_off_.push_back(static_cast<std::uint32_t>(disabled_.size()));
      if (delayed) {
        for (const Arc& a : net.outputs(tid)) collect(net.inhibitor_testers(a.place), testers_);
        unlist(testers_, testers_off_.back());
      }
      testers_off_.push_back(static_cast<std::uint32_t>(testers_.size()));
      waits_on_slots_[t] = delayed && net.is_single_server(tid) ? 1 : 0;
    }
  }

  /// The initial state: the net's initial marking, every timer at its full
  /// enabling delay, nothing in flight. The span is the kernel's scratch,
  /// valid until the next call.
  [[nodiscard]] std::span<const std::uint32_t> initial_state() {
    const Marking initial = Marking::initial(net_.net());
    std::copy(initial.tokens().begin(), initial.tokens().end(), next_.begin());
    std::copy(layout_.enabling_delay.begin(), layout_.enabling_delay.end(),
              next_.begin() + static_cast<std::ptrdiff_t>(np_));
    std::fill(next_.begin() + static_cast<std::ptrdiff_t>(np_ + nt_), next_.end(), 0u);
    return next_;
  }

  /// Enumerate the successors of the state `words` in the canonical order
  /// both builders share: ready firings in ascending transition order
  /// (maximal progress: time may not pass while something is ready), else
  /// the single one-cycle tick, else nothing (timed deadlock).
  /// `emit(label, successor_words, cost)` (label nullopt for the tick,
  /// cost 0 for firings and 1 for the tick) returns false to stop the
  /// enumeration; expand then returns false (the state-cap stop rule).
  ///
  /// `words` is copied before the first emit, so it may point into an
  /// arena that emit grows. The successor span is the kernel's scratch,
  /// valid until emit returns. A deposit past UINT32_MAX tokens throws
  /// Marking::add's std::overflow_error; successors emitted before it stay
  /// emitted.
  template <typename EmitFn>
  bool expand(std::span<const std::uint32_t> words, EmitFn&& emit) {
    std::copy_n(words.data(), width_, parent_.data());
    const std::uint32_t* parent = parent_.data();
    const std::size_t region = np_ + nt_;  // marking and timers
    // Anything in flight? One OR over the in-flight region, instead of a
    // scan of every transition's slots.
    std::uint32_t in_flight = 0;
    for (std::size_t i = region; i < width_; ++i) in_flight |= parent[i];

    // Eligibility under timed semantics: token-enabled, and a single server
    // must not have a firing of its own in flight.
    bool anything_waiting = in_flight != 0;  // an in-flight firing or an armed timer
    for (std::uint32_t t = 0; t < nt_; ++t) {
      bool eligible = tokens_available(parent, t);
      if (eligible && in_flight != 0 && waits_on_slots_[t] != 0) {
        for (std::uint32_t i = layout_.inflight_off[t]; i < layout_.inflight_off[t + 1]; ++i) {
          eligible = eligible && parent[i] == 0;
        }
      }
      eligible_[t] = eligible ? 1 : 0;
      anything_waiting |= eligible;
    }

    // Ready transitions fire before time may pass (maximal progress).
    std::uint32_t* next = next_.data();
    bool any_ready = false;
    for (std::uint32_t t = 0; t < nt_; ++t) {
      if (eligible_[t] == 0 || parent[np_ + t] != 0) continue;
      any_ready = true;
      const TransitionId tid(t);
      std::copy_n(parent, width_, next);
      for (const Arc& a : net_.inputs(tid)) next[a.place.value] -= a.weight;
      const std::uint32_t delay = layout_.firing_delay[t];
      if (delay == 0) {
        for (const Arc& a : net_.outputs(tid)) deposit(next, a);
      } else {
        ++next[layout_.inflight_off[t] + delay - 1];
      }
      // The fired transition re-earns its enabling delay even if it stays
      // eligible.
      next[np_ + t] = layout_.enabling_delay[t];
      for (std::uint32_t i = disabled_off_[t]; i < disabled_off_[t + 1]; ++i) {
        reset_if_disabled(next, disabled_[i]);
      }
      if (!emit(std::optional<TransitionId>(tid), std::span<const std::uint32_t>(next_),
                std::uint64_t{0})) {
        return false;
      }
    }
    if (any_ready || !anything_waiting) return true;  // fired, or deadlock

    // Tick: armed timers count down, every in-flight count moves one slot
    // closer to completion (one shifted copy of the whole region, each
    // transition's last slot cleared), and completions deposit their
    // outputs in transition order. Then the inhibitor testers of the
    // places the completions filled are re-tested, once every deposit is
    // in (a deposit only ever disables, so testing once at the end sees
    // the same result as testing after each).
    std::copy_n(parent, region, next);
    for (std::uint32_t t = 0; t < nt_; ++t) {
      if (eligible_[t] != 0 && next[np_ + t] > 0) --next[np_ + t];
    }
    if (width_ > region) {
      std::copy_n(parent + region + 1, width_ - region - 1, next + region);
      for (std::uint32_t t = 0; t < nt_; ++t) {
        if (layout_.firing_delay[t] == 0) continue;
        next[layout_.inflight_off[t + 1] - 1] = 0;
        for (std::uint32_t c = parent[layout_.inflight_off[t]]; c > 0; --c) {
          for (const Arc& a : net_.outputs(TransitionId(t))) deposit(next, a);
        }
      }
      for (std::uint32_t t = 0; t < nt_; ++t) {
        if (layout_.firing_delay[t] == 0 || parent[layout_.inflight_off[t]] == 0) continue;
        for (std::uint32_t i = testers_off_[t]; i < testers_off_[t + 1]; ++i) {
          if (eligible_[testers_[i]] != 0) reset_if_disabled(next, testers_[i]);
        }
      }
    }
    return emit(std::optional<TransitionId>(), std::span<const std::uint32_t>(next_),
                std::uint64_t{1});
  }

 private:
  [[nodiscard]] bool tokens_available(const std::uint32_t* words, std::uint32_t t) const {
    return net_.tokens_available(std::span<const TokenCount>(words, np_), TransitionId(t));
  }

  /// Re-establish the canonical-timer invariant for `u` in a successor
  /// (the token test suffices; see the class comment).
  void reset_if_disabled(std::uint32_t* words, std::uint32_t u) const {
    if (!tokens_available(words, u)) words[np_ + u] = layout_.enabling_delay[u];
  }

  static void deposit(std::uint32_t* words, const Arc& a) {
    add_tokens_checked(words[a.place.value], a.place, a.weight);
  }

  const CompiledNet& net_;
  const TimedLayout& layout_;
  std::size_t np_, nt_, width_;
  std::vector<std::uint32_t> disabled_off_, disabled_;  ///< CSR: disabled_by(t)
  std::vector<std::uint32_t> testers_off_, testers_;    ///< CSR: completion_testers(t)
  std::vector<std::uint32_t> parent_, next_;            ///< word scratch
  std::vector<std::uint8_t> eligible_;                  ///< per transition, of parent_
  /// Per transition: single server with a firing delay, so a firing of
  /// its own in flight makes it ineligible.
  std::vector<std::uint8_t> waits_on_slots_;
};

}  // namespace pnut::analysis::detail
