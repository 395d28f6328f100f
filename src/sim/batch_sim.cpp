#include "sim/batch_sim.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <stdexcept>
#include <thread>

#include "petri/marking.h"

namespace pnut {

namespace {

using Event = LaneState::Event;
using EventKind = LaneState::EventKind;

/// Min-heap comparator on (time, sequence) — a strict total order (sequence
/// numbers are unique within a lane), so std::push_heap/pop_heap pop
/// events in FIFO order within an instant.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.sequence > b.sequence;
  }
};

}  // namespace

/// One lane's execution: row pointers into the engine's SoA matrices plus
/// the lane's transient LaneState. Built per run call; everything that must
/// survive between calls lives in the rows and the LaneState.
struct LaneRun {
  BatchSimulator& b;
  LaneState& s;
  const CompiledNet& net;
  std::size_t lane;

  // SoA rows (contiguous per lane).
  TokenCount* marking;
  std::int64_t* fvals = nullptr;
  std::uint8_t* fpres = nullptr;
  std::uint8_t* eligible;
  std::uint8_t* ready_flag;
  Time* enabled_since;
  std::uint64_t* generation;
  std::uint32_t* in_flight;
  std::uint64_t* completions;

  // Effective parameter rows: the shared base arrays, or this lane's
  // override row when the field has been patched.
  const Time* enab_const;
  const Time* fire_const;
  const std::int64_t* enab_lo;
  const std::int64_t* enab_hi;
  const std::int64_t* fire_lo;
  const std::int64_t* fire_hi;
  const double* freq;
  const TokenCount* init_tokens;

  Rng& rng;
  TraceSink* sink;

  LaneRun(BatchSimulator& batch, LaneState& state, std::size_t k)
      : b(batch),
        s(state),
        net(*batch.net_),
        lane(k),
        marking(&batch.marking_m_[k * batch.num_places_]),
        eligible(&batch.eligible_m_[k * batch.num_transitions_]),
        ready_flag(&batch.ready_m_[k * batch.num_transitions_]),
        enabled_since(&batch.enabled_since_m_[k * batch.num_transitions_]),
        generation(&batch.generation_m_[k * batch.num_transitions_]),
        in_flight(&batch.in_flight_m_[k * batch.num_transitions_]),
        completions(&batch.completions_m_[k * batch.num_transitions_]),
        rng(batch.rngs_[k]),
        sink(batch.sinks_[k]) {
    const std::size_t t_row = k * b.num_transitions_;
    enab_const = b.enab_const_m_.empty() ? b.enab_const_base_.data()
                                         : b.enab_const_m_.data() + t_row;
    fire_const = b.fire_const_m_.empty() ? b.fire_const_base_.data()
                                         : b.fire_const_m_.data() + t_row;
    enab_lo = b.enab_lo_m_.empty() ? b.enab_lo_base_.data() : b.enab_lo_m_.data() + t_row;
    enab_hi = b.enab_hi_m_.empty() ? b.enab_hi_base_.data() : b.enab_hi_m_.data() + t_row;
    fire_lo = b.fire_lo_m_.empty() ? b.fire_lo_base_.data() : b.fire_lo_m_.data() + t_row;
    fire_hi = b.fire_hi_m_.empty() ? b.fire_hi_base_.data() : b.fire_hi_m_.data() + t_row;
    freq = b.freq_m_.empty() ? b.freq_base_.data() : b.freq_m_.data() + t_row;
    init_tokens = b.init_tokens_m_.empty() ? b.init_tokens_base_.data()
                                           : b.init_tokens_m_.data() + k * b.num_places_;
    if (b.program_) {
      fvals = b.frame_vals_m_.data() + k * b.program_->schema().num_values();
      fpres = b.frame_pres_m_.data() + k * b.program_->schema().num_scalars();
    }
  }

  // --- incremental eligibility ----------------------------------------------

  void ready_insert(std::uint32_t t) {
    s.ready_words[t >> 6] |= std::uint64_t{1} << (t & 63);
  }

  void ready_erase(std::uint32_t t) {
    s.ready_words[t >> 6] &= ~(std::uint64_t{1} << (t & 63));
  }

  void mark_dirty(TransitionId t) {
    s.dirty_words[t.value >> 6] |= std::uint64_t{1} << (t.value & 63);
  }

  void mark_place_dirty(PlaceId p) {
    for (const TransitionId t : net.eligibility_watchers(p)) mark_dirty(t);
  }

  void mark_predicated_dirty() {
    for (const TransitionId t : net.predicated_transitions()) mark_dirty(t);
  }

  void mark_all_dirty() {
    for (std::uint32_t i = 0; i < b.num_transitions_; ++i) mark_dirty(TransitionId(i));
  }

  [[nodiscard]] bool compute_eligible(TransitionId t) const {
    if (net.is_single_server(t) && in_flight[t.value] > 0) return false;
    if (!net.tokens_available(std::span<const TokenCount>(marking, b.num_places_), t)) {
      return false;
    }
    const expr::Code* predicate = b.program_ ? b.program_->predicate(t) : nullptr;
    return predicate == nullptr ||
           expr::vm_eval_row(*predicate, fvals, fpres, nullptr, s.vm) != 0;
  }

  /// Draw a delay from the lane's effective parameters. The constant kind
  /// reads the (possibly patched) flat row and never touches the RNG,
  /// exactly like DelaySpec::sample on a rebuilt net.
  [[nodiscard]] Time sample_delay(bool enabling, TransitionId t) {
    const std::size_t i = t.value;
    switch (enabling ? b.enab_kind_[i] : b.fire_kind_[i]) {
      case DelaySpec::Kind::kConstant:
        return enabling ? enab_const[i] : fire_const[i];
      case DelaySpec::Kind::kUniform:
        return static_cast<Time>(enabling ? rng.next_int(enab_lo[i], enab_hi[i])
                                          : rng.next_int(fire_lo[i], fire_hi[i]));
      case DelaySpec::Kind::kDiscrete:
        return (enabling ? net.enabling_time(t) : net.firing_time(t)).sample(rng);
      case DelaySpec::Kind::kComputed: {
        // No rng: computed delays are deterministic in the data state
        // (irand raises EvalError); negative values clamp to zero.
        const expr::Code* code =
            enabling ? b.program_->enabling_delay(t) : b.program_->firing_delay(t);
        const auto v =
            static_cast<Time>(expr::vm_eval_row(*code, fvals, fpres, nullptr, s.vm));
        return v < 0 ? 0 : v;
      }
    }
    return 0;  // unreachable
  }

  void schedule(Time time, EventKind kind, std::uint32_t t, std::uint64_t firing_id,
                std::uint64_t gen) {
    s.heap.push_back(Event{time, s.next_sequence++, kind, t, firing_id, gen});
    std::push_heap(s.heap.begin(), s.heap.end(), EventAfter{});
  }

  void refresh_one(TransitionId t) {
    const std::uint32_t i = t.value;
    const bool now_eligible = compute_eligible(t);

    if (now_eligible && !eligible[i]) {
      // Became enabled: arm the enabling timer (or mark ready immediately).
      eligible[i] = 1;
      enabled_since[i] = s.now;
      ++generation[i];
      const Time delay = sample_delay(/*enabling=*/true, t);
      if (delay <= 0) {
        ready_flag[i] = 1;
        ready_insert(i);
      } else {
        ready_flag[i] = 0;
        schedule(s.now + delay, EventKind::kEnablingExpiry, i, 0, generation[i]);
      }
    } else if (!now_eligible && eligible[i]) {
      // Disabled: the continuous-enablement clock resets; any pending
      // expiry event for the old generation becomes stale.
      eligible[i] = 0;
      ready_flag[i] = 0;
      ++generation[i];
      ready_erase(i);
    }
    // Still eligible (or still not): leave the running timer untouched —
    // that is precisely the "continuously enabled" requirement.
  }

  /// Re-evaluate the dirty transitions in ascending id order. refresh_one
  /// never re-dirties anything (only firings and token moves do), so each
  /// word can be consumed in one pass.
  void refresh_eligibility() {
    for (std::size_t wi = 0; wi < s.dirty_words.size(); ++wi) {
      std::uint64_t word = s.dirty_words[wi];
      if (word == 0) continue;
      s.dirty_words[wi] = 0;
      do {
        const std::uint32_t i =
            static_cast<std::uint32_t>(wi * 64) + std::countr_zero(word);
        word &= word - 1;
        refresh_one(TransitionId(i));
      } while (word != 0);
    }
  }

  // --- token moves over the lane's marking row ------------------------------

  void remove_tokens(PlaceId p, TokenCount n) {
    TokenCount& slot = marking[p.value];
    if (slot < n) {
      // Same error as Marking::remove — a semantic bug in the model, never
      // silently clamped.
      throw std::underflow_error("Marking::remove: removing " + std::to_string(n) +
                                 " tokens from place " + std::to_string(p.value) +
                                 " which holds only " + std::to_string(slot));
    }
    slot -= n;
  }

  void add_tokens(PlaceId p, TokenCount n) { add_tokens_checked(marking[p.value], p, n); }

  // --- firing ---------------------------------------------------------------

  /// Run `t`'s action on the lane's data row; with a trace event, append
  /// the frame diff to it.
  void run_action(TransitionId t, TraceEvent* ev) {
    const expr::Code* code = b.action_patches_.empty() ? b.program_->action(t)
                                                       : b.patched_action(lane, t);
    if (ev != nullptr) {
      s.frame_before.values.assign(fvals, fvals + b.program_->schema().num_values());
      s.frame_before.present.assign(fpres, fpres + b.program_->schema().num_scalars());
    }
    expr::vm_exec_row(*code, fvals, fpres, &rng, s.vm);
    mark_predicated_dirty();
    if (ev == nullptr) return;
    // Frame diff in slot order == name order: the trace lists the exact
    // variable updates the firing performed, sorted by name.
    const DataSchema& schema = b.program_->schema();
    for (std::size_t i = 0; i < schema.num_scalars(); ++i) {
      if (fpres[i] == 0) continue;
      if (s.frame_before.present[i] == 0 || s.frame_before.values[i] != fvals[i]) {
        ev->scalar_updates.push_back(ScalarUpdate{schema.scalar_names()[i], fvals[i]});
      }
    }
    for (const DataSchema::Table& table : schema.tables()) {
      for (std::uint32_t i = 0; i < table.size; ++i) {
        if (s.frame_before.values[table.base + i] != fvals[table.base + i]) {
          ev->table_updates.push_back(TableUpdate{
              table.name, static_cast<std::int64_t>(i), fvals[table.base + i]});
        }
      }
    }
  }

  /// Start one firing of `t` now: consume, apply action, emit Start,
  /// complete immediately or schedule completion.
  void start_firing(TransitionId t) {
    const std::uint64_t firing_id = s.next_firing++;
    const Time now = s.now;

    TraceEvent ev;  // built only on the sink (inspection) path
    if (sink != nullptr) {
      ev.kind = TraceEvent::Kind::kStart;
      ev.time = now;
      ev.transition = t;
      ev.firing_id = firing_id;
    }

    for (const Arc& a : net.inputs(t)) {
      remove_tokens(a.place, a.weight);
      mark_place_dirty(a.place);
      if (sink != nullptr) ev.consumed.push_back(TokenDelta{a.place, a.weight});
    }

    if (net.has_action(t)) run_action(t, sink != nullptr ? &ev : nullptr);

    const Time firing_time = sample_delay(/*enabling=*/false, t);

    if (firing_time <= 0) {
      // Zero-duration firing: consume + produce in one atomic state delta
      // (Section 4.2 relies on instantaneous moves being atomic for the
      // Bus_busy + Bus_free = 1 style invariants to hold in every state).
      // Statistics apply the *net* per-place delta (StatCollector's kAtomic
      // rule), computed straight off the arc spans.
      for (const Arc& a : net.outputs(t)) {
        add_tokens(a.place, a.weight);
        mark_place_dirty(a.place);
        if (sink != nullptr) ev.produced.push_back(TokenDelta{a.place, a.weight});
      }
      completions[t.value] += 1;
      ++s.stats.events_started;
      ++s.stats.events_finished;
      ++s.stats.starts[t.value];
      ++s.stats.ends[t.value];
      const std::span<const Arc> ins = net.inputs(t);
      const std::span<const Arc> outs = net.outputs(t);
      for (const Arc& a : ins) {
        std::int64_t delta = -static_cast<std::int64_t>(a.weight);
        for (const Arc& p : outs) {
          if (p.place == a.place) delta += static_cast<std::int64_t>(p.weight);
        }
        s.stats.places[a.place.value].change(now, delta);
      }
      for (const Arc& p : outs) {
        bool consumed_too = false;
        for (const Arc& a : ins) consumed_too |= (a.place == p.place);
        if (!consumed_too) {
          s.stats.places[p.place.value].change(now, static_cast<std::int64_t>(p.weight));
        }
      }
      if (sink != nullptr) {
        ev.kind = TraceEvent::Kind::kAtomic;
        sink->event(ev);
      }
      return;
    }

    in_flight[t.value] += 1;
    mark_dirty(t);  // in_flight gates single-server eligibility
    ++s.stats.events_started;
    ++s.stats.starts[t.value];
    s.stats.transitions[t.value].change(now, +1);
    for (const Arc& a : net.inputs(t)) {
      s.stats.places[a.place.value].change(now, -static_cast<std::int64_t>(a.weight));
    }
    if (sink != nullptr) sink->event(ev);
    schedule(now + firing_time, EventKind::kFiringComplete, t.value, firing_id, 0);
  }

  /// Apply `t`'s completion: produce tokens, emit End.
  void complete_firing(TransitionId t, std::uint64_t firing_id) {
    const Time now = s.now;
    TraceEvent ev;
    if (sink != nullptr) {
      ev.kind = TraceEvent::Kind::kEnd;
      ev.time = now;
      ev.transition = t;
      ev.firing_id = firing_id;
    }
    for (const Arc& a : net.outputs(t)) {
      add_tokens(a.place, a.weight);
      mark_place_dirty(a.place);
      s.stats.places[a.place.value].change(now, static_cast<std::int64_t>(a.weight));
      if (sink != nullptr) ev.produced.push_back(TokenDelta{a.place, a.weight});
    }
    in_flight[t.value] -= 1;
    mark_dirty(t);
    completions[t.value] += 1;
    ++s.stats.events_finished;
    ++s.stats.ends[t.value];
    s.stats.transitions[t.value].change(now, -1);
    if (sink != nullptr) sink->event(ev);
  }

  /// Fire every ready transition at the current instant, resolving
  /// conflicts probabilistically, until none remain ready.
  void fire_ready_transitions() {
    while (true) {
      // Candidates: transitions that are ready *and still* eligible at this
      // instant (an earlier firing in this loop may have stolen their
      // tokens), gathered in ascending id order.
      s.ready_ids.clear();
      s.weights.clear();
      for (std::size_t wi = 0; wi < s.ready_words.size(); ++wi) {
        std::uint64_t word = s.ready_words[wi];
        while (word != 0) {
          const std::uint32_t i =
              static_cast<std::uint32_t>(wi * 64) + std::countr_zero(word);
          word &= word - 1;
          s.ready_ids.push_back(i);
          s.weights.push_back(freq[i]);
        }
      }
      if (s.ready_ids.empty()) return;

      // Budget guard against zero-delay livelock.
      if (s.now != s.instant) {
        s.instant = s.now;
        s.immediate_this_instant = 0;
      }
      if (++s.immediate_this_instant > b.options_.max_immediate_firings_per_instant) {
        throw std::runtime_error(
            "Simulator: more than " +
            std::to_string(b.options_.max_immediate_firings_per_instant) +
            " firings at time " + std::to_string(s.now) +
            " — the net has a zero-delay livelock");
      }

      const std::size_t pick = rng.next_weighted(s.weights);
      const TransitionId chosen(s.ready_ids[pick]);

      // Firing consumes this transition's readiness; it must wait out a full
      // enabling delay again before its next firing. Mark it dirty so the
      // refresh re-evaluates it even if no watched place changed (e.g. a
      // source transition with no input arcs).
      ready_flag[chosen.value] = 0;
      eligible[chosen.value] = 0;
      ++generation[chosen.value];
      ready_erase(chosen.value);
      mark_dirty(chosen);

      start_firing(chosen);
      refresh_eligibility();
    }
  }

  // --- lane lifecycle -------------------------------------------------------

  /// Restart from the lane's (patched) initial state, emit begin(), and
  /// fire the initial instant. Without `reseed` the RNG stream continues.
  void reset(bool reseed) {
    if (reseed) rng.reseed(b.seeds_[lane]);
    s.now = b.options_.start_time;

    std::copy(init_tokens, init_tokens + b.num_places_, marking);
    if (b.program_) {
      const DataFrame& initial = b.program_->initial_frame();
      std::copy(initial.values.begin(), initial.values.end(), fvals);
      std::copy(initial.present.begin(), initial.present.end(), fpres);
      if (!b.scalar_patches_.empty()) {
        for (const BatchSimulator::ScalarPatch& p : b.scalar_patches_[lane]) {
          fvals[p.slot] = p.value;
          fpres[p.slot] = 1;
        }
      }
    }

    const std::size_t T = b.num_transitions_;
    std::fill(eligible, eligible + T, std::uint8_t{0});
    std::fill(ready_flag, ready_flag + T, std::uint8_t{0});
    std::fill(enabled_since, enabled_since + T, Time{0});
    std::fill(generation, generation + T, std::uint64_t{0});
    std::fill(in_flight, in_flight + T, std::uint32_t{0});
    std::fill(completions, completions + T, std::uint64_t{0});

    s.heap.clear();
    const std::size_t words = (T + 63) / 64;
    s.dirty_words.assign(words, 0);
    s.ready_words.assign(words, 0);
    s.next_sequence = 0;
    s.next_firing = 0;
    s.immediate_this_instant = 0;
    s.instant = s.now;

    // Native statistics "begin": StatCollector::begin's RunCounters::begin,
    // against the lane's (possibly patched) initial marking.
    s.stats.begin(s.now, std::span<const TokenCount>(marking, b.num_places_), T);

    if (sink != nullptr) {
      TraceHeader header = TraceHeader::from_net(net.net(), s.now);
      header.initial_marking =
          Marking::from_tokens(std::span<const TokenCount>(marking, b.num_places_));
      if (!b.scalar_patches_.empty()) {
        for (const BatchSimulator::ScalarPatch& p : b.scalar_patches_[lane]) {
          header.initial_data.set(p.name, p.value);
        }
      }
      sink->begin(header);
    }

    mark_all_dirty();
    refresh_eligibility();
    fire_ready_transitions();
  }

  /// Advance to `horizon` (inclusive of events at it), deadlock, or an
  /// event budget: `budget` non-stale events, checked before each pop.
  StopReason run_to(Time horizon, std::uint64_t budget) {
    const bool stoppable = b.options_.stop.possible();
    std::uint64_t popped = 0;
    std::uint64_t processed = 0;
    while (!s.heap.empty() && s.heap.front().time <= horizon) {
      if (processed >= budget) return StopReason::kEventLimit;
      // Cooperative stop: the StopError parks in this lane's error slot and
      // run() rethrows the lowest lane's, like any other lane failure.
      if (stoppable && (popped++ % kStopCheckStride) == 0) {
        b.options_.stop.throw_if_stopped();
      }
      const Event ev = s.heap.front();
      std::pop_heap(s.heap.begin(), s.heap.end(), EventAfter{});
      s.heap.pop_back();

      if (ev.kind == EventKind::kEnablingExpiry) {
        if (generation[ev.transition] != ev.generation) continue;  // stale timer
        s.now = ev.time;
        // A matching generation means continuously eligible since arming.
        ready_flag[ev.transition] = 1;
        ready_insert(ev.transition);
      } else {
        s.now = ev.time;
        complete_firing(TransitionId(ev.transition), ev.firing_id);
        refresh_eligibility();
      }
      ++processed;
      fire_ready_transitions();
    }
    // Whether or not anything can still happen, the experiment's clock runs
    // to the requested horizon — a deadlocked system keeps existing, so
    // statistics integrate over the full [start, horizon] window.
    if (horizon > s.now) s.now = horizon;
    return b.lane_deadlocked(lane, s) ? StopReason::kDeadlock : StopReason::kTimeLimit;
  }

  /// Emit end() and summarize the lane's statistics into its result slot
  /// through RunCounters::finish, the summary StatCollector::end runs.
  void finish() {
    const Time now = s.now;
    b.now_[lane] = now;
    b.firing_starts_[lane] = s.next_firing;
    if (sink != nullptr) sink->end(now);

    b.results_[lane] = s.stats.finish(b.run_numbers_[lane], b.options_.start_time, now,
                                      b.place_names_, b.transition_names_);
  }
};

// --- BatchSimulator ----------------------------------------------------------

BatchSimulator::BatchSimulator(std::shared_ptr<const CompiledNet> net,
                               std::size_t num_lanes, BatchOptions options)
    : net_(std::move(net)), options_(options), num_lanes_(num_lanes) {
  if (!net_) throw std::invalid_argument("BatchSimulator: null CompiledNet");
  if (num_lanes_ == 0) throw std::invalid_argument("BatchSimulator: zero lanes");
  num_places_ = net_->num_places();
  num_transitions_ = net_->num_transitions();
  for (const Place& p : net_->net().places()) place_names_.push_back(p.name);
  for (const Transition& t : net_->net().transitions()) transition_names_.push_back(t.name);

  // Only nets with hooks carry data rows.
  if (net_->net_has_hooks()) program_ = expr::NetProgram::compile(net_->net());

  enab_kind_.reserve(num_transitions_);
  fire_kind_.reserve(num_transitions_);
  for (std::uint32_t i = 0; i < num_transitions_; ++i) {
    const TransitionId t(i);
    const DelaySpec& enab = net_->enabling_time(t);
    const DelaySpec& fire = net_->firing_time(t);
    enab_kind_.push_back(enab.kind());
    fire_kind_.push_back(fire.kind());
    enab_const_base_.push_back(enab.constant_value());
    fire_const_base_.push_back(fire.constant_value());
    enab_lo_base_.push_back(enab.uniform_bounds().first);
    enab_hi_base_.push_back(enab.uniform_bounds().second);
    fire_lo_base_.push_back(fire.uniform_bounds().first);
    fire_hi_base_.push_back(fire.uniform_bounds().second);
    freq_base_.push_back(net_->frequency(t));
  }
  init_tokens_base_.reserve(num_places_);
  for (std::uint32_t p = 0; p < num_places_; ++p) {
    init_tokens_base_.push_back(net_->initial_tokens(PlaceId(p)));
  }

  marking_m_.resize(num_lanes_ * num_places_);
  if (program_) {
    frame_vals_m_.resize(num_lanes_ * program_->schema().num_values());
    frame_pres_m_.resize(num_lanes_ * program_->schema().num_scalars());
  }
  eligible_m_.resize(num_lanes_ * num_transitions_);
  ready_m_.resize(num_lanes_ * num_transitions_);
  enabled_since_m_.resize(num_lanes_ * num_transitions_);
  generation_m_.resize(num_lanes_ * num_transitions_);
  completions_m_.resize(num_lanes_ * num_transitions_);
  in_flight_m_.resize(num_lanes_ * num_transitions_);
  rngs_.resize(num_lanes_);
  now_.assign(num_lanes_, options_.start_time);
  seeds_.resize(num_lanes_);
  for (std::size_t k = 0; k < num_lanes_; ++k) {
    seeds_[k] = options_.base_seed + static_cast<std::uint64_t>(k);
  }
  firing_starts_.assign(num_lanes_, 0);
  run_numbers_.assign(num_lanes_, 1);
  sinks_.assign(num_lanes_, nullptr);
  stop_.assign(num_lanes_, StopReason::kTimeLimit);
  results_.resize(num_lanes_);
}

void BatchSimulator::check_lane(std::size_t lane) const {
  if (lane >= num_lanes_) {
    throw std::invalid_argument("BatchSimulator: lane " + std::to_string(lane) +
                                " out of range (" + std::to_string(num_lanes_) +
                                " lanes)");
  }
}

void BatchSimulator::check_ran(std::size_t lane) const {
  check_lane(lane);
  if (!ran_) {
    throw std::logic_error("BatchSimulator: results read before run()");
  }
}

namespace {

void check_transition(const CompiledNet& net, TransitionId t) {
  if (t.value >= net.num_transitions()) {
    throw std::invalid_argument("BatchSimulator: transition id " +
                                std::to_string(t.value) + " out of range");
  }
}

}  // namespace

template <typename T>
std::vector<T>& BatchSimulator::ensure_matrix(std::vector<T>& matrix, const T* base,
                                              std::size_t stride) {
  if (matrix.empty()) {
    matrix.resize(num_lanes_ * stride);
    for (std::size_t k = 0; k < num_lanes_; ++k) {
      std::copy(base, base + stride, matrix.data() + k * stride);
    }
  }
  return matrix;
}

void BatchSimulator::set_seed(std::size_t lane, std::uint64_t seed) {
  check_lane(lane);
  seeds_[lane] = seed;
}

void BatchSimulator::set_run_number(std::size_t lane, int run_number) {
  check_lane(lane);
  run_numbers_[lane] = run_number;
}

void BatchSimulator::set_sink(std::size_t lane, TraceSink* sink) {
  check_lane(lane);
  sinks_[lane] = sink;
}

void BatchSimulator::patch_initial_tokens(std::size_t lane, PlaceId place,
                                          TokenCount tokens) {
  check_lane(lane);
  if (place.value >= num_places_) {
    throw std::invalid_argument("BatchSimulator: place id " +
                                std::to_string(place.value) + " out of range");
  }
  const auto capacity = net_->capacity(place);
  if (capacity && tokens > *capacity) {
    throw std::invalid_argument(
        "BatchSimulator: initial tokens exceed the capacity of place '" +
        net_->place_name(place) + "'");
  }
  ensure_matrix(init_tokens_m_, init_tokens_base_.data(),
                num_places_)[lane * num_places_ + place.value] = tokens;
}

void BatchSimulator::patch_enabling_constant(std::size_t lane, TransitionId t,
                                             Time value) {
  check_lane(lane);
  check_transition(*net_, t);
  if (enab_kind_[t.value] != DelaySpec::Kind::kConstant) {
    throw std::invalid_argument(
        "BatchSimulator: enabling time of '" + net_->transition_name(t) +
        "' is not a constant delay");
  }
  if (value < 0) throw std::invalid_argument("DelaySpec::constant: negative delay");
  ensure_matrix(enab_const_m_, enab_const_base_.data(), num_transitions_)[lt(lane, t)] =
      value;
}

void BatchSimulator::patch_firing_constant(std::size_t lane, TransitionId t, Time value) {
  check_lane(lane);
  check_transition(*net_, t);
  if (fire_kind_[t.value] != DelaySpec::Kind::kConstant) {
    throw std::invalid_argument("BatchSimulator: firing time of '" +
                                net_->transition_name(t) + "' is not a constant delay");
  }
  if (value < 0) throw std::invalid_argument("DelaySpec::constant: negative delay");
  ensure_matrix(fire_const_m_, fire_const_base_.data(), num_transitions_)[lt(lane, t)] =
      value;
}

void BatchSimulator::patch_enabling_uniform(std::size_t lane, TransitionId t,
                                            std::int64_t lo, std::int64_t hi) {
  check_lane(lane);
  check_transition(*net_, t);
  if (enab_kind_[t.value] != DelaySpec::Kind::kUniform) {
    throw std::invalid_argument("BatchSimulator: enabling time of '" +
                                net_->transition_name(t) + "' is not a uniform delay");
  }
  if (lo < 0 || hi < lo) {
    throw std::invalid_argument("DelaySpec::uniform_int: require 0 <= lo <= hi");
  }
  ensure_matrix(enab_lo_m_, enab_lo_base_.data(), num_transitions_)[lt(lane, t)] = lo;
  ensure_matrix(enab_hi_m_, enab_hi_base_.data(), num_transitions_)[lt(lane, t)] = hi;
}

void BatchSimulator::patch_firing_uniform(std::size_t lane, TransitionId t,
                                          std::int64_t lo, std::int64_t hi) {
  check_lane(lane);
  check_transition(*net_, t);
  if (fire_kind_[t.value] != DelaySpec::Kind::kUniform) {
    throw std::invalid_argument("BatchSimulator: firing time of '" +
                                net_->transition_name(t) + "' is not a uniform delay");
  }
  if (lo < 0 || hi < lo) {
    throw std::invalid_argument("DelaySpec::uniform_int: require 0 <= lo <= hi");
  }
  ensure_matrix(fire_lo_m_, fire_lo_base_.data(), num_transitions_)[lt(lane, t)] = lo;
  ensure_matrix(fire_hi_m_, fire_hi_base_.data(), num_transitions_)[lt(lane, t)] = hi;
}

void BatchSimulator::patch_frequency(std::size_t lane, TransitionId t, double frequency) {
  check_lane(lane);
  check_transition(*net_, t);
  if (!(frequency > 0)) {
    throw std::invalid_argument("Net::set_frequency: frequency must be > 0 for '" +
                                net_->transition_name(t) + "'");
  }
  ensure_matrix(freq_m_, freq_base_.data(), num_transitions_)[lt(lane, t)] = frequency;
}

void BatchSimulator::patch_initial_scalar(std::size_t lane, std::string_view name,
                                          std::int64_t value) {
  check_lane(lane);
  ScalarPatch patch;
  patch.name = std::string(name);
  patch.value = value;
  // A patch overrides a declared initial value; it does not invent new data
  // state. (A hook-free net never reads its data: the patch only shows in
  // the lane's trace header.)
  const auto slot = program_ ? program_->schema().scalar_slot(name) : std::nullopt;
  if (program_ ? !slot : !net_->net().initial_data().has(name)) {
    throw std::invalid_argument("BatchSimulator: no scalar named '" + patch.name +
                                "' in the net's data schema");
  }
  if (slot) patch.slot = *slot;
  if (scalar_patches_.empty()) scalar_patches_.resize(num_lanes_);
  // Later patches of the same name win, as with repeated DataContext::set.
  for (ScalarPatch& existing : scalar_patches_[lane]) {
    if (existing.name == patch.name) {
      existing = std::move(patch);
      return;
    }
  }
  scalar_patches_[lane].push_back(std::move(patch));
}

const expr::Code* BatchSimulator::patched_action(std::size_t lane, TransitionId t) const {
  const std::size_t key = lane * num_transitions_ + t.value;
  for (const auto& [k, code] : action_patches_) {
    if (k == key) return &code;
  }
  return program_->action(t);
}

void BatchSimulator::patch_action_irand(std::size_t lane, TransitionId t,
                                        std::size_t occurrence, std::int64_t lo,
                                        std::int64_t hi) {
  check_lane(lane);
  check_transition(*net_, t);
  const expr::Code* base = program_ ? patched_action(lane, t) : nullptr;
  if (base == nullptr) {
    throw std::invalid_argument("BatchSimulator: transition '" +
                                net_->transition_name(t) + "' has no compiled action");
  }
  if (lo > hi) {
    throw std::invalid_argument("BatchSimulator: empty irand range [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }

  expr::Code code = *base;
  std::size_t seen = 0;
  bool patched = false;
  for (std::size_t i = 0; i < code.instrs.size(); ++i) {
    if (code.instrs[i].op != expr::Op::kIrand) continue;
    if (seen++ != occurrence) continue;
    if (i < 2 || code.instrs[i - 1].op != expr::Op::kConst ||
        code.instrs[i - 2].op != expr::Op::kConst) {
      throw std::invalid_argument(
          "BatchSimulator: irand occurrence " + std::to_string(occurrence) + " of '" +
          net_->transition_name(t) + "' does not have literal constant bounds");
    }
    // Point the two kConst instructions at fresh const-pool entries — the
    // original entries may be shared by other literals in the program.
    code.instrs[i - 2].a = static_cast<std::int32_t>(code.consts.size());
    code.consts.push_back(lo);
    code.instrs[i - 1].a = static_cast<std::int32_t>(code.consts.size());
    code.consts.push_back(hi);
    patched = true;
    break;
  }
  if (!patched) {
    throw std::invalid_argument("BatchSimulator: action of '" +
                                net_->transition_name(t) + "' has only " +
                                std::to_string(seen) + " irand call(s)");
  }

  const std::size_t key = lane * num_transitions_ + t.value;
  for (auto& [k, existing] : action_patches_) {
    if (k == key) {
      existing = std::move(code);
      return;
    }
  }
  action_patches_.emplace_back(key, std::move(code));
}

void BatchSimulator::run(Time horizon) {
  unsigned threads = options_.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, num_lanes_));

  std::vector<std::exception_ptr> errors(num_lanes_);
  const auto run_lane = [&](LaneState& state, std::size_t lane) {
    try {
      LaneRun r(*this, state, lane);
      r.reset(/*reseed=*/true);
      stop_[lane] = r.run_to(horizon, std::numeric_limits<std::uint64_t>::max());
      r.finish();
    } catch (...) {
      errors[lane] = std::current_exception();
    }
  };

  if (threads <= 1) {
    LaneState state;
    for (std::size_t lane = 0; lane < num_lanes_; ++lane) run_lane(state, lane);
  } else {
    // Work-stealing by atomic counter; lane k's state and result slots are
    // disjoint SoA rows, so the merged output is independent of scheduling.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
      pool.emplace_back([&] {
        LaneState state;
        while (true) {
          const std::size_t lane = next.fetch_add(1);
          if (lane >= num_lanes_) return;
          run_lane(state, lane);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }
  ran_ = true;

  // Every lane ran; surface the lowest-lane failure — the same exception a
  // sequential loop over the lanes would have thrown first.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void BatchSimulator::reset_lane(std::size_t lane, LaneState& state, bool reseed) {
  LaneRun(*this, state, lane).reset(reseed);
}

StopReason BatchSimulator::advance_lane(std::size_t lane, LaneState& state, Time horizon,
                                        std::optional<std::uint64_t> max_events) {
  return LaneRun(*this, state, lane)
      .run_to(horizon, max_events.value_or(std::numeric_limits<std::uint64_t>::max()));
}

bool BatchSimulator::lane_deadlocked(std::size_t lane, const LaneState& state) const {
  // No queued events, nothing in flight, nothing ready: an eligible
  // transition with an armed timer would have an event queued, and one with
  // a zero enabling delay would have fired already.
  if (!state.heap.empty()) return false;
  for (std::size_t i = lane * num_transitions_; i < (lane + 1) * num_transitions_; ++i) {
    if (in_flight_m_[i] > 0) return false;
    if (ready_m_[i] && eligible_m_[i]) return false;
  }
  return true;
}

StopReason BatchSimulator::stop_reason(std::size_t lane) const {
  check_ran(lane);
  return stop_[lane];
}

const RunStats& BatchSimulator::stats(std::size_t lane) const {
  check_ran(lane);
  return results_[lane];
}

Time BatchSimulator::now(std::size_t lane) const {
  check_ran(lane);
  return now_[lane];
}

std::span<const TokenCount> BatchSimulator::marking(std::size_t lane) const {
  check_ran(lane);
  return {marking_m_.data() + lane * num_places_, num_places_};
}

std::uint64_t BatchSimulator::completed_firings(std::size_t lane, TransitionId t) const {
  check_ran(lane);
  check_transition(*net_, t);
  return completions_m_[lt(lane, t)];
}

std::uint64_t BatchSimulator::total_firing_starts(std::size_t lane) const {
  check_ran(lane);
  return firing_starts_[lane];
}

}  // namespace pnut
