#include "sim/batch_sim.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "petri/marking.h"

namespace pnut {

namespace {

/// Time-weighted accumulator replicating StatCollector::Accumulator's exact
/// floating-point operation order — the batch engine accumulates statistics
/// natively (no TraceEvent, no virtual sink call) and must stay byte-equal
/// to a StatCollector attached to the equivalent scalar run.
struct Acc {
  std::int64_t current = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  Time last_change = 0;
  double weighted_sum = 0;
  double weighted_sumsq = 0;

  void settle(Time now) {
    const double dt = now - last_change;
    // dt == 0 contributes current * 0.0 == ±0.0; the sums start at +0.0 and
    // only ever accumulate, so they are never -0.0 and adding ±0.0 is a bit
    // identity — skipping it is byte-equal and saves work at shared instants.
    if (dt == 0) return;
    weighted_sum += static_cast<double>(current) * dt;
    weighted_sumsq += static_cast<double>(current) * static_cast<double>(current) * dt;
    last_change = now;
  }
  void change(Time now, std::int64_t delta) {
    settle(now);
    current += delta;
    if (current < min) min = current;
    if (current > max) max = current;
  }
};

enum class EventKind : std::uint8_t { kFiringComplete, kEnablingExpiry };

struct Event {
  Time time = 0;
  std::uint64_t sequence = 0;
  EventKind kind = EventKind::kFiringComplete;
  std::uint32_t transition = 0;
  std::uint64_t firing_id = 0;
  std::uint64_t generation = 0;
};

/// Min-heap comparator on (time, sequence) — a strict total order (sequence
/// numbers are unique within a lane), so std::push_heap/pop_heap on the
/// reused worker vector pops events in exactly the order the scalar
/// engine's std::priority_queue does.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.sequence > b.sequence;
  }
};

/// Per-worker scratch reused across the lanes the worker runs: everything a
/// lane needs transiently but that would otherwise cost an allocation per
/// lane (or, for the conflict candidate lists, per event).
struct BatchWorker {
  std::vector<Event> heap;
  /// Dirty and ready sets as bitmask words. Iterating set bits with
  /// countr_zero walks ids in ascending order — exactly the order the
  /// scalar engine's sorted candidate vectors produce — while marking,
  /// erasing and membership tests collapse to single bit operations.
  std::vector<std::uint64_t> dirty_words;
  std::vector<std::uint64_t> ready_words;  ///< ready && eligible ids
  std::vector<std::uint32_t> ready_ids;
  std::vector<double> weights;
  expr::VmScratch vm;
  DataFrame frame_before;  ///< action-diff snapshot (sink lanes)
  std::vector<Acc> place_acc;
  std::vector<Acc> trans_acc;
  std::vector<std::uint64_t> starts;
  std::vector<std::uint64_t> ends;
};

}  // namespace

/// One lane's execution state: row pointers into the engine's SoA matrices
/// plus the worker scratch. The methods mirror Simulator's (simulator.cpp)
/// one for one — same RNG call sites, same event ordering, same errors —
/// which is what makes lane k bit-identical to a scalar run with its seed.
struct LaneRun {
  BatchSimulator& b;
  BatchWorker& w;
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
  Time now = 0;
  std::uint64_t next_sequence = 0;
  std::uint64_t next_firing = 0;
  std::uint64_t immediate_this_instant = 0;
  Time instant = -1;
  std::uint64_t events_started = 0;
  std::uint64_t events_finished = 0;

  LaneRun(BatchSimulator& batch, BatchWorker& worker, std::size_t k)
      : b(batch),
        w(worker),
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

  // --- incremental eligibility (mirrors Simulator) --------------------------

  void ready_insert(std::uint32_t t) {
    w.ready_words[t >> 6] |= std::uint64_t{1} << (t & 63);
  }

  void ready_erase(std::uint32_t t) {
    w.ready_words[t >> 6] &= ~(std::uint64_t{1} << (t & 63));
  }

  void mark_dirty(TransitionId t) {
    w.dirty_words[t.value >> 6] |= std::uint64_t{1} << (t.value & 63);
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
           expr::vm_eval_row(*predicate, fvals, fpres, nullptr, w.vm) != 0;
  }

  /// Draw a delay from the lane's effective parameters. Call sites and RNG
  /// consumption match Simulator::sample_delay kind for kind; the constant
  /// kind reads the (possibly patched) flat row and never touches the RNG,
  /// exactly like DelaySpec::sample on a rebuilt net.
  [[nodiscard]] Time sample_delay(bool enabling, TransitionId t) {
    const std::size_t i = t.value;
    switch (enabling ? b.enab_kind_[i] : b.fire_kind_[i]) {
      case DelaySpec::Kind::kConstant:
        return enabling ? enab_const[i] : fire_const[i];
      case DelaySpec::Kind::kUniform:
        return static_cast<Time>(enabling ? rng.next_int(enab_lo[i], enab_hi[i])
                                          : rng.next_int(fire_lo[i], fire_hi[i]));
      case DelaySpec::Kind::kDiscrete: {
        // Same walk as DelaySpec::sample's discrete branch.
        const auto& choices =
            (enabling ? net.enabling_time(t) : net.firing_time(t)).choices();
        double total = 0;
        for (const auto& [value, weight] : choices) total += weight;
        double r = rng.next_double() * total;
        for (const auto& [value, weight] : choices) {
          r -= weight;
          if (r < 0) return value;
        }
        return choices.back().first;
      }
      case DelaySpec::Kind::kComputed: {
        const expr::Code* code =
            enabling ? b.program_->enabling_delay(t) : b.program_->firing_delay(t);
        const auto v =
            static_cast<Time>(expr::vm_eval_row(*code, fvals, fpres, nullptr, w.vm));
        return v < 0 ? 0 : v;
      }
    }
    return 0;  // unreachable
  }

  void schedule(Time time, EventKind kind, std::uint32_t t, std::uint64_t firing_id,
                std::uint64_t gen) {
    w.heap.push_back(Event{time, next_sequence++, kind, t, firing_id, gen});
    std::push_heap(w.heap.begin(), w.heap.end(), EventAfter{});
  }

  void refresh_one(TransitionId t) {
    const std::uint32_t i = t.value;
    const bool now_eligible = compute_eligible(t);

    if (now_eligible && !eligible[i]) {
      eligible[i] = 1;
      enabled_since[i] = now;
      ++generation[i];
      // The scalar engine short-circuits statically-zero enabling times;
      // sampling a constant consumes no randomness, so reading the
      // (possibly patched) constant row here is bit-equivalent.
      const Time delay = sample_delay(/*enabling=*/true, t);
      if (delay <= 0) {
        ready_flag[i] = 1;
        ready_insert(i);
      } else {
        ready_flag[i] = 0;
        schedule(now + delay, EventKind::kEnablingExpiry, i, 0, generation[i]);
      }
    } else if (!now_eligible && eligible[i]) {
      eligible[i] = 0;
      ready_flag[i] = 0;
      ++generation[i];
      ready_erase(i);
    }
  }

  /// refresh_one never re-dirties anything (only firings and token moves
  /// do), so each word can be consumed in one pass; ascending bit order
  /// matches the sorted iteration the scalar engine performs.
  void refresh_eligibility() {
    for (std::size_t wi = 0; wi < w.dirty_words.size(); ++wi) {
      std::uint64_t word = w.dirty_words[wi];
      if (word == 0) continue;
      w.dirty_words[wi] = 0;
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

  void run_action(TransitionId t, TraceEvent* ev) {
    const expr::Code* code = b.action_patches_.empty() ? b.program_->action(t)
                                                       : b.patched_action(lane, t);
    if (ev != nullptr) {
      w.frame_before.values.assign(fvals, fvals + b.program_->schema().num_values());
      w.frame_before.present.assign(fpres, fpres + b.program_->schema().num_scalars());
    }
    expr::vm_exec_row(*code, fvals, fpres, &rng, w.vm);
    mark_predicated_dirty();
    if (ev == nullptr) return;
    // Frame diff in slot order == name order (see Simulator::run_action).
    const DataSchema& schema = b.program_->schema();
    for (std::size_t i = 0; i < schema.num_scalars(); ++i) {
      if (fpres[i] == 0) continue;
      if (w.frame_before.present[i] == 0 || w.frame_before.values[i] != fvals[i]) {
        ev->scalar_updates.push_back(ScalarUpdate{schema.scalar_names()[i], fvals[i]});
      }
    }
    for (const DataSchema::Table& table : schema.tables()) {
      for (std::uint32_t i = 0; i < table.size; ++i) {
        if (w.frame_before.values[table.base + i] != fvals[table.base + i]) {
          ev->table_updates.push_back(TableUpdate{
              table.name, static_cast<std::int64_t>(i), fvals[table.base + i]});
        }
      }
    }
  }

  void start_firing(TransitionId t) {
    const std::uint64_t firing_id = next_firing++;

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
      // Atomic firing: produce at the same instant. Statistics apply the
      // *net* per-place delta (StatCollector's kAtomic rule), computed
      // straight off the arc spans.
      for (const Arc& a : net.outputs(t)) {
        add_tokens(a.place, a.weight);
        mark_place_dirty(a.place);
        if (sink != nullptr) ev.produced.push_back(TokenDelta{a.place, a.weight});
      }
      completions[t.value] += 1;
      ++events_started;
      ++events_finished;
      ++w.starts[t.value];
      ++w.ends[t.value];
      const std::span<const Arc> ins = net.inputs(t);
      const std::span<const Arc> outs = net.outputs(t);
      for (const Arc& a : ins) {
        std::int64_t delta = -static_cast<std::int64_t>(a.weight);
        for (const Arc& p : outs) {
          if (p.place == a.place) delta += static_cast<std::int64_t>(p.weight);
        }
        w.place_acc[a.place.value].change(now, delta);
      }
      for (const Arc& p : outs) {
        bool consumed_too = false;
        for (const Arc& a : ins) consumed_too |= (a.place == p.place);
        if (!consumed_too) {
          w.place_acc[p.place.value].change(now, static_cast<std::int64_t>(p.weight));
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
    ++events_started;
    ++w.starts[t.value];
    w.trans_acc[t.value].change(now, +1);
    for (const Arc& a : net.inputs(t)) {
      w.place_acc[a.place.value].change(now, -static_cast<std::int64_t>(a.weight));
    }
    if (sink != nullptr) sink->event(ev);
    schedule(now + firing_time, EventKind::kFiringComplete, t.value, firing_id, 0);
  }

  void complete_firing(TransitionId t, std::uint64_t firing_id) {
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
      w.place_acc[a.place.value].change(now, static_cast<std::int64_t>(a.weight));
      if (sink != nullptr) ev.produced.push_back(TokenDelta{a.place, a.weight});
    }
    in_flight[t.value] -= 1;
    mark_dirty(t);
    completions[t.value] += 1;
    ++events_finished;
    ++w.ends[t.value];
    w.trans_acc[t.value].change(now, -1);
    if (sink != nullptr) sink->event(ev);
  }

  void fire_ready_transitions() {
    while (true) {
      // Gather the candidate list in ascending id order — the same order
      // Simulator builds its vectors in — so next_weighted sees the
      // identical span and draws identically.
      w.ready_ids.clear();
      w.weights.clear();
      for (std::size_t wi = 0; wi < w.ready_words.size(); ++wi) {
        std::uint64_t word = w.ready_words[wi];
        while (word != 0) {
          const std::uint32_t i =
              static_cast<std::uint32_t>(wi * 64) + std::countr_zero(word);
          word &= word - 1;
          w.ready_ids.push_back(i);
          w.weights.push_back(freq[i]);
        }
      }
      if (w.ready_ids.empty()) return;

      if (now != instant) {
        instant = now;
        immediate_this_instant = 0;
      }
      if (++immediate_this_instant > b.options_.max_immediate_firings_per_instant) {
        throw std::runtime_error(
            "Simulator: more than " +
            std::to_string(b.options_.max_immediate_firings_per_instant) +
            " firings at time " + std::to_string(now) +
            " — the net has a zero-delay livelock");
      }

      const std::size_t pick = rng.next_weighted(w.weights);
      const TransitionId chosen(w.ready_ids[pick]);

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

  void reset() {
    rng.reseed(b.seeds_[lane]);
    now = b.options_.start_time;

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

    w.heap.clear();
    const std::size_t words = (T + 63) / 64;
    w.dirty_words.assign(words, 0);
    w.ready_words.assign(words, 0);
    next_sequence = 0;
    next_firing = 0;
    immediate_this_instant = 0;
    instant = now;
    events_started = 0;
    events_finished = 0;

    // Native statistics "begin": StatCollector::begin against the lane's
    // (possibly patched) initial marking.
    w.place_acc.assign(b.num_places_, Acc{});
    for (std::size_t i = 0; i < b.num_places_; ++i) {
      Acc& acc = w.place_acc[i];
      acc.current = static_cast<std::int64_t>(marking[i]);
      acc.min = acc.max = acc.current;
      acc.last_change = now;
    }
    w.trans_acc.assign(T, Acc{});
    for (Acc& acc : w.trans_acc) acc.last_change = now;
    w.starts.assign(T, 0);
    w.ends.assign(T, 0);

    if (sink != nullptr) {
      TraceHeader header = TraceHeader::from_net(net.net(), now);
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

  void run_to(Time horizon) {
    const bool stoppable = b.options_.stop.possible();
    std::uint64_t events = 0;
    while (!w.heap.empty() && w.heap.front().time <= horizon) {
      // Cooperative stop: the StopError parks in this lane's error slot and
      // run() rethrows the lowest lane's, like any other lane failure.
      if (stoppable && (events++ % kStopCheckStride) == 0) {
        b.options_.stop.throw_if_stopped();
      }
      const Event ev = w.heap.front();
      std::pop_heap(w.heap.begin(), w.heap.end(), EventAfter{});
      w.heap.pop_back();

      if (ev.kind == EventKind::kEnablingExpiry) {
        if (generation[ev.transition] != ev.generation) continue;  // stale timer
        now = ev.time;
        ready_flag[ev.transition] = 1;
        ready_insert(ev.transition);
      } else {
        now = ev.time;
        complete_firing(TransitionId(ev.transition), ev.firing_id);
        refresh_eligibility();
      }
      fire_ready_transitions();
    }
    // The experiment's clock runs to the horizon even when deadlocked, so
    // statistics integrate over the full window (as in the scalar engine).
    if (horizon > now) now = horizon;
  }

  [[nodiscard]] bool deadlocked() const {
    for (std::size_t i = 0; i < b.num_transitions_; ++i) {
      if (in_flight[i] > 0) return false;
      if (ready_flag[i] && eligible[i]) return false;
    }
    return true;
  }

  /// StatCollector::end, byte for byte, into the lane's result slot.
  void finish() {
    b.now_[lane] = now;
    b.firing_starts_[lane] = next_firing;
    b.stop_[lane] = (w.heap.empty() && deadlocked()) ? StopReason::kDeadlock
                                                     : StopReason::kTimeLimit;
    if (sink != nullptr) sink->end(now);

    RunStats out;
    out.run_number = b.run_numbers_[lane];
    out.initial_clock = b.options_.start_time;
    out.length = now - b.options_.start_time;
    out.events_started = events_started;
    out.events_finished = events_finished;

    const double length = out.length;
    auto finalize = [&](Acc acc) {
      acc.settle(now);
      double avg = 0;
      double stddev = 0;
      if (length > 0) {
        avg = acc.weighted_sum / length;
        const double var = acc.weighted_sumsq / length - avg * avg;
        stddev = var > 0 ? std::sqrt(var) : 0;
      }
      return std::tuple<std::int64_t, std::int64_t, double, double>(acc.min, acc.max,
                                                                    avg, stddev);
    };

    out.places.reserve(b.num_places_);
    for (std::size_t i = 0; i < b.num_places_; ++i) {
      const auto [mn, mx, avg, sd] = finalize(w.place_acc[i]);
      PlaceStats p;
      p.name = net.place_name(PlaceId(static_cast<std::uint32_t>(i)));
      p.min_tokens = static_cast<TokenCount>(std::max<std::int64_t>(mn, 0));
      p.max_tokens = static_cast<TokenCount>(std::max<std::int64_t>(mx, 0));
      p.avg_tokens = avg;
      p.stddev_tokens = sd;
      out.places.push_back(std::move(p));
    }
    out.transitions.reserve(b.num_transitions_);
    for (std::size_t i = 0; i < b.num_transitions_; ++i) {
      const auto [mn, mx, avg, sd] = finalize(w.trans_acc[i]);
      TransitionStats t;
      t.name = net.transition_name(TransitionId(static_cast<std::uint32_t>(i)));
      t.min_concurrent = static_cast<std::uint32_t>(std::max<std::int64_t>(mn, 0));
      t.max_concurrent = static_cast<std::uint32_t>(std::max<std::int64_t>(mx, 0));
      t.avg_concurrent = avg;
      t.stddev_concurrent = sd;
      t.starts = w.starts[i];
      t.ends = w.ends[i];
      t.throughput = length > 0 ? static_cast<double>(w.ends[i]) / length : 0;
      out.transitions.push_back(std::move(t));
    }
    b.results_[lane] = std::move(out);
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

  // Same rule as the scalar engine: only nets with hooks carry data rows.
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
  const auto run_lane = [&](BatchWorker& w, std::size_t lane) {
    try {
      LaneRun r(*this, w, lane);
      r.reset();
      r.run_to(horizon);
      r.finish();
    } catch (...) {
      errors[lane] = std::current_exception();
    }
  };

  if (threads <= 1) {
    BatchWorker w;
    for (std::size_t lane = 0; lane < num_lanes_; ++lane) run_lane(w, lane);
  } else {
    // Work-stealing by atomic counter; lane k's state and result slots are
    // disjoint SoA rows, so the merged output is independent of scheduling.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
      pool.emplace_back([&] {
        BatchWorker w;
        while (true) {
          const std::size_t lane = next.fetch_add(1);
          if (lane >= num_lanes_) return;
          run_lane(w, lane);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }
  ran_ = true;

  // Every lane ran; surface the lowest-lane failure — the same exception a
  // sequential loop of scalar Simulators would have thrown first.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
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
