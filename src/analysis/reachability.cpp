#include "analysis/reachability.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "analysis/parallel_exploration.h"
#include "analysis/reach_encode.h"

namespace pnut::analysis {

using detail::overflows_capacity;

namespace {

ReachStatus stop_status(StopToken::Reason reason) {
  return reason == StopToken::Reason::kDeadline ? ReachStatus::kTimeout
                                                : ReachStatus::kCancelled;
}

}  // namespace

ReachabilityGraph::ReachabilityGraph(const Net& net, ReachOptions options)
    : ReachabilityGraph(CompiledNet::compile(net), options) {}

ReachabilityGraph::ReachabilityGraph(std::shared_ptr<const CompiledNet> net,
                                     ReachOptions options)
    : net_(std::move(net)) {
  if (!net_) throw std::invalid_argument("ReachabilityGraph: null CompiledNet");
  explore(options);
}

void ReachabilityGraph::explore(ReachOptions options) {
  unsigned threads = options.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  // Data words join the intern key only when an action can change them.
  track_data_ = net_->net_has_actions();
  if (net_->net_is_interpreted()) program_ = expr::NetProgram::compile(net_->net());

  if (threads > 1) {
    ParallelReachResult result =
        explore_reachability_parallel(net_, options, threads, program_);
    store_ = std::move(result.store);
    edges_ = std::move(result.edges);
    status_ = result.status;
    num_expanded_ = result.num_expanded;
    aux_peak_bytes_ = result.aux_peak_bytes;
    aux_spill_engaged_ = result.aux_spill_engaged;
    return;
  }
  explore_sequential(options);
}

void ReachabilityGraph::configure_spill_sequential(const ReachOptions& options) {
  if (options.spill.max_resident_bytes == 0) return;
  auto dir = std::make_shared<detail::SpillDir>(options.spill.dir);
  const std::size_t budget = options.spill.max_resident_bytes;
  store_.enable_spill(dir, "states.seg",
                      detail::segment_bytes_for(options.spill.segment_bytes, budget * 2 / 3),
                      budget * 2 / 3);
  edges_.enable_spill(std::move(dir), "edges.seg",
                      detail::segment_bytes_for(options.spill.segment_bytes, budget / 3),
                      budget / 3);
}

void ReachabilityGraph::explore_sequential(const ReachOptions& options) {
  const std::size_t num_places = net_->num_places();
  const std::size_t data_words = track_data_ ? program_->schema().encoded_words() : 0;
  const std::size_t width = num_places + data_words;
  store_ = StateStore(width);
  configure_spill_sequential(options);

  std::vector<std::uint32_t> scratch(width);
  DataFrame parent_frame;
  DataFrame cand_frame;
  expr::VmScratch vm;
  // Action-free nets read the fixed initial data (hook-free nets read none).
  const DataFrame& fixed_frame = program_ ? program_->initial_frame() : parent_frame;

  // Action-free nets have a constant data state, so each predicate has one
  // truth value per run: memoize it at its first evaluation (its first
  // enabled-by-tokens test, so an evaluation error surfaces there).
  std::vector<std::int8_t> pred_memo;
  if (!track_data_) pred_memo.assign(net_->num_transitions(), -1);
  const auto predicate_holds = [&](TransitionId t, const DataFrame& frame) {
    const expr::Code* code = program_ ? program_->predicate(t) : nullptr;
    if (code == nullptr) return true;
    if (!track_data_) {
      std::int8_t& memo = pred_memo[t.value];
      if (memo < 0) memo = expr::vm_eval(*code, frame, nullptr, vm) != 0 ? 1 : 0;
      return memo != 0;
    }
    return expr::vm_eval(*code, frame, nullptr, vm) != 0;
  };

  {
    const Marking initial = Marking::initial(net_->net());
    std::memcpy(scratch.data(), initial.tokens().data(),
                num_places * sizeof(std::uint32_t));
    if (track_data_) {
      program_->schema().encode(program_->initial_frame(), scratch.data() + num_places);
    }
    store_.intern(scratch);
  }

  Frontier frontier;
  frontier.push_back(0);

  // Reused outcome-dedup buffers (stochastic actions): distinct encoded
  // data words, first occurrence kept.
  std::vector<std::vector<std::uint32_t>> outcome_keys;
  std::size_t num_outcomes = 0;

  num_expanded_ = drive_frontier_bfs(frontier, edges_, [&](std::uint32_t state) {
    // Canonical-position stop poll: expansion order is canonical id order
    // in every engine (the parallel seal replays parents in this exact
    // order), so a stop here lands on the same state at any thread count.
    if (state % kStopCheckStride == 0) {
      if (const StopToken::Reason r = options.stop.poll(); r != StopToken::Reason::kNone) {
        status_ = stop_status(r);
        return false;
      }
    }
    // States before the BFS cursor are sealed; their segments may spill.
    store_.set_spill_floor(state);
    // Copies: interning may grow the arena while we expand.
    std::copy(store_.state(state).begin(), store_.state(state).end(), scratch.begin());
    if (track_data_) program_->schema().decode(scratch.data() + num_places, parent_frame);
    const DataFrame& frame = track_data_ ? parent_frame : fixed_frame;
    const std::span<const TokenCount> tokens(scratch.data(), num_places);

    for (std::uint32_t ti = 0; ti < net_->num_transitions(); ++ti) {
      const TransitionId t(ti);
      if (!net_->tokens_available(tokens, t)) continue;
      if (!predicate_holds(t, frame)) continue;
      if (options.respect_capacities && overflows_capacity(*net_, tokens, t)) continue;

      // Fire in place (enablement guarantees no underflow; a deposit past
      // UINT32_MAX throws instead of wrapping); undone below.
      for (const Arc& a : net_->inputs(t)) scratch[a.place.value] -= a.weight;
      for (const Arc& a : net_->outputs(t)) {
        add_tokens_checked(scratch[a.place.value], a.place, a.weight);
      }

      // Boundedness: only output places can newly exceed the bound — every
      // interned state already passed this check — except when expanding
      // the initial state, whose marking is the model's to declare.
      bool over = false;
      if (state == 0) {
        for (std::size_t i = 0; i < num_places; ++i) over |= scratch[i] > options.place_bound;
      } else {
        for (const Arc& a : net_->outputs(t)) {
          over |= scratch[a.place.value] > options.place_bound;
        }
      }
      if (over) {
        status_ = ReachStatus::kUnbounded;
        return false;
      }

      if (!net_->has_action(t)) {
        // Deterministic data: the parent's data words are still in scratch.
        const auto interned = store_.intern(scratch);
        edges_.add(Edge{t, interned.index});
        if (interned.inserted) {
          if (store_.size() > options.max_states) {
            status_ = ReachStatus::kTruncated;
            return false;
          }
          frontier.push_back(interned.index);
        }
      } else {
        num_outcomes = 0;
        const std::size_t samples = std::max<std::size_t>(options.irand_fanout_limit, 1);
        for (std::size_t k = 0; k < samples; ++k) {
          cand_frame.assign(parent_frame);
          Rng rng(detail::action_sample_seed(state, ti, k));
          expr::vm_exec(*program_->action(t), cand_frame, &rng, vm);
          if (outcome_keys.size() <= num_outcomes) outcome_keys.emplace_back();
          std::vector<std::uint32_t>& key = outcome_keys[num_outcomes];
          key.resize(data_words);
          program_->schema().encode(cand_frame, key.data());
          bool seen = false;
          for (std::size_t i = 0; i < num_outcomes && !seen; ++i) {
            seen = outcome_keys[i] == key;
          }
          if (!seen) ++num_outcomes;
        }

        for (std::size_t i = 0; i < num_outcomes; ++i) {
          std::memcpy(scratch.data() + num_places, outcome_keys[i].data(),
                      data_words * sizeof(std::uint32_t));
          const auto interned = store_.intern(scratch);
          edges_.add(Edge{t, interned.index});
          if (interned.inserted) {
            if (store_.size() > options.max_states) {
              status_ = ReachStatus::kTruncated;
              return false;
            }
            frontier.push_back(interned.index);
          }
        }
        // Restore the parent's data words for the next transition.
        std::memcpy(scratch.data() + num_places, store_.state(state).data() + num_places,
                    data_words * sizeof(std::uint32_t));
      }

      // Undo the firing.
      for (const Arc& a : net_->outputs(t)) scratch[a.place.value] -= a.weight;
      for (const Arc& a : net_->inputs(t)) scratch[a.place.value] += a.weight;
    }
    return true;
  });

  edges_.finalize(store_.size());
}

std::int64_t ReachabilityGraph::transition_activity(std::size_t state, TransitionId t) const {
  if (!net_->tokens_available(tokens(state), t)) return 0;
  const expr::Code* predicate = program_ ? program_->predicate(t) : nullptr;
  if (predicate == nullptr) return 1;
  // The shared frame/scratch are the only mutable state on this const
  // path; serialize them so cached graphs take concurrent queries.
  std::lock_guard<std::mutex> lock(query_mutex_);
  if (!track_data_) {
    return expr::vm_eval(*predicate, program_->initial_frame(), nullptr, query_scratch_) != 0
               ? 1
               : 0;
  }
  program_->schema().decode(store_.state(state).data() + net_->num_places(), query_frame_);
  return expr::vm_eval(*predicate, query_frame_, nullptr, query_scratch_) != 0 ? 1 : 0;
}

std::optional<std::int64_t> ReachabilityGraph::variable(std::size_t state,
                                                        std::string_view name) const {
  if (track_data_) {
    // Per-state data lives as encoded slot words in the arena; read the
    // one scalar straight out of the state's word block.
    const auto slot = program_->schema().scalar_slot(name);
    if (!slot) return std::nullopt;
    return program_->schema().decode_scalar(
        store_.state(state).data() + net_->num_places(), *slot);
  }
  const DataContext& d = net_->net().initial_data();
  if (d.has(name)) return d.get(name);
  return std::nullopt;
}

std::vector<std::size_t> ReachabilityGraph::successors(std::size_t state) const {
  const auto out = edges_.out(state);
  std::vector<std::size_t> result;
  result.reserve(out.size());
  for (const Edge& e : out) result.push_back(e.target);
  return result;
}

void ReachabilityGraph::successor_rows(std::vector<std::size_t>& offsets,
                                       std::vector<std::uint32_t>& targets) const {
  const std::size_t n = num_states();
  offsets.resize(n + 1);
  targets.clear();
  targets.reserve(edges_.num_edges());
  for (std::size_t i = 0; i < n; ++i) {
    offsets[i] = targets.size();
    for (const Edge& e : edges_.out(i)) targets.push_back(e.target);
  }
  offsets[n] = targets.size();
}

std::size_t ReachabilityGraph::memory_bytes() const {
  return store_.memory_bytes() + edges_.memory_bytes();
}

std::vector<std::size_t> ReachabilityGraph::deadlock_states() const {
  std::vector<std::size_t> out;
  // Only the expanded prefix: a frontier leftover's empty row says
  // "unexplored", not "stuck".
  for (std::size_t s = 0; s < num_expanded_; ++s) {
    if (edges_.out_degree(s) == 0) out.push_back(s);
  }
  return out;
}

TokenCount ReachabilityGraph::place_bound(PlaceId p) const {
  // Streaming arena scan: ascending ids fault each spilled segment once.
  TokenCount bound = 0;
  store_.for_each_state(0, store_.size(),
                        [&](std::size_t, std::span<const std::uint32_t> words) {
                          bound = std::max(bound, static_cast<TokenCount>(words[p.value]));
                        });
  return bound;
}

std::vector<TransitionId> ReachabilityGraph::dead_transitions() const {
  std::vector<bool> fired(net_->num_transitions(), false);
  // One streaming pass over the edge rows in source (= pool) order.
  edges_.for_each_row([&](std::size_t, std::span<const Edge> row) {
    for (const Edge& e : row) fired[e.transition.value] = true;
  });
  std::vector<TransitionId> out;
  for (std::uint32_t i = 0; i < fired.size(); ++i) {
    if (!fired[i]) out.push_back(TransitionId(i));
  }
  return out;
}

bool ReachabilityGraph::is_reversible() const {
  // Backward BFS from state 0 over a counting-sorted reverse CSR.
  const std::size_t n = store_.size();
  std::vector<std::uint32_t> in_off(n + 1, 0);
  // Two streaming passes over the edge rows (count, then fill): the
  // backward BFS below runs entirely on the reverse CSR, so a spilled edge
  // pool is faulted in exactly twice, in order, and never held resident.
  edges_.for_each_row([&](std::size_t, std::span<const Edge> row) {
    for (const Edge& e : row) ++in_off[e.target + 1];
  });
  for (std::size_t i = 1; i <= n; ++i) in_off[i] += in_off[i - 1];
  std::vector<std::uint32_t> pred(edges_.num_edges());
  {
    std::vector<std::uint32_t> cursor(in_off.begin(), in_off.end() - 1);
    for (std::size_t s = 0; s < n; ++s) {
      for (const Edge& e : edges_.out(s)) {
        pred[cursor[e.target]++] = static_cast<std::uint32_t>(s);
      }
    }
  }

  std::vector<std::uint8_t> can_reach_initial(n, 0);
  std::vector<std::uint32_t> stack{0};
  can_reach_initial[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const std::uint32_t s = stack.back();
    stack.pop_back();
    for (std::uint32_t i = in_off[s]; i < in_off[s + 1]; ++i) {
      const std::uint32_t p = pred[i];
      if (!can_reach_initial[p]) {
        can_reach_initial[p] = 1;
        ++reached;
        stack.push_back(p);
      }
    }
  }
  if (reached == n) return true;
  // Truncation honesty: only expanded states count against reversibility —
  // a frontier leftover's onward edges are unknown, so its failure to
  // reach the initial state within the prefix proves nothing.
  for (std::size_t s = 0; s < num_expanded_; ++s) {
    if (!can_reach_initial[s]) return false;
  }
  return true;
}

}  // namespace pnut::analysis
