#include "analysis/reachability.h"

#include <algorithm>

#include "analysis/reach_encode.h"

namespace pnut::analysis {

ReachabilityGraph::ReachabilityGraph(const Net& net, ReachOptions options)
    : ReachabilityGraph(CompiledNet::compile(net), options) {}

ReachabilityGraph::ReachabilityGraph(std::shared_ptr<const CompiledNet> net,
                                     ReachOptions options)
    : ExploredGraph(std::move(net), "ReachabilityGraph") {
  explore(options);
}

void ReachabilityGraph::explore(const ReachOptions& options) {
  // Data words join the intern key only when an action can change them.
  track_data_ = net_->net_has_actions();
  if (net_->net_is_interpreted()) program_ = expr::NetProgram::compile(net_->net());

  detail::ReachKernel kernel(*net_, options, program_.get());
  store_ = StateStore(kernel.width());
  enable_graph_spill(options.spill, store_, edges_);
  store_.intern(kernel.initial_state());

  Frontier frontier;
  frontier.push_back(0);
  num_expanded_ = drive_frontier_bfs(frontier, edges_, [&](std::uint32_t state) {
    // Stop poll at a fixed expansion position.
    if (const auto stop = detail::poll_stop(options.stop, state)) {
      status_ = *stop;
      return false;
    }
    // States before the BFS cursor are sealed; their segments may spill.
    store_.set_spill_floor(state);
    // The kernel copies the parent's words first: interning may grow the
    // arena under the span.
    const auto expansion = kernel.expand(
        state, store_.state(state), [&](TransitionId t, std::span<const std::uint32_t> succ) {
          const auto interned = store_.intern(succ);
          edges_.add(Edge{t, interned.index});
          if (interned.inserted) {
            if (store_.size() > options.max_states) {
              status_ = ReachStatus::kTruncated;
              return false;
            }
            frontier.push_back(interned.index);
          }
          return true;
        });
    if (expansion == detail::ReachKernel::Expansion::kOverBound) {
      status_ = ReachStatus::kUnbounded;
    }
    return expansion == detail::ReachKernel::Expansion::kComplete;
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
