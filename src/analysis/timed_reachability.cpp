#include "analysis/timed_reachability.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/timed_encode.h"

namespace pnut::analysis {

TimedReachabilityGraph::TimedReachabilityGraph(const Net& net, TimedReachOptions options)
    : TimedReachabilityGraph(CompiledNet::compile(net), options) {}

TimedReachabilityGraph::TimedReachabilityGraph(std::shared_ptr<const CompiledNet> net,
                                               TimedReachOptions options)
    : net_(std::move(net)) {
  if (!net_) throw std::invalid_argument("TimedReachabilityGraph: null CompiledNet");
  explore(options);
}

// The timed graph is a 0-1 BFS: firing edges cost 0 ticks, the tick edge
// costs 1. It runs on a two-bucket FIFO scheduler (detail::TimedSchedule —
// not a deque with push_front), so canonical state ids are its discovery
// order.
void TimedReachabilityGraph::explore(const TimedReachOptions& options) {
  const CompiledNet& net = *net_;
  const detail::TimedLayout layout = detail::TimedLayout::build(net);

  store_ = StateStore(layout.width());
  enable_graph_spill(options.spill, store_, edges_);
  detail::TimedKernel kernel(net, layout);
  store_.intern(kernel.initial_state());

  detail::TimedSchedule schedule;
  schedule.bootstrap();
  bool stopped = false;

  for (std::size_t head = 0; !stopped;) {
    if (head == schedule.current.size()) {
      if (!schedule.advance_tick()) break;
      head = 0;
    }
    const std::uint32_t si = schedule.current[head++];
    // Everything before the expanding state is sealed. The pending list is
    // not monotone (promotions re-enter states from the previous instant),
    // so a later pop may fault a just-spilled segment back in — harmless:
    // the builder reads single-threaded and tolerates fault-in everywhere.
    store_.set_spill_floor(si);
    edges_.begin_source(si);
    // Canonical-position stop poll, via the schedule's counter. The
    // stopping state's row is opened and left empty, and it stays unmarked
    // in expanded_.
    if (schedule.stopped_by(options.stop)) {
      stopped = true;
      continue;
    }
    // The kernel copies the parent's words first: interning may grow the
    // arena under the span.
    const bool completed = kernel.expand(
        store_.state(si), [&](std::optional<TransitionId> label,
                              std::span<const std::uint32_t> succ, std::uint64_t cost) {
          const auto interned = store_.intern(succ);
          edges_.add(Edge{label, interned.index});
          return schedule.record(interned.index, interned.inserted, cost, store_.size(),
                                 options);
        });
    if (!completed) {
      stopped = true;  // max_states: keep the prefix, si's row stays partial
    } else {
      schedule.expanded[si] = 1;
    }
  }

  status_ = schedule.status;
  earliest_time_ = std::move(schedule.earliest_time);
  expanded_ = std::move(schedule.expanded);
  edges_.finalize(store_.size());
  expanded_.resize(store_.size(), 0);
  for (const std::uint8_t e : expanded_) num_expanded_ += e;
}

std::optional<TimedReachabilityGraph::TimeBounds> TimedReachabilityGraph::time_bounds(
    const std::function<bool(const Marking&)>& predicate) const {
  const std::size_t n = num_states();
  std::vector<char> hit(n, 0);
  bool any = false;
  for (std::size_t s = 0; s < n; ++s) {
    hit[s] = predicate(marking(s)) ? 1 : 0;
    any |= (hit[s] != 0);
  }
  if (!any) return std::nullopt;

  TimeBounds bounds;
  bounds.earliest = UINT64_MAX;
  for (std::size_t s = 0; s < n; ++s) {
    if (hit[s] && earliest_time_[s] < bounds.earliest) {
      bounds.earliest = earliest_time_[s];
    }
  }
  if (bounds.earliest == UINT64_MAX) return std::nullopt;  // unreachable hits

  // Worst-case first-hit from state 0: longest path through non-hit states.
  // Colors: 0 unvisited, 1 on stack, 2 done. A cycle or dead end among
  // non-hit states means some run avoids the predicate forever -> saturate.
  std::vector<std::uint64_t> worst(n, 0);
  std::vector<std::uint8_t> color(n, 0);
  bool unbounded = false;

  // Iterative DFS.
  struct Frame {
    std::size_t state;
    std::size_t edge = 0;
  };
  std::vector<Frame> stack;
  if (hit[0]) return TimeBounds{bounds.earliest, 0};
  stack.push_back(Frame{0});
  color[0] = 1;
  while (!stack.empty() && !unbounded) {
    Frame& frame = stack.back();
    const std::size_t s = frame.state;
    if (expanded_[s] == 0) {
      // Truncation leftover: the path continues beyond the explored region
      // without hitting the predicate — no finite bound can be claimed.
      unbounded = true;
      break;
    }
    const auto out_edges = edges_.out(s);
    if (out_edges.empty()) {
      // Timed deadlock without hitting the predicate: avoided forever.
      unbounded = true;
      break;
    }
    if (frame.edge < out_edges.size()) {
      const Edge& e = out_edges[frame.edge++];
      const std::uint64_t cost = e.transition ? 0 : 1;
      if (hit[e.target]) {
        worst[s] = std::max(worst[s], cost);
        continue;
      }
      if (color[e.target] == 1) {
        unbounded = true;  // cycle avoiding the predicate
        break;
      }
      if (color[e.target] == 0) {
        color[e.target] = 1;
        stack.push_back(Frame{e.target});
      } else {
        worst[s] = std::max(worst[s], cost + worst[e.target]);
      }
    } else {
      color[s] = 2;
      stack.pop_back();
      if (!stack.empty()) {
        Frame& parent = stack.back();
        const Edge& e = edges_.out(parent.state)[parent.edge - 1];
        const std::uint64_t cost = e.transition ? 0 : 1;
        worst[parent.state] = std::max(worst[parent.state], cost + worst[s]);
      }
    }
  }
  bounds.latest = unbounded ? UINT64_MAX : worst[0];
  return bounds;
}

std::vector<std::size_t> TimedReachabilityGraph::deadlock_states() const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < store_.size(); ++s) {
    if (expanded_[s] != 0 && edges_.out_degree(s) == 0) out.push_back(s);
  }
  return out;
}

}  // namespace pnut::analysis
