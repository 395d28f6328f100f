// The exploration core shared by the two reachability graphs: the CSR edge
// pool, the frontier-BFS driver, the spill setup, and ExploredGraph, the
// storage and queries both graph classes carry.
//
// The untimed builder (reachability.cpp) runs drive_frontier_bfs: intern the
// initial state into a StateStore, then repeatedly pop an unexpanded state
// from a FIFO Frontier, enumerate its successor states (interning each), and
// record the edges. The timed builder (timed_reachability.cpp) runs its 0-1
// BFS on a two-bucket scheduler instead (detail::TimedSchedule in
// timed_encode.h), over the same StateStore and EdgeCsr.
//
// Edges are stored in CSR form as they are produced: each state is expanded
// exactly once, so all of its out-edges land contiguously in one pool and
// the per-state row is just (first, count) — no per-state edge vector.
// Whole-graph scans (dead transitions, reversibility) stream the rows in
// source order via for_each_row().
//
// Out-of-core mode (enable_spill): the pool becomes a SegmentedStore
// (spill.h). `first_` then holds *virtual* offsets (segment << shift |
// position); a row never straddles a segment boundary — the open row is
// relocated to a fresh segment instead, leaving a zero-filled hole at the
// old segment's tail — so out(s) is always one contiguous span whether the
// row is heap-resident or faulted in from the spill file. Sealed segments
// (everything before the open row) spill once the resident set exceeds the
// budget; nothing is ever rewritten.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/spill.h"
#include "analysis/state_store.h"
#include "petri/compiled_net.h"
#include "petri/marking.h"
#include "util/stop.h"

namespace pnut::analysis {

/// How a graph build ended. Only the untimed graph reports kUnbounded.
enum class ReachStatus : std::uint8_t {
  kComplete,
  kTruncated,
  kUnbounded,
  kTimeout,    ///< stopped by the options' StopToken deadline
  kCancelled,  ///< stopped by an explicit cancel on the options' StopToken
};

namespace detail {

/// Poll `stop` once: the status a build stops with, or nullopt to go on.
/// Each builder decides itself when a poll is due.
[[nodiscard]] inline std::optional<ReachStatus> stop_status(const StopToken& stop) {
  const StopToken::Reason reason = stop.poll();
  if (reason == StopToken::Reason::kNone) return std::nullopt;
  return reason == StopToken::Reason::kDeadline ? ReachStatus::kTimeout
                                                : ReachStatus::kCancelled;
}

}  // namespace detail

/// CSR out-edge storage, filled one source row at a time.
template <typename EdgeT>
class EdgeCsr {
 public:
  /// Switch the pool to the segmented spillable layout. Call while empty.
  void enable_spill(std::shared_ptr<detail::SpillDir> dir, const std::string& name,
                    std::size_t segment_bytes, std::size_t budget_bytes) {
    std::size_t eps = 1;
    std::size_t shift = 0;
    while (eps * 2 * sizeof(EdgeT) <= segment_bytes) {
      eps *= 2;
      ++shift;
    }
    eshift_ = shift;
    emask_ = eps - 1;
    pool_.configure_spill(std::move(dir), name, eps, budget_bytes);
  }

  /// Open state `s`'s row; all add() calls until the next begin_source()
  /// append to it. Each source may be opened at most once.
  void begin_source(std::uint32_t s) {
    if (first_.size() <= s) {
      first_.resize(s + 1, 0);
      count_.resize(s + 1, 0);
    }
    first_[s] = static_cast<std::uint32_t>(virtual_tail());
    current_ = s;
    // Everything before the open row is sealed and may spill.
    if (pool_.segmented()) pool_.set_floor_seg(pool_.tail_seg());
  }

  void add(const EdgeT& edge) {
    if (pool_.segmented()) {
      const std::uint32_t n = count_[current_];
      // The next edge would start a new segment: relocate the open row so
      // it stays contiguous (rows never straddle segment boundaries).
      if (n > 0 && (((static_cast<std::size_t>(first_[current_]) + n) & emask_) == 0)) {
        relocate_open_row(n);
      }
    }
    if (virtual_tail() >= UINT32_MAX) {
      throw std::length_error("EdgeCsr: edge offset space exhausted");
    }
    *pool_.extend(1) = edge;
    ++count_[current_];
    ++num_edges_;
  }

  /// Size the row tables to the final state count (states never expanded —
  /// frontier leftovers after truncation — get empty rows).
  void finalize(std::size_t num_states) {
    first_.resize(num_states, 0);
    count_.resize(num_states, 0);
  }

  [[nodiscard]] std::span<const EdgeT> out(std::size_t s) const {
    const std::uint32_t n = count_[s];
    if (n == 0) return {};  // never fault a segment in for an empty row
    if (!pool_.segmented()) return {pool_.flat_at(first_[s]), n};
    return {pool_.at(first_[s] >> eshift_, first_[s] & emask_), n};
  }

  [[nodiscard]] std::size_t out_degree(std::size_t s) const { return count_[s]; }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Stream every row in source order: fn(source, span<const EdgeT>).
  /// Ascending source order is ascending pool order, so a spilled pool
  /// faults each segment in exactly once per scan.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    for (std::size_t s = 0; s < first_.size(); ++s) fn(s, out(s));
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    return pool_.resident_bytes() +
           (first_.capacity() + count_.capacity()) * sizeof(std::uint32_t);
  }
  [[nodiscard]] std::size_t spilled_bytes() const { return pool_.spilled_bytes(); }
  [[nodiscard]] std::size_t peak_resident_bytes() const {
    return pool_.peak_resident_bytes() +
           (first_.capacity() + count_.capacity()) * sizeof(std::uint32_t);
  }
  [[nodiscard]] bool spill_engaged() const { return pool_.engaged(); }

 private:
  /// Next append position in the 32-bit (virtual, in spill mode) offset
  /// space `first_` indexes into.
  [[nodiscard]] std::size_t virtual_tail() const {
    if (!pool_.segmented()) return pool_.virtual_size();
    return (pool_.tail_seg() << eshift_) | pool_.tail_pos();
  }

  /// Move the open row (n edges so far) to a fresh segment so the next add
  /// keeps it contiguous. The old copy becomes an unreferenced hole.
  void relocate_open_row(std::uint32_t n) {
    if (static_cast<std::size_t>(n) + 1 > pool_.items_per_segment()) {
      throw std::length_error("EdgeCsr: row exceeds spill segment capacity");
    }
    const std::uint32_t v = first_[current_];
    // The open row's segment sits at the spill floor, so `old` stays
    // heap-resident (and stable) across the pad and the new allocation.
    const EdgeT* old = pool_.at(v >> eshift_, v & emask_);
    pool_.pad_to_boundary();
    if (virtual_tail() + n >= UINT32_MAX) {
      throw std::length_error("EdgeCsr: edge offset space exhausted");
    }
    first_[current_] = static_cast<std::uint32_t>(virtual_tail());
    EdgeT* fresh = pool_.extend(n);
    std::copy_n(old, n, fresh);
    // The old segment no longer holds live row data; let it spill.
    pool_.set_floor_seg(first_[current_] >> eshift_);
  }

  detail::SegmentedStore<EdgeT> pool_;
  std::vector<std::uint32_t> first_, count_;
  std::size_t eshift_ = 0;
  std::size_t emask_ = 0;
  std::size_t num_edges_ = 0;
  std::uint32_t current_ = 0;
};

/// FIFO queue of state indices with an expanded bitmap. A flat vector with
/// a read cursor, not a deque: nothing is ever logically removed (the
/// bitmap does the deduplication), and BFS pushes each state about once, so
/// the retained tail costs ~4 bytes/state against the arena's hundreds.
class Frontier {
 public:
  void push_back(std::uint32_t s) { queue_.push_back(s); }

  [[nodiscard]] bool expanded(std::uint32_t s) const {
    return s < expanded_.size() && expanded_[s] != 0;
  }

  /// Pop the next not-yet-expanded state and mark it expanded; nullopt when
  /// the frontier is exhausted. (A state may be pushed once per discovered
  /// edge; duplicates are skipped here.)
  std::optional<std::uint32_t> pop_unexpanded() {
    while (head_ < queue_.size()) {
      const std::uint32_t s = queue_[head_++];
      if (expanded(s)) continue;
      if (expanded_.size() <= s) expanded_.resize(s + 1, 0);
      expanded_[s] = 1;
      return s;
    }
    return std::nullopt;
  }

 private:
  std::vector<std::uint32_t> queue_;
  std::size_t head_ = 0;
  std::vector<std::uint8_t> expanded_;
};

/// The common driver: expand frontier states in order, opening each state's
/// CSR edge row first. `expand(s)` enumerates successors (interning states,
/// adding edges, pushing newly discovered states); returning false stops
/// the whole exploration (state cap hit, unbounded place found).
///
/// Returns the number of states whose expansion ran to completion — the
/// state whose expand() returned false has only a partial edge row, and
/// states still on the frontier have none at all. Graph queries use this to
/// avoid reporting never-expanded truncation leftovers as deadlocks.
template <typename EdgeT, typename ExpandFn>
std::size_t drive_frontier_bfs(Frontier& frontier, EdgeCsr<EdgeT>& edges,
                               ExpandFn&& expand) {
  std::size_t completed = 0;
  while (const std::optional<std::uint32_t> s = frontier.pop_unexpanded()) {
    edges.begin_source(*s);
    if (!expand(*s)) return completed;
    ++completed;
  }
  return completed;
}

/// Spill setup for the graph builders: one shared SpillDir, 2/3 of the
/// budget to the state arena and 1/3 to the edge pool. No-op when spilling
/// is disabled.
template <typename EdgeT>
void enable_graph_spill(const SpillOptions& spill, StateStore& store, EdgeCsr<EdgeT>& edges) {
  if (spill.max_resident_bytes == 0) return;
  auto dir = std::make_shared<detail::SpillDir>(spill.dir);
  const std::size_t budget = spill.max_resident_bytes;
  store.enable_spill(dir, "states.seg",
                     detail::segment_bytes_for(spill.segment_bytes, budget * 2 / 3),
                     budget * 2 / 3);
  edges.enable_spill(std::move(dir), "edges.seg",
                     detail::segment_bytes_for(spill.segment_bytes, budget / 3), budget / 3);
}

/// What both reachability graphs hold — the compiled net, the build
/// status, the interned states, the edge pool and the expanded count — and
/// the queries they answer alike. `Graph` (the derived class) supplies
/// state_expanded(), the one rule that differs: the untimed graph expands
/// in id order, the timed graph does not.
template <typename Graph, typename EdgeT>
class ExploredGraph {
 public:
  [[nodiscard]] ReachStatus status() const { return status_; }
  /// True when the build was stopped by its StopToken (deadline or cancel);
  /// such a graph is a valid truncated prefix but must never be cached.
  [[nodiscard]] bool stopped() const {
    return status_ == ReachStatus::kTimeout || status_ == ReachStatus::kCancelled;
  }

  [[nodiscard]] std::size_t num_states() const { return store_.size(); }
  /// Token counts of `state` as an arena slice (the first num_places words).
  [[nodiscard]] std::span<const TokenCount> tokens(std::size_t state) const {
    return store_.state(state).first(net_->num_places());
  }
  /// Materialized copy of the state's marking (decoded from the arena).
  [[nodiscard]] Marking marking(std::size_t state) const {
    return Marking::from_tokens(tokens(state));
  }
  [[nodiscard]] std::span<const EdgeT> edges(std::size_t state) const {
    return edges_.out(state);
  }
  [[nodiscard]] std::size_t num_edges() const { return edges_.num_edges(); }
  /// Number of fully expanded states (== num_states() iff kComplete).
  [[nodiscard]] std::size_t num_expanded() const { return num_expanded_; }

  /// Fully-expanded states with no outgoing edges. Never-expanded
  /// truncation leftovers are excluded — their empty (or, for the stopping
  /// state, partial) edge rows mean "unexplored", not "stuck".
  [[nodiscard]] std::vector<std::size_t> deadlock_states() const {
    const Graph& graph = static_cast<const Graph&>(*this);
    std::vector<std::size_t> out;
    for (std::size_t s = 0; s < store_.size(); ++s) {
      if (edges_.out_degree(s) == 0 && graph.state_expanded(s)) out.push_back(s);
    }
    return out;
  }

  /// Heap footprint of the graph: arena + intern table + edge pool. In
  /// spill mode this is the exact *resident* footprint — spilled segments
  /// are counted by spilled_bytes() instead. The bench reports this as
  /// bytes/state, and the serve graph cache budgets by it.
  [[nodiscard]] std::size_t memory_bytes() const {
    return store_.memory_bytes() + edges_.memory_bytes();
  }
  /// True if the build (or a query since) actually wrote segments to disk.
  [[nodiscard]] bool spill_engaged() const {
    return store_.spill_engaged() || edges_.spill_engaged();
  }
  /// Bytes currently held in spill segment files (states + edges).
  [[nodiscard]] std::size_t spilled_bytes() const {
    return store_.spilled_bytes() + edges_.spilled_bytes();
  }
  /// High-water resident footprint across the build and all queries.
  [[nodiscard]] std::size_t peak_resident_bytes() const {
    return store_.peak_resident_bytes() + edges_.peak_resident_bytes();
  }

 protected:
  /// `owner` names the graph class in the null-net error.
  ExploredGraph(std::shared_ptr<const CompiledNet> net, const char* owner)
      : net_(std::move(net)) {
    if (!net_) throw std::invalid_argument(std::string(owner) + ": null CompiledNet");
  }

  std::shared_ptr<const CompiledNet> net_;
  ReachStatus status_ = ReachStatus::kComplete;
  StateStore store_;
  EdgeCsr<EdgeT> edges_;
  std::size_t num_expanded_ = 0;  ///< fully expanded states
};

}  // namespace pnut::analysis
