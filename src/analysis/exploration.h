// The frontier-BFS exploration driver shared by the graph analyzers.
//
// Both reachability builders follow the same outline: intern the initial
// state into a StateStore, then repeatedly pop an unexpanded state from a
// frontier deque, enumerate its successor states (interning each), and
// record the edges. What differs is only the successor rule — untimed
// firing vs. timed firing-or-tick — so that rule is the one callback
// (`expand`) the driver takes.
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
// (everything before the open row / the current level) spill once the
// resident set exceeds the budget; nothing is ever rewritten.
//
// The frontier is plain FIFO BFS. The untimed reachability builder and the
// trace state space run on it; the timed graph's 0-1 BFS uses a
// two-bucket scheduler instead (detail::TimedSchedule in timed_encode.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/spill.h"
#include "analysis/state_store.h"

namespace pnut::analysis {

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

  /// Bulk row appending for stitched parallel segments: open rows for
  /// states [first_state, first_state + counts.size()) where row r holds
  /// counts[r] edges and grow the pool by the total (plus any segment-
  /// boundary padding in spill mode). The caller fills the rows through
  /// mutable_row() — from several threads if it likes; the row bookkeeping
  /// is already done. Throws std::length_error — before touching any
  /// table, so the CSR stays valid — if the pool would outgrow the 32-bit
  /// (virtual) offset space or a row cannot fit in one segment.
  void append_rows(std::uint32_t first_state, std::span<const std::uint32_t> counts) {
    // Plan the final virtual tail, padding included, before any mutation.
    const std::size_t eps = pool_.segmented() ? pool_.items_per_segment() : 0;
    std::size_t vtail = virtual_tail();
    for (const std::uint32_t c : counts) {
      if (eps != 0) {
        if (c > eps) {
          throw std::length_error("EdgeCsr: row exceeds spill segment capacity");
        }
        const std::size_t space = eps - (vtail & emask_);
        if (c > space) vtail += space;  // boundary padding
      }
      vtail += c;
    }
    if (vtail > UINT32_MAX) {
      throw std::length_error("EdgeCsr: edge offset space exhausted");
    }

    if (first_.size() < first_state) {
      first_.resize(first_state, 0);
      count_.resize(first_state, 0);
    }
    // This level's rows must stay heap-resident until the caller has
    // filled them; only segments before the pre-append tail may spill.
    if (eps != 0) pool_.set_floor_seg(pool_.tail_seg());
    std::size_t total = 0;
    for (const std::uint32_t c : counts) {
      if (eps != 0 && c > pool_.room()) pool_.pad_to_boundary();
      first_.push_back(static_cast<std::uint32_t>(virtual_tail()));
      count_.push_back(c);
      pool_.extend(c);
      total += c;
    }
    num_edges_ += total;
  }

  [[nodiscard]] std::span<const EdgeT> out(std::size_t s) const {
    const std::uint32_t n = count_[s];
    if (n == 0) return {};  // never fault a segment in for an empty row
    if (!pool_.segmented()) return {pool_.flat_at(first_[s]), n};
    return {pool_.at(first_[s] >> eshift_, first_[s] & emask_), n};
  }

  /// Mutable view of a row appended by append_rows, for the caller's fill
  /// pass. The row's segment is still heap-resident (append_rows keeps the
  /// current level above the spill floor), so concurrent fills of distinct
  /// rows are safe.
  [[nodiscard]] std::span<EdgeT> mutable_row(std::size_t s) {
    const std::uint32_t n = count_[s];
    if (n == 0) return {};
    if (!pool_.segmented()) return {pool_.flat_mutable_at(first_[s]), n};
    return {pool_.mutable_at(first_[s] >> eshift_, first_[s] & emask_), n};
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

  /// Pre-size the pool and row tables (the parallel seal pass knows each
  /// level's edge and state counts before stitching it in). Grows
  /// geometrically: repeated slightly-larger reserves must not degrade
  /// into a full realloc+copy per call.
  void reserve(std::size_t edges, std::size_t states) {
    pool_.reserve(edges);
    if (states > first_.capacity()) {
      first_.reserve(std::max(states, first_.capacity() * 2));
      count_.reserve(std::max(states, count_.capacity() * 2));
    }
  }

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

/// Spill setup for the one-thread builders: one shared SpillDir, 2/3 of the
/// budget to the state arena and 1/3 to the edge pool. (The parallel
/// untimed engine splits its budget three ways; see level_engine.h.)
/// No-op when spilling is disabled.
template <typename EdgeT>
void enable_sequential_spill(const SpillOptions& spill, StateStore& store,
                             EdgeCsr<EdgeT>& edges) {
  if (spill.max_resident_bytes == 0) return;
  auto dir = std::make_shared<detail::SpillDir>(spill.dir);
  const std::size_t budget = spill.max_resident_bytes;
  store.enable_spill(dir, "states.seg",
                     detail::segment_bytes_for(spill.segment_bytes, budget * 2 / 3),
                     budget * 2 / 3);
  edges.enable_spill(std::move(dir), "edges.seg",
                     detail::segment_bytes_for(spill.segment_bytes, budget / 3), budget / 3);
}

}  // namespace pnut::analysis
