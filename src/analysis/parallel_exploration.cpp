#include "analysis/parallel_exploration.h"

#include <stdexcept>
#include <vector>

#include "analysis/level_engine.h"
#include "analysis/reach_encode.h"

namespace pnut::analysis {

namespace {

using detail::Batch;
using detail::kUnassigned;
using detail::ReachKernel;
using Edge = ReachabilityGraph::Edge;

class ParallelExplorer {
 public:
  ParallelExplorer(const CompiledNet& net, const ReachOptions& options, unsigned threads,
                   const expr::NetProgram* program)
      : options_(options),
        kernels_(threads, ReachKernel(net, options, program)),
        core_(kernels_.front().width(), threads, options.spill) {}

  ParallelReachResult run() {
    core_.bootstrap(kernels_.front().initial_state());
    std::uint32_t expanded_end = 0;
    while (expanded_end < core_.canonical.size()) {
      const std::uint32_t level_begin = expanded_end;
      const auto level_end = static_cast<std::uint32_t>(core_.canonical.size());
      core_.expand(level_begin, level_end, [&](unsigned worker, std::size_t position, auto& out) {
        const auto parent = static_cast<std::uint32_t>(position);
        return kernels_[worker].expand(parent, core_.canonical.state(parent),
                                       [&](TransitionId t, std::span<const std::uint32_t> succ) {
                                         out.emit(t.value, succ);
                                         return true;
                                       }) == ReachKernel::Expansion::kComplete;
      });
      expanded_end = level_end;
      // The level is fully expanded: its states (and everything before
      // them) are sealed. The seal only appends at >= level_end, and the
      // next expand reads only [level_end, ...), so segments below this
      // floor can spill without any lock-free reader ever faulting.
      core_.canonical.set_spill_floor(level_end);
      // Truncated or unbounded: stop, keep the prefix.
      if (!seal(level_begin)) break;
      num_expanded_ = level_end;  // the whole level sealed cleanly
    }

    ParallelReachResult result;
    core_.finish(result);
    result.status = status_;
    result.num_expanded = num_expanded_;
    return result;
  }

 private:
  // --- seal ------------------------------------------------------------------
  //
  // Sequential replay. Phase A walks only the candidates (fresh-state
  // sightings, a small fraction of all edges) in canonical order, assigning
  // ids and appending captured words to the canonical arena; the stop
  // rules fire at exactly the sequential positions, falling back to
  // fill_edges_prefix for the truncated edge prefix. Phase B bulk-opens the
  // level's CSR rows and translates the edge segments to canonical ids on
  // the worker pool.

  bool seal(std::uint32_t level_begin) {
    core_.begin_seal();
    std::vector<Batch>& batches = core_.batches;

    // Phase A: ordered discovery over the candidate lists.
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const Batch& batch = batches[b];
      std::size_t cand = 0;
      std::uint32_t item_end = 0;
      for (std::uint32_t i = 0; i < batch.num_parents; ++i) {
        const auto parent = static_cast<std::uint32_t>(batch.first + i);
        // Canonical-position stop poll, at the exact point the sequential
        // builder polls (before expanding this parent — so before any
        // exception its expansion would raise). item_end still excludes
        // parent i, so the prefix fill leaves its row opened and empty.
        if (const auto stop = detail::poll_stop(options_.stop, parent)) {
          status_ = *stop;
          num_expanded_ = parent;
          fill_edges_prefix(b, i, item_end);
          return false;
        }
        // The walk reached a parent whose expansion threw: the sequential
        // builder would have hit the same exception here (every earlier
        // parent sealed cleanly, no stop rule fired first) — surface it.
        batch.rethrow_if_failed(i);
        item_end += batch.item_count[i];
        for (; cand < batch.candidates.size() && batch.candidates[cand].item < item_end;
             ++cand) {
          const detail::Candidate& c = batch.candidates[cand];
          std::uint32_t& cid = core_.canonical_id(c.shard, c.slot);
          if (cid != kUnassigned) continue;
          cid = core_.seal_candidate(batch, cand);
          if (core_.canonical.size() > options_.max_states) {
            status_ = ReachStatus::kTruncated;
            num_expanded_ = parent;  // parent i stops mid-row
            fill_edges_prefix(b, i, c.item + 1);
            return false;
          }
        }
        if (batch.cut[i] != 0) {  // a firing exceeded the place bound
          status_ = ReachStatus::kUnbounded;
          num_expanded_ = parent;
          fill_edges_prefix(b, i, item_end);
          return false;
        }
      }
    }

    // Phase B: open the level's rows in one bulk append, then translate
    // the per-batch segments into them in parallel. Each batch fills its
    // own parents' freshly opened rows via mutable_row: disjoint
    // heap-resident regions (append_rows keeps the level above the spill
    // floor), so batches translate concurrently.
    row_counts_.clear();
    std::size_t total = 0;
    for (const Batch& batch : batches) {
      row_counts_.insert(row_counts_.end(), batch.item_count.begin(), batch.item_count.end());
      total += batch.items.size();
    }
    core_.edges.append_rows(level_begin, row_counts_);
    core_.for_each_batch(batches.size() > 1 && total >= 8192, [&](unsigned, std::size_t b) {
      const Batch& batch = batches[b];
      const detail::Item* item = batch.items.data();
      for (std::uint32_t i = 0; i < batch.num_parents; ++i) {
        for (Edge& e : core_.edges.mutable_row(static_cast<std::uint32_t>(batch.first + i))) {
          e = edge(*item++);
        }
      }
    });
    return true;
  }

  [[nodiscard]] Edge edge(const detail::Item& item) {
    return Edge{TransitionId(item.label), core_.canonical_id(item.shard, item.slot)};
  }

  /// Stop-rule fallback: sequentially emit the exact edge prefix the
  /// sequential builder had produced when it stopped — batches before
  /// `b_stop` in full, then parents up to `parent_stop_rel`, with items of
  /// batch `b_stop` cut at `item_limit` (exclusive).
  void fill_edges_prefix(std::size_t b_stop, std::uint32_t parent_stop_rel,
                         std::uint32_t item_limit) {
    for (std::size_t b = 0; b <= b_stop; ++b) {
      const Batch& batch = core_.batches[b];
      const detail::Item* item = batch.items.data();
      std::uint32_t idx = 0;
      const std::uint32_t parents = b == b_stop ? parent_stop_rel + 1 : batch.num_parents;
      for (std::uint32_t i = 0; i < parents; ++i) {
        core_.edges.begin_source(static_cast<std::uint32_t>(batch.first + i));
        for (std::uint32_t k = 0; k < batch.item_count[i]; ++k, ++idx, ++item) {
          if (b == b_stop && idx >= item_limit) return;
          core_.edges.add(edge(*item));
        }
      }
    }
  }

  ReachOptions options_;
  std::vector<ReachKernel> kernels_;  ///< one per worker
  detail::LevelEngine<Edge> core_;
  std::vector<std::uint32_t> row_counts_;  ///< reused per level (seal)
  ReachStatus status_ = ReachStatus::kComplete;
  std::size_t num_expanded_ = 0;  ///< fully-expanded prefix (see header)
};

}  // namespace

ParallelReachResult explore_reachability_parallel(const CompiledNet& net,
                                                  const ReachOptions& options, unsigned threads,
                                                  const expr::NetProgram* program) {
  if (threads < 2) {
    throw std::invalid_argument("explore_reachability_parallel: needs >= 2 threads");
  }
  return ParallelExplorer(net, options, threads, program).run();
}

}  // namespace pnut::analysis
