#include "analysis/timed_parallel_exploration.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/parallel_support.h"

namespace pnut::analysis {

namespace {

constexpr std::uint32_t kUnassigned = UINT32_MAX;
/// Item label for the one-cycle tick edge (firings carry the transition).
constexpr std::uint32_t kTick = UINT32_MAX;

/// One provisional-edge record produced by a worker: the label (transition
/// or tick) and the successor's provisional identity (shard, slot). Slots
/// are interleaving-dependent; the seal translates them to canonical ids.
struct Item {
  std::uint32_t label;
  std::uint32_t shard;
  std::uint32_t slot;
};

/// A hash shard of the provisional state set: its own arena + intern table
/// behind its own mutex (striped locking, as in the untimed engine).
struct Shard {
  std::mutex mutex;
  StateStore store;
  std::vector<std::uint32_t> canonical;  ///< slot -> canonical id (seal only)
};

/// One batch of consecutive pending-list entries and the flat edge segment
/// its worker produced. `candidate_pos[c]` is the batch-local item index of
/// the c-th first-in-batch sighting of a slot minted this round; its words
/// are `fresh_words[c * width .. (c+1) * width)` — captured while hot in
/// the worker's scratch so the seal copies linearly.
struct Batch {
  std::size_t first_index = 0;  ///< into the current pending list
  std::uint32_t num_parents = 0;
  std::vector<Item> items;                ///< all parents' edges, in order
  std::vector<std::uint32_t> item_count;  ///< per parent
  std::vector<std::uint32_t> candidate_pos;
  std::vector<std::uint32_t> fresh_words;
  /// Expansion threw (allocation failure — timed nets have no model
  /// callbacks) at parent `error_parent`; the parent's partial output was
  /// rolled back. The seal rethrows it if and only if its walk reaches that
  /// parent — a stop rule firing canonically earlier wins.
  std::exception_ptr error;
  std::uint32_t error_parent = 0;
};

/// Reused per-worker state: no allocation per expansion.
struct WorkerScratch {
  WorkerScratch(const CompiledNet& net, const detail::TimedLayout& layout)
      : kernel(net, layout) {}
  detail::TimedKernel kernel;  ///< the successor rule on this worker's scratch
  detail::SlotSet seen_slots;  ///< candidate first-sighting filter
};

class TimedParallelExplorer {
 public:
  TimedParallelExplorer(const CompiledNet& net, const detail::TimedLayout& layout,
                        const TimedReachOptions& options, unsigned threads)
      : net_(net),
        layout_(layout),
        options_(options),
        threads_(threads),
        width_(layout.width()) {
    num_shards_ = 8;
    while (num_shards_ < static_cast<std::size_t>(threads_) * 4 && num_shards_ < 128) {
      num_shards_ *= 2;
    }
    shards_ = std::vector<Shard>(num_shards_);
    for (Shard& s : shards_) s.store = StateStore(width_);

    if (options_.spill.max_resident_bytes != 0) {
      // Parallel split: 3/8 canonical arena, 3/8 across the provisional
      // shards, 2/8 edge pool. Shards spill their sealed tail freely —
      // every shard access is mutex-guarded, so fault-in is safe there.
      spill_dir_ = std::make_shared<detail::SpillDir>(options_.spill.dir);
      const std::size_t budget = options_.spill.max_resident_bytes;
      const std::size_t shard_budget =
          std::max<std::size_t>(budget * 3 / 8 / num_shards_, 1);
      // A shard's open tail segment is always heap-resident, so its segment
      // size must stay well under the per-shard budget — otherwise S shards
      // hold S full-size tails and the budget is fiction.
      const std::size_t shard_segment_bytes =
          detail::segment_bytes_for(options_.spill.segment_bytes, shard_budget);
      for (std::size_t i = 0; i < num_shards_; ++i) {
        shards_[i].store.enable_spill(spill_dir_, "shard" + std::to_string(i) + ".seg",
                                      shard_segment_bytes, shard_budget,
                                      /*spill_sealed_tail=*/true);
      }
      edges_.enable_spill(spill_dir_, "edges.seg",
                          detail::segment_bytes_for(options_.spill.segment_bytes, budget / 4),
                          budget / 4);
    }
  }

  TimedParallelResult run() {
    bootstrap();
    std::vector<Batch> batches;
    std::size_t head = 0;
    while (true) {
      if (head == schedule_.current.size()) {
        if (!schedule_.advance_tick()) break;
        // Every state the new instant can expand (staged or promoted) has
        // earliest time == now, so it was discovered no earlier than the
        // instant we just left: the arena before that instant's start is
        // sealed, and the lock-free expand reads above the floor never
        // fault.
        canonical_.set_spill_floor(instant_start_);
        instant_start_ = canonical_.size();
        head = 0;
      }
      const std::size_t round_begin = head;
      const std::size_t round_end = schedule_.current.size();
      expand_round(round_begin, round_end, batches);
      head = round_end;
      if (!seal_round(batches)) break;  // truncated: stop, keep the prefix
    }
    edges_.finalize(canonical_.size());
    schedule_.expanded.resize(canonical_.size(), 0);

    TimedParallelResult result;
    result.store = std::move(canonical_);
    result.edges = std::move(edges_);
    result.earliest_time = std::move(schedule_.earliest_time);
    result.expanded = std::move(schedule_.expanded);
    result.status = schedule_.status;
    for (const Shard& s : shards_) {
      result.aux_peak_bytes += s.store.peak_resident_bytes();
      result.aux_spill_engaged |= s.store.spill_engaged();
    }
    return result;
  }

 private:
  // --- bootstrap -------------------------------------------------------------

  [[nodiscard]] std::size_t shard_of(std::uint64_t hash) const {
    return (hash >> 57) & (num_shards_ - 1);
  }

  void bootstrap() {
    canonical_ = StateStore(width_);
    if (spill_dir_) {
      const std::size_t budget = options_.spill.max_resident_bytes * 3 / 8;
      canonical_.enable_spill(spill_dir_, "canonical.seg",
                              detail::segment_bytes_for(options_.spill.segment_bytes, budget),
                              budget);
    }
    worker_scratch_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i) worker_scratch_.emplace_back(net_, layout_);
    const std::span<const std::uint32_t> initial = worker_scratch_[0].kernel.initial_state();
    canonical_.intern(initial);
    schedule_.bootstrap();

    // The provisional twin, so successors that return to the initial state
    // dedup against it.
    const std::uint64_t h = hash_words(initial.data(), width_);
    Shard& shard = shards_[shard_of(h)];
    const auto r = shard.store.intern(initial, h);
    shard.canonical.resize(shard.store.size(), kUnassigned);
    shard.canonical[r.index] = 0;
  }

  // --- expand (parallel) -----------------------------------------------------

  void expand_round(std::size_t begin, std::size_t end, std::vector<Batch>& batches) {
    const auto count = static_cast<std::uint32_t>(end - begin);
    const std::uint32_t batch_size =
        std::clamp<std::uint32_t>(count / (threads_ * 4), 16, 1024);
    const std::uint32_t num_batches = (count + batch_size - 1) / batch_size;
    // Reuse the batch buffers across rounds: clear() keeps the vectors'
    // capacity, so steady-state expansion allocates nothing new.
    batches.resize(num_batches);
    for (std::uint32_t b = 0; b < num_batches; ++b) {
      batches[b].first_index = begin + static_cast<std::size_t>(b) * batch_size;
      batches[b].num_parents = std::min<std::uint32_t>(
          batch_size, static_cast<std::uint32_t>(end - batches[b].first_index));
      batches[b].items.clear();
      batches[b].candidate_pos.clear();
      batches[b].fresh_words.clear();
    }

    if (num_batches <= 1) {
      for (Batch& batch : batches) expand_batch(batch, worker_scratch_[0]);
      return;
    }

    if (!pool_) pool_.emplace(threads_);
    std::atomic<std::uint32_t> cursor{0};
    pool_->dispatch([&](unsigned worker) {
      WorkerScratch& scratch = worker_scratch_[worker];
      while (true) {
        const std::uint32_t b = cursor.fetch_add(1);
        if (b >= num_batches) return;
        try {
          expand_batch(batches[b], scratch);
        } catch (...) {  // allocation failure in batch setup
          batches[b].error = std::current_exception();
          batches[b].error_parent = 0;
        }
      }
    });
  }

  /// Expand one batch. A throw rolls the failing parent's partial output
  /// back and parks the exception on the batch — never escapes the worker.
  void expand_batch(Batch& batch, WorkerScratch& scratch) {
    batch.item_count.assign(batch.num_parents, 0);
    batch.error = nullptr;
    scratch.seen_slots.begin_batch();
    for (std::uint32_t i = 0; i < batch.num_parents; ++i) {
      const std::size_t items_before = batch.items.size();
      const std::size_t cands_before = batch.candidate_pos.size();
      const std::size_t words_before = batch.fresh_words.size();
      try {
        expand_parent(schedule_.current[batch.first_index + i], i, batch, scratch);
      } catch (...) {
        batch.items.resize(items_before);
        batch.candidate_pos.resize(cands_before);
        batch.fresh_words.resize(words_before);
        batch.item_count[i] = 0;
        batch.error = std::current_exception();
        batch.error_parent = i;
        return;
      }
    }
  }

  /// One parent, through the worker's successor kernel (timed_encode.h).
  /// Reads only sealed data (the canonical arena is frozen during the
  /// expand phase); writes only the batch and the shards.
  void expand_parent(std::uint32_t parent, std::uint32_t slot_in_batch, Batch& batch,
                     WorkerScratch& scratch) {
    const auto items_before = static_cast<std::uint32_t>(batch.items.size());
    scratch.kernel.expand(
        canonical_.state(parent),
        [&](std::optional<TransitionId> label, std::span<const std::uint32_t> succ,
            std::uint64_t /*cost*/) {
          const std::uint64_t h = hash_words(succ.data(), width_);
          const auto shard_idx = static_cast<std::uint32_t>(shard_of(h));
          Shard& shard = shards_[shard_idx];
          std::uint32_t slot;
          {
            const std::lock_guard<std::mutex> lock(shard.mutex);
            slot = shard.store.intern(succ, h).index;
          }
          batch.items.push_back(Item{label ? label->value : kTick, shard_idx, slot});
          // Candidate capture: slots >= the sealed-prefix size were minted
          // this round — record the first batch-local sighting with its
          // words. `shard.canonical` is only resized at seal, so its size
          // is stable all through expansion.
          if (slot >= shard.canonical.size() &&
              scratch.seen_slots.insert(
                  (static_cast<std::uint64_t>(shard_idx) << 32) | slot)) {
            batch.candidate_pos.push_back(
                static_cast<std::uint32_t>(batch.items.size() - 1));
            batch.fresh_words.insert(batch.fresh_words.end(), succ.begin(), succ.end());
          }
          return true;
        });
    batch.item_count[slot_in_batch] =
        static_cast<std::uint32_t>(batch.items.size()) - items_before;
  }

  // --- seal ------------------------------------------------------------------

  /// Sequential replay of the round's batches in pending-list order: first
  /// canonical appearance of a provisional slot gets the next canonical id
  /// and its captured words are appended to the canonical arena; earliest
  /// times, scheduling and the stop rules run through the shared
  /// detail::TimedSchedule — the same code the sequential builder runs, at
  /// the same event positions. Returns false when max_states hit — edges
  /// emitted so far are the exact sequential prefix, the stopping parent's
  /// row stays partial and unmarked, and everything after it is dropped.
  bool seal_round(std::vector<Batch>& batches) {
    for (Shard& s : shards_) s.canonical.resize(s.store.size(), kUnassigned);
    for (Batch& batch : batches) {
      const Item* item = batch.items.data();
      std::uint32_t item_idx = 0;
      std::size_t cand = 0;
      for (std::uint32_t i = 0; i < batch.num_parents; ++i) {
        const std::uint32_t parent = schedule_.current[batch.first_index + i];
        // Canonical-position stop poll via the shared schedule counter, at
        // the exact point the sequential builder polls: the stopping
        // parent's row is opened and left empty, the parent unmarked —
        // and before any failure its expansion would have raised.
        if (schedule_.poll_due()) {
          if (const StopToken::Reason r = options_.stop.poll();
              r != StopToken::Reason::kNone) {
            schedule_.status = r == StopToken::Reason::kDeadline
                                   ? TimedReachStatus::kTimeout
                                   : TimedReachStatus::kCancelled;
            edges_.begin_source(parent);
            return false;
          }
        }
        // The walk reached a parent whose expansion threw: the sequential
        // builder would have hit the same failure here — surface it.
        if (batch.error && i == batch.error_parent) {
          std::rethrow_exception(batch.error);
        }
        edges_.begin_source(parent);
        for (std::uint32_t k = 0; k < batch.item_count[i]; ++k, ++item, ++item_idx) {
          const std::size_t cand_idx = cand;
          const bool at_candidate = cand < batch.candidate_pos.size() &&
                                    batch.candidate_pos[cand] == item_idx;
          if (at_candidate) ++cand;
          std::uint32_t& cid = shards_[item->shard].canonical[item->slot];
          const bool fresh = cid == kUnassigned;
          if (fresh) {
            // A globally fresh slot was minted this round, so the batch
            // that sighted it first captured its words as a candidate.
            if (!at_candidate) {
              throw std::logic_error(
                  "timed parallel exploration: fresh slot without captured words");
            }
            cid = canonical_.append_unchecked(
                {batch.fresh_words.data() + cand_idx * width_, width_});
          }
          edges_.add(TimedReachabilityGraph::Edge{
              item->label == kTick ? std::optional<TransitionId>()
                                   : std::optional<TransitionId>(TransitionId(item->label)),
              cid});
          if (!schedule_.record(cid, fresh, item->label == kTick ? 1 : 0,
                                canonical_.size(), options_)) {
            return false;
          }
        }
        schedule_.expanded[parent] = 1;
      }
    }
    return true;
  }

  // --- members ---------------------------------------------------------------

  const CompiledNet& net_;
  const detail::TimedLayout& layout_;
  TimedReachOptions options_;
  unsigned threads_;
  std::size_t width_;

  std::size_t num_shards_ = 0;
  std::vector<Shard> shards_;

  StateStore canonical_;
  EdgeCsr<TimedReachabilityGraph::Edge> edges_;
  detail::TimedSchedule schedule_;  ///< the shared two-bucket scheduler
  std::shared_ptr<detail::SpillDir> spill_dir_;  ///< set iff spilling enabled
  /// Canonical size when the current instant began; the spill floor trails
  /// it by one instant (promotions can target last instant's discoveries).
  std::size_t instant_start_ = 0;

  std::vector<WorkerScratch> worker_scratch_;  ///< persistent across rounds
  std::optional<detail::WorkerPool> pool_;     ///< lazily spawned, reused
};

}  // namespace

TimedParallelResult explore_timed_parallel(const CompiledNet& net,
                                           const detail::TimedLayout& layout,
                                           const TimedReachOptions& options,
                                           unsigned threads) {
  if (threads < 2) {
    throw std::invalid_argument("explore_timed_parallel: needs >= 2 threads");
  }
  return TimedParallelExplorer(net, layout, options, threads).run();
}

}  // namespace pnut::analysis
