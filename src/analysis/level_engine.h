// The level-engine core shared by the parallel reachability builders.
//
// Both parallel engines — untimed (parallel_exploration.cpp) and timed
// (timed_parallel_exploration.cpp) — turn a deterministic sequential
// exploration into rounds of two phases:
//
//   EXPAND (parallel) — the round's parents (a contiguous range of the
//   engine's pending list) are chopped into batches handed to worker
//   threads by an atomic cursor. Each worker runs its own copy of the
//   graph kind's successor kernel on the parent's canonical arena words
//   and interns each successor into one of S hash-sharded provisional
//   StateStores under striped locks. The shard slot a successor lands in
//   is interleaving-dependent — a provisional identity, stable for the rest
//   of the run and never visible outside the engine. Edges are recorded per
//   batch as flat (label, shard, slot) items in expansion order; the first
//   batch-local sighting of a slot minted this round is captured with its
//   words (a candidate), so sealing copies linearly instead of chasing
//   shard arenas.
//
//   SEAL (sequential, cheap) — the engine replays the batches in canonical
//   parent order, edge order within each parent. The first time a
//   provisional slot appears it gets the next canonical id, which is
//   exactly the id the sequential builder assigns, because sequential
//   discovery order is "parents in pending order, edges in firing order".
//
// LevelEngine owns everything both engines share: the shards and the
// shard-count rule, the batches and their items, the worker pool and the
// inline path for a single batch, the per-parent rollback that parks a
// failure on its batch for the seal, candidate capture, the canonical
// arena with state 0's provisional twin, the spill budget split and the
// shards' spill accounting. What a round is, how the seal walks it, and
// where the stop and truncation rules fire stay in each engine, because
// those rules fire at different canonical positions per graph kind.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/exploration.h"
#include "analysis/spill.h"
#include "analysis/state_store.h"

namespace pnut::analysis::detail {

/// Persistent worker pool: `threads` parked threads, one dispatch() per
/// parallel phase. Pays for thread creation once per exploration (fresh
/// std::threads per round would cost hundreds of spawn+join cycles per
/// million-state build).
class WorkerPool {
 public:
  explicit WorkerPool(unsigned threads) {
    workers_.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Run `job(worker_index)` once on every pool thread; returns when all
  /// are done. Jobs must not throw (workers record failures out of band).
  void dispatch(const std::function<void(unsigned)>& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
    running_ = workers_.size();
    wake_.notify_all();
    done_.wait(lock, [this] { return running_ == 0; });
    job_ = nullptr;
  }

 private:
  void worker_loop(unsigned index) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(unsigned)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(index);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (--running_ == 0) done_.notify_all();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_, done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;  ///< last: threads see built members
};

/// Open-addressed (shard, slot) set with O(1) generation clearing: the
/// per-worker "first occurrence in this batch" filter for candidates. The
/// workers' sets sit side by side in one vector, so each takes whole cache
/// lines: its counters are written on every insert.
class alignas(64) SlotSet {
 public:
  void begin_batch() {
    if (slots_.empty()) grow(1024);
    if (++gen_ == 0) {  // generation counter wrapped: stamp everything stale
      std::fill(gens_.begin(), gens_.end(), 0);
      gen_ = 1;
    }
    used_ = 0;
  }

  /// True when `key` was not yet inserted since begin_batch().
  bool insert(std::uint64_t key) {
    if ((used_ + 1) * 10 > slots_.size() * 7) grow(slots_.size() * 2);
    std::size_t i = mix(key) & (slots_.size() - 1);
    while (true) {
      if (gens_[i] != gen_) {
        gens_[i] = gen_;
        slots_[i] = key;
        ++used_;
        return true;
      }
      if (slots_[i] == key) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

 private:
  static std::uint64_t mix(std::uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
  }

  void grow(std::size_t capacity) {
    const std::vector<std::uint64_t> old_slots = std::move(slots_);
    const std::vector<std::uint32_t> old_gens = std::move(gens_);
    slots_.assign(capacity, 0);
    gens_.assign(capacity, 0);
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_gens[i] != gen_) continue;
      std::size_t j = mix(old_slots[i]) & (capacity - 1);
      while (gens_[j] == gen_) j = (j + 1) & (capacity - 1);
      gens_[j] = gen_;
      slots_[j] = old_slots[i];
    }
  }

  std::vector<std::uint64_t> slots_;
  std::vector<std::uint32_t> gens_;
  std::uint32_t gen_ = 0;
  std::size_t used_ = 0;
};

/// Slot -> canonical id of a provisional state the seal has not reached.
inline constexpr std::uint32_t kUnassigned = UINT32_MAX;

/// One provisional-edge record produced by a worker: the edge label (a
/// transition, or the timed graph's tick) and the successor's provisional
/// identity (shard, slot). The seal translates slots to canonical ids.
struct Item {
  std::uint32_t label;
  std::uint32_t shard;
  std::uint32_t slot;
};

/// First batch-local sighting of a slot minted this round, at batch-local
/// item index `item`. Only a candidate can be a globally fresh state, so
/// the untimed seal walks these alone. Its words are captured next to it
/// (Batch::fresh_words) while they are hot in the worker's scratch, so
/// sealing copies linearly.
struct Candidate {
  std::uint32_t shard;
  std::uint32_t slot;
  std::uint32_t item;
};

/// A hash shard of the provisional state set: its own arena + intern table
/// behind its own mutex (striped locking — two workers contend only when
/// their successors hash to the same shard).
struct Shard {
  std::mutex mutex;
  StateStore store;
  std::vector<std::uint32_t> canonical;  ///< slot -> canonical id (seal only)
};

/// One batch of consecutive parents and the flat edge segment its worker
/// produced. Candidate c's words are `fresh_words[c * width .. (c+1) *
/// width)`.
struct Batch {
  std::size_t first = 0;  ///< pending-list position of the first parent
  std::uint32_t num_parents = 0;
  std::vector<Item> items;                ///< all parents' edges, in order
  std::vector<std::uint32_t> item_count;  ///< per parent
  std::vector<std::uint8_t> cut;          ///< per parent: the kernel ended the row early
  std::vector<Candidate> candidates;
  std::vector<std::uint32_t> fresh_words;
  /// Expanding parent `error_parent` threw (a model callback, a token
  /// overflow, an allocation or spill failure); the parent's partial output
  /// was rolled back. The seal rethrows it if and only if its walk reaches
  /// that parent — a stop rule firing canonically earlier wins, exactly as
  /// it would sequentially.
  std::exception_ptr error;
  std::uint32_t error_parent = 0;

  /// Surface the parked failure when the seal walk reaches parent `i`.
  void rethrow_if_failed(std::uint32_t i) const {
    if (error && i == error_parent) std::rethrow_exception(error);
  }
};

/// The core both parallel engines run (see the file comment); `Edge` is
/// the graph kind's edge record. Not thread-safe itself: the engine calls
/// it from one thread, and it runs the workers.
template <typename Edge>
class LevelEngine {
 public:
  /// Per-parent output handle a worker's kernel emits successors into.
  class Out {
   public:
    Out(LevelEngine& engine, Batch& batch, SlotSet& seen)
        : engine_(engine), batch_(batch), seen_(seen) {}

    /// Intern `words` into its hash shard and record the edge, capturing
    /// the words when this is the first batch-local sighting of a slot
    /// minted this round. Slots >= the shard's sealed-prefix size were
    /// minted this round; `Shard::canonical` is only resized at the seal,
    /// so its size is stable all through expansion.
    void emit(std::uint32_t label, std::span<const std::uint32_t> words) {
      const std::uint64_t h = hash_words(words.data(), engine_.width_);
      const auto shard_idx = static_cast<std::uint32_t>(engine_.shard_of(h));
      Shard& shard = engine_.shards_[shard_idx];
      std::uint32_t slot;
      {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        slot = shard.store.intern(words, h).index;
      }
      batch_.items.push_back(Item{label, shard_idx, slot});
      if (slot >= shard.canonical.size() &&
          seen_.insert((static_cast<std::uint64_t>(shard_idx) << 32) | slot)) {
        batch_.candidates.push_back(
            Candidate{shard_idx, slot, static_cast<std::uint32_t>(batch_.items.size() - 1)});
        batch_.fresh_words.insert(batch_.fresh_words.end(), words.begin(), words.end());
      }
    }

   private:
    LevelEngine& engine_;
    Batch& batch_;
    SlotSet& seen_;
  };

  StateStore canonical;        ///< state i = sequential discovery i
  EdgeCsr<Edge> edges;         ///< canonical flat pool, filled by the seal
  std::vector<Batch> batches;  ///< the current round's, reused across rounds

  LevelEngine(std::size_t width, unsigned threads, const SpillOptions& spill)
      : canonical(width), width_(width), threads_(threads), seen_(threads) {
    // Shard count: a few shards per worker keeps striped-lock contention
    // low; power of two so the pick is a mask over the hash's top bits
    // (the intern tables consume the low bits).
    num_shards_ = 8;
    while (num_shards_ < static_cast<std::size_t>(threads_) * 4 && num_shards_ < 128) {
      num_shards_ *= 2;
    }
    shards_ = std::vector<Shard>(num_shards_);
    for (Shard& s : shards_) s.store = StateStore(width_);
    if (spill.max_resident_bytes == 0) return;

    // Budget split: 3/8 canonical arena, 3/8 across the provisional shards,
    // 2/8 edge pool. Shards have no frontier to protect — every access is
    // mutex-guarded, so any sealed segment may spill and fault back in on a
    // probe (rare: the cached-hash filter rejects almost every mismatching
    // probe without touching words).
    const auto dir = std::make_shared<SpillDir>(spill.dir);
    const std::size_t budget = spill.max_resident_bytes;
    canonical.enable_spill(dir, "canonical.seg",
                           segment_bytes_for(spill.segment_bytes, budget * 3 / 8),
                           budget * 3 / 8);
    const std::size_t shard_budget = std::max<std::size_t>(budget * 3 / 8 / num_shards_, 1);
    // A shard's open tail segment is always heap-resident, so its segment
    // size must stay well under the per-shard budget — otherwise S shards
    // hold S full-size tails and the budget is fiction.
    const std::size_t shard_segment_bytes = segment_bytes_for(spill.segment_bytes, shard_budget);
    for (std::size_t i = 0; i < num_shards_; ++i) {
      shards_[i].store.enable_spill(dir, "shard" + std::to_string(i) + ".seg",
                                    shard_segment_bytes, shard_budget,
                                    /*spill_sealed_tail=*/true);
    }
    edges.enable_spill(dir, "edges.seg", segment_bytes_for(spill.segment_bytes, budget / 4),
                       budget / 4);
  }

  /// State 0: interned canonically, plus its provisional twin so
  /// successors that return to the initial state dedup against it.
  void bootstrap(std::span<const std::uint32_t> initial) {
    canonical.intern(initial);
    const std::uint64_t h = hash_words(initial.data(), width_);
    Shard& shard = shards_[shard_of(h)];
    const auto r = shard.store.intern(initial, h);
    shard.canonical.resize(shard.store.size(), kUnassigned);
    shard.canonical[r.index] = 0;
  }

  /// EXPAND the pending-list positions [begin, end) into `batches`.
  /// `expand_parent(worker, position, out)` expands one parent through
  /// worker `worker`'s kernel, emitting into `out`; it returns false when
  /// the kernel ended the parent's row early (Batch::cut). Workers read
  /// only sealed data (the canonical arena is frozen during the phase) and
  /// write only their batch and the shards.
  template <typename ExpandParent>
  void expand(std::size_t begin, std::size_t end, const ExpandParent& expand_parent) {
    const auto count = static_cast<std::uint32_t>(end - begin);
    const std::uint32_t batch_size = std::clamp<std::uint32_t>(count / (threads_ * 4), 16, 1024);
    const std::uint32_t num_batches = (count + batch_size - 1) / batch_size;
    // Reuse the batch buffers across rounds: clear() keeps the vectors'
    // capacity, so steady-state expansion allocates nothing.
    batches.resize(num_batches);
    for (std::uint32_t b = 0; b < num_batches; ++b) {
      Batch& batch = batches[b];
      batch.first = begin + static_cast<std::size_t>(b) * batch_size;
      batch.num_parents =
          std::min<std::uint32_t>(batch_size, static_cast<std::uint32_t>(end - batch.first));
      batch.items.clear();
      batch.candidates.clear();
      batch.fresh_words.clear();
    }
    for_each_batch(num_batches > 1, [&](unsigned worker, std::size_t b) {
      try {
        expand_batch(worker, batches[b], expand_parent);
      } catch (...) {  // allocation failure in batch setup
        batches[b].error = std::current_exception();
        batches[b].error_parent = 0;
      }
    });
  }

  /// Run `job(worker, b)` for every batch: on the pool when `parallel`,
  /// else inline as worker 0. `job` must not throw.
  template <typename Job>
  void for_each_batch(bool parallel, const Job& job) {
    if (!parallel) {
      for (std::size_t b = 0; b < batches.size(); ++b) job(0u, b);
      return;
    }
    if (!pool_) pool_.emplace(threads_);
    std::atomic<std::size_t> cursor{0};
    pool_->dispatch([&](unsigned worker) {
      while (true) {
        const std::size_t b = cursor.fetch_add(1);
        if (b >= batches.size()) return;
        job(worker, b);
      }
    });
  }

  /// Seal start: size every shard's slot -> canonical map to its store.
  void begin_seal() {
    for (Shard& s : shards_) s.canonical.resize(s.store.size(), kUnassigned);
  }

  /// The canonical id of a provisional state (kUnassigned until sealed).
  [[nodiscard]] std::uint32_t& canonical_id(std::uint32_t shard, std::uint32_t slot) {
    return shards_[shard].canonical[slot];
  }

  /// Append batch candidate `c`'s captured words as the next canonical
  /// state; returns its id.
  std::uint32_t seal_candidate(const Batch& batch, std::size_t c) {
    return canonical.append_unchecked({batch.fresh_words.data() + c * width_, width_});
  }

  /// Finalize the edge pool and hand the canonical graph and the shards'
  /// spill accounting to `result`.
  template <typename Result>
  void finish(Result& result) {
    edges.finalize(canonical.size());
    result.store = std::move(canonical);
    result.edges = std::move(edges);
    for (const Shard& s : shards_) {
      result.aux_peak_bytes += s.store.peak_resident_bytes();
      result.aux_spill_engaged |= s.store.spill_engaged();
    }
  }

 private:
  [[nodiscard]] std::size_t shard_of(std::uint64_t hash) const {
    return (hash >> 57) & (num_shards_ - 1);
  }

  /// Expand one batch. A throw rolls the failing parent's partial output
  /// back and parks the exception on the batch — it never escapes the
  /// worker. The seal decides whether it is ever surfaced.
  template <typename ExpandParent>
  void expand_batch(unsigned worker, Batch& batch, const ExpandParent& expand_parent) {
    batch.item_count.assign(batch.num_parents, 0);
    batch.cut.assign(batch.num_parents, 0);
    batch.error = nullptr;
    SlotSet& seen = seen_[worker];
    seen.begin_batch();
    Out out(*this, batch, seen);
    for (std::uint32_t i = 0; i < batch.num_parents; ++i) {
      const std::size_t items_before = batch.items.size();
      const std::size_t cands_before = batch.candidates.size();
      const std::size_t words_before = batch.fresh_words.size();
      try {
        batch.cut[i] = expand_parent(worker, batch.first + i, out) ? 0 : 1;
      } catch (...) {
        batch.items.resize(items_before);
        batch.candidates.resize(cands_before);
        batch.fresh_words.resize(words_before);
        batch.error = std::current_exception();
        batch.error_parent = i;
        return;
      }
      batch.item_count[i] = static_cast<std::uint32_t>(batch.items.size() - items_before);
    }
  }

  std::size_t width_;  ///< words per state, canonical and provisional alike
  unsigned threads_;
  std::size_t num_shards_ = 0;
  std::vector<Shard> shards_;
  std::vector<SlotSet> seen_;       ///< per worker: candidate filter
  std::optional<WorkerPool> pool_;  ///< lazily spawned; first destroyed
};

}  // namespace pnut::analysis::detail
