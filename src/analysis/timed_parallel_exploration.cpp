#include "analysis/timed_parallel_exploration.h"

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/level_engine.h"

namespace pnut::analysis {

namespace {

using detail::Batch;
using detail::kUnassigned;
using Edge = TimedReachabilityGraph::Edge;

/// Item label for the one-cycle tick edge (firings carry the transition).
constexpr std::uint32_t kTick = UINT32_MAX;

class TimedParallelExplorer {
 public:
  TimedParallelExplorer(const CompiledNet& net, const detail::TimedLayout& layout,
                        const TimedReachOptions& options, unsigned threads)
      : options_(options),
        kernels_(threads, detail::TimedKernel(net, layout)),
        core_(layout.width(), threads, options.spill) {}

  TimedParallelResult run() {
    core_.bootstrap(kernels_.front().initial_state());
    schedule_.bootstrap();
    std::size_t head = 0;
    while (true) {
      if (head == schedule_.current.size()) {
        if (!schedule_.advance_tick()) break;
        // Every state the new instant can expand (staged or promoted) has
        // earliest time == now, so it was discovered no earlier than the
        // instant we just left: the arena before that instant's start is
        // sealed, and the lock-free expand reads above the floor never
        // fault.
        core_.canonical.set_spill_floor(instant_start_);
        instant_start_ = core_.canonical.size();
        head = 0;
      }
      const std::size_t round_end = schedule_.current.size();
      core_.expand(head, round_end, [&](unsigned worker, std::size_t position, auto& out) {
        return kernels_[worker].expand(
            core_.canonical.state(schedule_.current[position]),
            [&](std::optional<TransitionId> label, std::span<const std::uint32_t> succ,
                std::uint64_t /*cost*/) {
              out.emit(label ? label->value : kTick, succ);
              return true;
            });
      });
      head = round_end;
      if (!seal_round()) break;  // truncated: stop, keep the prefix
    }
    schedule_.expanded.resize(core_.canonical.size(), 0);

    TimedParallelResult result;
    core_.finish(result);
    result.earliest_time = std::move(schedule_.earliest_time);
    result.expanded = std::move(schedule_.expanded);
    result.status = schedule_.status;
    return result;
  }

 private:
  /// Sequential replay of the round's batches in pending-list order: first
  /// canonical appearance of a provisional slot gets the next canonical id
  /// and its captured words are appended to the canonical arena; earliest
  /// times, scheduling and the stop rules run through the shared
  /// detail::TimedSchedule — the same code the sequential builder runs, at
  /// the same event positions. Returns false when max_states hit — edges
  /// emitted so far are the exact sequential prefix, the stopping parent's
  /// row stays partial and unmarked, and everything after it is dropped.
  bool seal_round() {
    core_.begin_seal();
    for (const Batch& batch : core_.batches) {
      const detail::Item* item = batch.items.data();
      std::uint32_t item_idx = 0;
      std::size_t cand = 0;
      for (std::uint32_t i = 0; i < batch.num_parents; ++i) {
        const std::uint32_t parent = schedule_.current[batch.first + i];
        // Canonical-position stop poll via the shared schedule counter, at
        // the exact point the sequential builder polls: the stopping
        // parent's row is opened and left empty, the parent unmarked —
        // and before any failure its expansion would have raised.
        if (schedule_.stopped_by(options_.stop)) {
          core_.edges.begin_source(parent);
          return false;
        }
        // The walk reached a parent whose expansion threw: the sequential
        // builder would have hit the same failure here — surface it.
        batch.rethrow_if_failed(i);
        core_.edges.begin_source(parent);
        for (std::uint32_t k = 0; k < batch.item_count[i]; ++k, ++item, ++item_idx) {
          const std::size_t cand_idx = cand;
          const bool at_candidate =
              cand < batch.candidates.size() && batch.candidates[cand].item == item_idx;
          if (at_candidate) ++cand;
          std::uint32_t& cid = core_.canonical_id(item->shard, item->slot);
          const bool fresh = cid == kUnassigned;
          if (fresh) {
            // A globally fresh slot was minted this round, so the batch
            // that sighted it first captured its words as a candidate.
            if (!at_candidate) {
              throw std::logic_error(
                  "timed parallel exploration: fresh slot without captured words");
            }
            cid = core_.seal_candidate(batch, cand_idx);
          }
          const bool tick = item->label == kTick;
          core_.edges.add(Edge{
              tick ? std::optional<TransitionId>()
                   : std::optional<TransitionId>(TransitionId(item->label)),
              cid});
          if (!schedule_.record(cid, fresh, tick ? 1 : 0, core_.canonical.size(), options_)) {
            return false;
          }
        }
        schedule_.expanded[parent] = 1;
      }
    }
    return true;
  }

  TimedReachOptions options_;
  std::vector<detail::TimedKernel> kernels_;  ///< one per worker
  detail::LevelEngine<Edge> core_;
  detail::TimedSchedule schedule_;  ///< the shared two-bucket scheduler
  /// Canonical size when the current instant began; the spill floor trails
  /// it by one instant (promotions can target last instant's discoveries).
  std::size_t instant_start_ = 0;
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
