// StateStore: the arena-interned state set shared by every graph analyzer.
//
// Every exploration tool in the suite — the untimed reachability graph, the
// timed reachability graph, and the trace state space — needs the same two
// things: a place to keep millions of fixed-width state vectors, and (for
// the graph builders) a way to ask "have I seen this state before?" fast.
// The historical implementations answered both with per-state heap objects:
// a std::string key per state inside an unordered_map, a Marking (its own
// vector) per state, a std::vector<Edge> per state. At controller scale
// that is invisible; at the ROADMAP's million-state scale the allocator and
// the pointer-chasing dominate everything.
//
// The exploration core stores a state as `width` contiguous 32-bit words:
//
//   [ marking tokens ... | analyzer-specific words ... ]
//
// where the analyzer-specific tail is empty for a plain reachability state,
// timer/in-flight words for a timed state, and in-flight activity for a
// trace state. All states live back-to-back in ONE flat arena (StateArena),
// so state i is the word slice [i*width, (i+1)*width) — no per-state
// allocation, perfect locality for the whole-column scans the graph queries
// (place bounds, deadlock sets) do.
//
// Out-of-core mode: enable_spill() rebases the arena onto a
// SegmentedStore<uint32_t> (spill.h) — states still append back-to-back,
// but into fixed-capacity segments that are written once to a spill file
// after the owner's floor passes them, keeping only the intern table plus a
// recent-level residency window in memory. Each interned state's 64-bit
// hash is cached (hashes_) so neither probe filtering nor table growth ever
// has to fault spilled states back in just to rehash them.
//
// StateStore adds interning on top: an open-addressed, linear-probed hash
// table of state indices (power-of-two capacity, hash-filtered word-compare
// on probe) keyed by pnut::hash_words over the slice. Interning an
// already-present state costs one hash + one or two probes and allocates
// nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "analysis/spill.h"
#include "petri/marking.h"

namespace pnut::analysis {

/// Flat fixed-width storage: state i is words [i*width, (i+1)*width).
/// Optionally segmented + spillable (see file comment and spill.h).
class StateArena {
 public:
  explicit StateArena(std::size_t width) : width_(width) {}

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Switch to the segmented spillable layout. Must be called while empty.
  void enable_spill(std::shared_ptr<detail::SpillDir> dir, const std::string& name,
                    std::size_t segment_bytes, std::size_t budget_bytes) {
    if (width_ == 0) return;  // placeholder store; nothing to segment
    // Largest power-of-two states-per-segment whose payload fits.
    std::size_t sps = 1;
    std::size_t shift = 0;
    while (sps * 2 * width_ * sizeof(std::uint32_t) <= segment_bytes) {
      sps *= 2;
      ++shift;
    }
    seg_shift_ = shift;
    seg_mask_ = sps - 1;
    pool_.configure_spill(std::move(dir), name, sps * width_, budget_bytes);
  }

  /// Append one state; returns its index. `words.size()` must equal width().
  std::uint32_t push(std::span<const std::uint32_t> words) {
    pool_.append(words.data(), width_);
    return static_cast<std::uint32_t>(size_++);
  }

  [[nodiscard]] std::span<const std::uint32_t> operator[](std::size_t i) const {
    if (!pool_.segmented()) return {pool_.flat_at(i * width_), width_};
    return {pool_.at(i >> seg_shift_, (i & seg_mask_) * width_), width_};
  }

  /// Word `word` of each of `states` (every one < size()), widened:
  /// out[i] = (*this)[states[i]][word]. A strided read of the flat arena;
  /// state by state when segmented.
  void gather_word(std::span<const std::int64_t> states, std::size_t word,
                   std::int64_t* out) const {
    if (!pool_.segmented()) {
      const std::uint32_t* column = pool_.flat_at(word);
      for (std::size_t i = 0; i < states.size(); ++i) {
        out[i] = column[static_cast<std::size_t>(states[i]) * width_];
      }
      return;
    }
    for (std::size_t i = 0; i < states.size(); ++i) {
      out[i] = (*this)[static_cast<std::size_t>(states[i])][word];
    }
  }

  /// States below `state` are sealed: their segments may spill once the
  /// resident set exceeds the budget.
  void set_spill_floor(std::size_t state) {
    pool_.set_floor_seg(state >> seg_shift_);
  }

  void reserve(std::size_t states) { pool_.reserve(states * width_); }

  [[nodiscard]] std::size_t memory_bytes() const { return pool_.resident_bytes(); }
  [[nodiscard]] std::size_t spilled_bytes() const { return pool_.spilled_bytes(); }
  [[nodiscard]] std::size_t peak_resident_bytes() const {
    return pool_.peak_resident_bytes();
  }
  [[nodiscard]] bool spill_engaged() const { return pool_.engaged(); }
  [[nodiscard]] bool segmented() const { return pool_.segmented(); }

 private:
  std::size_t width_;
  std::size_t size_ = 0;
  std::size_t seg_shift_ = 0;
  std::size_t seg_mask_ = 0;
  detail::SegmentedStore<std::uint32_t> pool_;
};

/// StateArena plus open-addressed interning (see file comment).
class StateStore {
 public:
  /// Empty store of zero-width states; reassign once the width is known.
  StateStore() : StateStore(0) {}
  explicit StateStore(std::size_t width);

  struct Interned {
    std::uint32_t index = 0;
    bool inserted = false;  ///< true if the state was new
  };

  /// Return the index of `words`, appending it to the arena if unseen.
  /// Throws std::length_error past ~4 billion states (index width).
  ///
  /// CONTRACT: `words` must not alias this store's own arena. Interning can
  /// grow the arena, which reallocates it and invalidates every span
  /// state() has ever returned — so a caller holding a state slice (e.g. an
  /// expansion loop holding its parent state) must copy the slice into its
  /// own buffer before interning anything. In spill mode the contract tightens:
  /// ANY arena access (state(), intern() probes) may evict the mapped
  /// segment a previously returned span points into. Pinned by
  /// StateStore.InternInvalidatesPriorSpans in tests/.
  Interned intern(std::span<const std::uint32_t> words);

  /// Switch the arena to the segmented spillable layout (spill.h). Must be
  /// called while empty. The intern table and hash cache always stay
  /// resident — only state words spill.
  void enable_spill(std::shared_ptr<detail::SpillDir> dir, const std::string& name,
                    std::size_t segment_bytes, std::size_t budget_bytes) {
    arena_.enable_spill(std::move(dir), name, segment_bytes, budget_bytes);
  }

  /// Forwarded to StateArena::set_spill_floor.
  void set_spill_floor(std::size_t state) { arena_.set_spill_floor(state); }

  [[nodiscard]] std::span<const std::uint32_t> state(std::size_t i) const {
    return arena_[i];
  }
  [[nodiscard]] const StateArena& arena() const { return arena_; }
  [[nodiscard]] std::size_t size() const { return arena_.size(); }
  [[nodiscard]] std::size_t width() const { return arena_.width(); }

  /// Streaming cursor over states [first, last): ascending order, so a
  /// spilled arena faults each segment in exactly once per scan.
  template <typename Fn>  // fn(std::size_t index, std::span<const std::uint32_t>)
  void for_each_state(std::size_t first, std::size_t last, Fn&& fn) const {
    for (std::size_t i = first; i < last; ++i) fn(i, arena_[i]);
  }

  void reserve(std::size_t states);

  /// Exact resident footprint: arena (heap segments + mapped window in
  /// spill mode, vector capacity otherwise) + intern table + hash cache.
  /// This is the number the bench reports as bytes/state and the number the
  /// spill auto-engage threshold compares against.
  [[nodiscard]] std::size_t memory_bytes() const {
    return arena_.memory_bytes() + table_.capacity() * sizeof(std::uint32_t) +
           hashes_.capacity() * sizeof(std::uint64_t);
  }
  [[nodiscard]] std::size_t spilled_bytes() const { return arena_.spilled_bytes(); }
  [[nodiscard]] std::size_t peak_resident_bytes() const {
    return arena_.peak_resident_bytes() + table_.capacity() * sizeof(std::uint32_t) +
           hashes_.capacity() * sizeof(std::uint64_t);
  }
  [[nodiscard]] bool spill_engaged() const { return arena_.spill_engaged(); }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  void grow_table(std::size_t capacity);
  /// std::equal, not memcmp: a zero-width store's states have no storage,
  /// and memcmp must not be passed its null pointer even for 0 bytes.
  [[nodiscard]] bool equals(std::size_t index, const std::uint32_t* words) const {
    const auto state = arena_[index];
    return std::equal(state.begin(), state.end(), words);
  }

  StateArena arena_;
  std::vector<std::uint32_t> table_;  ///< state index per slot, kEmpty if free
  /// hash_words per state. Lets probe chains reject mismatches and table
  /// growth rehash everything without touching spilled segments.
  std::vector<std::uint64_t> hashes_;
  std::size_t mask_ = 0;              ///< table size - 1 (power of two)
};

}  // namespace pnut::analysis
