#include "analysis/state_store.h"

#include <stdexcept>

#include "util/fault_inject.h"

namespace pnut::analysis {

namespace {
constexpr std::size_t kInitialTableSize = 1024;  // power of two
}

StateStore::StateStore(std::size_t width) : arena_(width) {
  grow_table(kInitialTableSize);
}

StateStore::Interned StateStore::intern(std::span<const std::uint32_t> words) {
  const std::uint64_t h = hash_words(words.data(), words.size());
  // Grow at 70% load so probe chains stay short.
  if ((arena_.size() + 1) * 10 > (mask_ + 1) * 7) {
    grow_table((mask_ + 1) * 2);
  }

  std::size_t slot = h & mask_;
  while (true) {
    const std::uint32_t occupant = table_[slot];
    if (occupant == kEmpty) {
      if (arena_.size() >= kEmpty) {
        throw std::length_error("StateStore: state index space exhausted");
      }
      const std::uint32_t index = arena_.push(words);
      hashes_.push_back(h);
      table_[slot] = index;
      return Interned{index, true};
    }
    // Cached-hash filter: a mismatching hash can skip the word compare —
    // which in spill mode would fault the occupant's segment in from disk.
    if (hashes_[occupant] == h && equals(occupant, words.data())) {
      return Interned{occupant, false};
    }
    slot = (slot + 1) & mask_;
  }
}

void StateStore::reserve(std::size_t states) {
  arena_.reserve(states);
  hashes_.reserve(states);
  std::size_t capacity = kInitialTableSize;
  while (states * 10 > capacity * 7) capacity *= 2;
  if (capacity > mask_ + 1) grow_table(capacity);
}

void StateStore::grow_table(std::size_t capacity) {
  testing::FaultInjector::check(testing::FaultInjector::Site::kArenaGrow);
  table_.assign(capacity, kEmpty);
  mask_ = capacity - 1;
  // The cached hashes never touch the (possibly spilled) arena.
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    std::size_t slot = hashes_[i] & mask_;
    while (table_[slot] != kEmpty) slot = (slot + 1) & mask_;
    table_[slot] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace pnut::analysis
