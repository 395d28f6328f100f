// Unit tests for the arena-interned exploration core (state_store.h,
// exploration.h): interning identity, collision handling under heavy load,
// table growth, and the CSR edge buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <unordered_map>
#include <vector>

#include "analysis/exploration.h"
#include "analysis/state_store.h"

namespace pnut::analysis {
namespace {

TEST(StateStore, InternReturnsStableIndices) {
  StateStore store(3);
  const std::vector<std::uint32_t> a{1, 2, 3};
  const std::vector<std::uint32_t> b{1, 2, 4};

  const auto first = store.intern(a);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.index, 0u);

  const auto second = store.intern(b);
  EXPECT_TRUE(second.inserted);
  EXPECT_EQ(second.index, 1u);

  // Re-interning returns the original index without growing the arena.
  const auto again = store.intern(a);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.index, 0u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StateStore, StateReadsBackExactWords) {
  StateStore store(4);
  const std::vector<std::uint32_t> words{7, 0, UINT32_MAX, 42};
  const auto r = store.intern(words);
  const auto read = store.state(r.index);
  ASSERT_EQ(read.size(), 4u);
  EXPECT_TRUE(std::equal(words.begin(), words.end(), read.begin()));
}

TEST(StateStore, DistinguishesZeroFromAbsentPattern) {
  // Two states differing only in one word must never alias.
  StateStore store(2);
  EXPECT_TRUE(store.intern(std::vector<std::uint32_t>{0, 0}).inserted);
  EXPECT_TRUE(store.intern(std::vector<std::uint32_t>{0, 1}).inserted);
  EXPECT_TRUE(store.intern(std::vector<std::uint32_t>{1, 0}).inserted);
  EXPECT_EQ(store.size(), 3u);
}

TEST(StateStore, GrowthPreservesIndicesAndIdentity) {
  // Push far past the initial table size to force several rehashes, then
  // verify every state still interns to its original index.
  constexpr std::size_t kStates = 50'000;
  StateStore store(2);
  for (std::uint32_t i = 0; i < kStates; ++i) {
    const auto r = store.intern(std::vector<std::uint32_t>{i, i * 2654435761u});
    ASSERT_TRUE(r.inserted);
    ASSERT_EQ(r.index, i);
  }
  EXPECT_EQ(store.size(), kStates);
  for (std::uint32_t i = 0; i < kStates; i += 97) {
    const auto r = store.intern(std::vector<std::uint32_t>{i, i * 2654435761u});
    EXPECT_FALSE(r.inserted);
    EXPECT_EQ(r.index, i);
  }
}

TEST(StateStore, RandomizedAgainstUnorderedMap) {
  // Collision behavior: random states drawn from a small value domain so
  // duplicates and probe chains are common; the store must agree with a
  // reference map exactly.
  std::mt19937 rng(42);
  std::uniform_int_distribution<std::uint32_t> dist(0, 7);
  StateStore store(4);
  std::unordered_map<std::string, std::uint32_t> reference;
  for (int trial = 0; trial < 20'000; ++trial) {
    std::vector<std::uint32_t> words(4);
    std::string key;
    for (auto& w : words) {
      w = dist(rng);
      key += static_cast<char>('a' + w);
    }
    const auto r = store.intern(words);
    const auto [it, inserted] =
        reference.emplace(key, static_cast<std::uint32_t>(reference.size()));
    EXPECT_EQ(r.inserted, inserted);
    EXPECT_EQ(r.index, it->second);
  }
  EXPECT_EQ(store.size(), reference.size());
}

struct ProbeStats {
  std::size_t longest = 0;  ///< slots past the home slot
  double mean = 0;
};

/// Linear-probe lengths when `hashes` are inserted in order into a table
/// sized by StateStore's rule (1024 slots, doubled while the load would
/// pass 70%).
ProbeStats probe_stats(const std::vector<std::uint64_t>& hashes) {
  std::size_t capacity = 1024;
  while (hashes.size() * 10 > capacity * 7) capacity *= 2;
  std::vector<bool> used(capacity, false);
  ProbeStats stats;
  std::size_t total = 0;
  for (const std::uint64_t h : hashes) {
    std::size_t slot = h & (capacity - 1);
    std::size_t probe = 0;
    while (used[slot]) {
      slot = (slot + 1) & (capacity - 1);
      ++probe;
    }
    used[slot] = true;
    total += probe;
    stats.longest = std::max(stats.longest, probe);
  }
  stats.mean = static_cast<double>(total) / static_cast<double>(hashes.size());
  return stats;
}

TEST(StateStore, RingMarkingsHashApartWithShortProbes) {
  // Every marking of a 10-place ring holding 6 tokens (5005 markings of
  // small, mostly-zero words, the shape real states have): each interns
  // as a new state with its own 64-bit hash, and the table's low bits
  // spread them like random ones. For 5005 uniformly random hashes in the
  // 8192-slot table, the mean probe is 0.67-0.92 slots and the longest
  // 75 or less in 99.9% of tables (simulated); a multiply-add polynomial
  // hash without a finalizer averages 13 slots here, its longest 90.
  constexpr std::size_t kPlaces = 10;
  constexpr std::uint32_t kTokens = 6;
  StateStore store(kPlaces);
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint32_t> marking(kPlaces, 0);
  const auto place = [&](auto&& self, std::size_t p, std::uint32_t left) -> void {
    if (p + 1 == kPlaces) {
      marking[p] = left;
      const auto r = store.intern(marking);
      ASSERT_TRUE(r.inserted);
      ASSERT_EQ(r.index, hashes.size());
      hashes.push_back(hash_words(marking.data(), marking.size()));
      return;
    }
    for (std::uint32_t n = 0; n <= left; ++n) {
      marking[p] = n;
      self(self, p + 1, left - n);
    }
  };
  place(place, 0, kTokens);
  ASSERT_EQ(store.size(), 5005u);
  std::vector<std::uint64_t> sorted = hashes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  const ProbeStats probes = probe_stats(hashes);
  EXPECT_LE(probes.mean, 1.0);
  EXPECT_LE(probes.longest, 80u);
}

TEST(StateStore, EveryWidthHashesEveryWord) {
  // Widths 0-17: the zero state and every one-word change of it (a low
  // bit, a high bit) intern apart with distinct hashes and read back.
  // Each width ends the hash's word loop at a different place.
  for (std::size_t width = 0; width <= 17; ++width) {
    StateStore store(width);
    std::vector<std::vector<std::uint32_t>> states{std::vector<std::uint32_t>(width, 0)};
    for (std::size_t i = 0; i < width; ++i) {
      for (const std::uint32_t value : {1u, 0x80000000u}) {
        states.emplace_back(width, 0);
        states.back()[i] = value;
      }
    }
    std::vector<std::uint64_t> hashes;
    for (std::size_t k = 0; k < states.size(); ++k) {
      const auto r = store.intern(states[k]);
      EXPECT_TRUE(r.inserted) << "width " << width << " state " << k;
      EXPECT_EQ(r.index, k) << "width " << width;
      hashes.push_back(hash_words(states[k].data(), width));
    }
    for (std::size_t k = 0; k < states.size(); ++k) {
      const auto r = store.intern(states[k]);
      EXPECT_FALSE(r.inserted) << "width " << width << " state " << k;
      EXPECT_EQ(r.index, k) << "width " << width;
      const auto read = store.state(k);
      EXPECT_TRUE(std::equal(read.begin(), read.end(), states[k].begin()))
          << "width " << width << " state " << k;
    }
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end())
        << "width " << width;
  }
}

TEST(StateStore, HashIsTheSameAtCompileTimeAndRunTime) {
  // hash_words is constexpr, and constant evaluation cannot depend on byte
  // order; a run-time hash equal to the compile-time one shows the run-time
  // path builds its lanes the same way (shifts, not byte copies).
  static constexpr std::uint32_t kWords[] = {3, 0, 1, 0xffffffffu, 7, 0, 0, 2, 9, 0x80000000u, 5};
  constexpr std::uint64_t kAtCompileTime = hash_words(kWords, std::size(kWords));
  const std::vector<std::uint32_t> words(std::begin(kWords), std::end(kWords));
  EXPECT_EQ(hash_words(words.data(), words.size()), kAtCompileTime);
}

TEST(StateStore, ReserveDoesNotDisturbContents) {
  StateStore store(2);
  store.intern(std::vector<std::uint32_t>{9, 9});
  store.reserve(100'000);
  const auto r = store.intern(std::vector<std::uint32_t>{9, 9});
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(r.index, 0u);
}

TEST(StateStore, MemoryScalesWithWidthNotStateObjects) {
  StateStore store(8);
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    store.intern(std::vector<std::uint32_t>{i, 0, 0, 0, 0, 0, 0, i});
  }
  // 8 words = 32 bytes of arena per state; the intern table and the 8-byte
  // hash cache add a bounded amount per state. Anything above ~3x the raw
  // payload means per-state heap objects crept back in.
  const double bytes_per_state =
      static_cast<double>(store.memory_bytes()) / static_cast<double>(store.size());
  EXPECT_GE(bytes_per_state, 32.0);
  EXPECT_LE(bytes_per_state, 96.0);
}

TEST(StateStore, InternInvalidatesPriorSpans) {
  // The intern contract (state_store.h): spans returned by state() are
  // views into the arena, and intern() can grow the arena — which
  // reallocates it and invalidates every previously returned span. A
  // caller that keeps a parent state across interning (every expansion
  // loop) must copy the slice into its own buffer first. This test pins both halves: the arena
  // genuinely moves under growth, and the copy-first pattern preserves
  // identity across any number of reallocations and rehashes.
  StateStore store(4);
  const std::vector<std::uint32_t> first{11, 22, 33, 44};
  store.intern(first);

  // Record the arena address as an integer NOW — after growth the old
  // pointer value is dangling and must not be dereferenced (or even read
  // as a pointer).
  const auto address_before = reinterpret_cast<std::uintptr_t>(store.state(0).data());

  // The mandated pattern: copy the slice before interning anything else.
  const std::vector<std::uint32_t> copy(store.state(0).begin(), store.state(0).end());

  // Force many growth steps: arena reallocations and table rehashes.
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    store.intern(std::vector<std::uint32_t>{i, i * 2654435761u, ~i, 5});
  }

  // The 16-byte initial block cannot survive growth to ~1.6 MB in place:
  // the arena moved, so a span taken before the loop would now dangle.
  const auto address_after = reinterpret_cast<std::uintptr_t>(store.state(0).data());
  EXPECT_NE(address_before, address_after);

  // The copy, not the span, is what stays valid — and it still interns to
  // the original index with the original words.
  const auto r = store.intern(copy);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(r.index, 0u);
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), store.state(0).begin()));
  EXPECT_TRUE(std::equal(first.begin(), first.end(), copy.begin()));
}

TEST(EdgeCsr, RowsAreContiguousAndComplete) {
  struct E {
    std::uint32_t target;
  };
  EdgeCsr<E> csr;
  csr.begin_source(0);
  csr.add(E{1});
  csr.add(E{2});
  csr.begin_source(2);  // source 1 never expanded
  csr.add(E{0});
  csr.finalize(4);

  ASSERT_EQ(csr.out(0).size(), 2u);
  EXPECT_EQ(csr.out(0)[0].target, 1u);
  EXPECT_EQ(csr.out(0)[1].target, 2u);
  EXPECT_EQ(csr.out_degree(1), 0u);
  ASSERT_EQ(csr.out(2).size(), 1u);
  EXPECT_EQ(csr.out(2)[0].target, 0u);
  EXPECT_EQ(csr.out_degree(3), 0u);
  EXPECT_EQ(csr.num_edges(), 3u);
}

TEST(StateArena, SpillAccountingIsExact) {
  // Width 4 = 16 bytes/state; segment_bytes 256 -> 16 states per segment,
  // 256-byte payload per segment. Budget 300: at most one full heap
  // segment stays resident once the floor passes the rest.
  auto dir = std::make_shared<detail::SpillDir>("");
  StateArena arena(4);
  arena.enable_spill(dir, "arena.seg", 256, 300);
  EXPECT_EQ(arena.memory_bytes(), 0u);

  std::vector<std::uint32_t> words(4);
  for (std::uint32_t i = 0; i < 64; ++i) {
    arena.set_spill_floor(i);  // everything before the new state is sealed
    words = {i, i * 3u, ~i, 7u};
    EXPECT_EQ(arena.push(words), i);
  }

  // 4 full segments were written; the floor (state 63 -> segment 3) lets
  // segments 0..2 spill, segment 3 stays heap-resident. The accounting is
  // exact: resident + spilled == the 1024 bytes of payload ever appended,
  // and the peak saw exactly two live segments (the rollover instant).
  EXPECT_TRUE(arena.spill_engaged());
  EXPECT_EQ(arena.memory_bytes(), 256u);
  EXPECT_EQ(arena.spilled_bytes(), 768u);
  EXPECT_EQ(arena.memory_bytes() + arena.spilled_bytes(), 64u * 16u);
  EXPECT_EQ(arena.peak_resident_bytes(), 512u);

  // Spilled states fault back in bit-exact, and the mapped window stays
  // bounded: at most the heap tail plus the FIFO-evicted mappings.
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto s = arena[i];
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0], i);
    EXPECT_EQ(s[1], i * 3u);
    EXPECT_EQ(s[2], ~i);
    EXPECT_EQ(s[3], 7u);
  }
  EXPECT_EQ(arena.spilled_bytes(), 768u);  // reads never rewrite the file
  EXPECT_LE(arena.memory_bytes(), 4u * 256u);
}

TEST(StateStore, SpillKeepsInternIdentityAndBoundsResidency) {
  // A spilled store must stay a correct interner: the hash cache filters
  // probes and feeds table growth without faulting, but equality is still
  // decided by the arena words — including words that have to fault back
  // in from the spill file.
  auto dir = std::make_shared<detail::SpillDir>("");
  StateStore store(8);
  store.enable_spill(dir, "states.seg", 4096, 8192);

  constexpr std::uint32_t kStates = 10'000;
  for (std::uint32_t i = 0; i < kStates; ++i) {
    store.set_spill_floor(store.size());
    const auto r = store.intern(std::vector<std::uint32_t>{i, 0, 0, 0, 0, 0, 0, i});
    ASSERT_TRUE(r.inserted);
    ASSERT_EQ(r.index, i);
  }

  // 320 KB of state payload against an 8 KB arena budget: most of it must
  // be on disk, and the resident footprint (arena window + intern table +
  // hash cache) must come in under the flat arena alone.
  EXPECT_TRUE(store.spill_engaged());
  EXPECT_GE(store.spilled_bytes(), 300'000u);
  EXPECT_LT(store.memory_bytes(), kStates * 32u);

  // Re-interning early (spilled) states returns the original ids.
  for (std::uint32_t i = 0; i < kStates; i += 97) {
    const auto r = store.intern(std::vector<std::uint32_t>{i, 0, 0, 0, 0, 0, 0, i});
    EXPECT_FALSE(r.inserted);
    EXPECT_EQ(r.index, i);
  }
  EXPECT_EQ(store.size(), kStates);
}

TEST(EdgeCsr, SpilledRowsReadBackAcrossSegments) {
  struct E {
    std::uint32_t target;
  };
  // 64-byte segments hold 16 edges; rows of 5 force boundary padding
  // (16 = 3 rows + 1 hole) and the 40-row total spans many segments.
  EdgeCsr<E> csr;
  auto dir = std::make_shared<detail::SpillDir>("");
  csr.enable_spill(dir, "edges.seg", 64, 128);

  constexpr std::uint32_t kRows = 40;
  for (std::uint32_t s = 0; s < kRows; ++s) {
    csr.begin_source(s);
    for (std::uint32_t k = 0; k < 5; ++k) csr.add(E{s * 100 + k});
  }
  csr.finalize(kRows);

  EXPECT_TRUE(csr.spill_engaged());
  EXPECT_GT(csr.spilled_bytes(), 0u);
  EXPECT_EQ(csr.num_edges(), kRows * 5u);

  // Every row is one contiguous span (never straddling a segment), whether
  // heap-resident or faulted in — in random order and via the streaming
  // cursor.
  for (std::uint32_t s = kRows; s-- > 0;) {
    const auto row = csr.out(s);
    ASSERT_EQ(row.size(), 5u);
    for (std::uint32_t k = 0; k < 5; ++k) EXPECT_EQ(row[k].target, s * 100 + k);
  }
  std::size_t visited = 0;
  csr.for_each_row([&](std::size_t s, std::span<const E> row) {
    ASSERT_EQ(row.size(), 5u);
    EXPECT_EQ(row[0].target, s * 100);
    ++visited;
  });
  EXPECT_EQ(visited, kRows);
}

TEST(EdgeCsr, SpillRowExceedingSegmentCapacityThrows) {
  struct E {
    std::uint32_t target;
  };
  EdgeCsr<E> csr;
  auto dir = std::make_shared<detail::SpillDir>("");
  csr.enable_spill(dir, "edges.seg", 64, 1u << 20);  // 16 edges per segment

  csr.begin_source(0);
  for (std::uint32_t k = 0; k < 16; ++k) csr.add(E{k});
  // The 17th edge would need a 17-edge contiguous row: impossible in a
  // 16-edge segment, and relocation must say so rather than corrupt.
  EXPECT_THROW(csr.add(E{16}), std::length_error);
}

TEST(Frontier, FifoOrderAndDeduplication) {
  Frontier frontier;
  frontier.push_back(0);
  frontier.push_back(1);
  frontier.push_back(2);
  frontier.push_back(1);  // duplicate: skipped on pop

  EXPECT_EQ(frontier.pop_unexpanded(), 0u);
  EXPECT_EQ(frontier.pop_unexpanded(), 1u);
  EXPECT_EQ(frontier.pop_unexpanded(), 2u);
  EXPECT_EQ(frontier.pop_unexpanded(), std::nullopt);
  EXPECT_TRUE(frontier.expanded(2));
}

}  // namespace
}  // namespace pnut::analysis
