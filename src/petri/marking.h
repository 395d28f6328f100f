// Markings: the token state of a net, plus enablement tests.
//
// A marking is a dense vector of token counts indexed by PlaceId. The
// token test implements the paper's rules: every input place must hold at
// least the arc weight, and every inhibitor place must hold fewer tokens
// than the inhibitor threshold. (For interpreted nets the transition's
// predicate must also hold on the current data state; the engines evaluate
// it as bytecode.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "petri/ids.h"
#include "petri/net.h"

namespace pnut {

[[noreturn]] void throw_token_overflow(PlaceId p);

/// Deposit `n` tokens on a flat token count (a Marking's slot or an arena
/// word) of place `p`: throws std::overflow_error naming `p` instead of
/// wrapping. Marking::add and the word-level timed explorer share it, so
/// both raise the same text.
inline void add_tokens_checked(TokenCount& slot, PlaceId p, TokenCount n) {
  if (slot > std::numeric_limits<TokenCount>::max() - n) throw_token_overflow(p);
  slot += n;
}

class Marking {
 public:
  Marking() = default;
  explicit Marking(std::size_t num_places) : tokens_(num_places, 0) {}

  /// The net's initial marking.
  static Marking initial(const Net& net);

  /// Rebuild a marking from a flat token-count span (the inverse of reading
  /// tokens() into an arena word slice; see analysis::StateStore).
  static Marking from_tokens(std::span<const TokenCount> tokens) {
    Marking m;
    m.tokens_.assign(tokens.begin(), tokens.end());
    return m;
  }

  [[nodiscard]] std::size_t size() const { return tokens_.size(); }

  [[nodiscard]] TokenCount operator[](PlaceId p) const { return tokens_.at(p.value); }
  [[nodiscard]] TokenCount& operator[](PlaceId p) { return tokens_.at(p.value); }

  /// Deposit `n` tokens on `p`.
  void add(PlaceId p, TokenCount n);

  /// Remove `n` tokens from `p`; throws std::underflow_error if fewer are
  /// present (a semantic bug in the caller, never silently clamped).
  void remove(PlaceId p, TokenCount n);

  /// Total tokens across all places.
  [[nodiscard]] std::uint64_t total() const;

  [[nodiscard]] const std::vector<TokenCount>& tokens() const { return tokens_; }

  /// `name=count` pairs for all marked places, e.g. "Bus_free=1 Empty=6".
  [[nodiscard]] std::string to_string(const Net& net) const;

  friend bool operator==(const Marking&, const Marking&) = default;

 private:
  std::vector<TokenCount> tokens_;
};

/// FNV-1a over 32-bit words with a final avalanche; the one hash shared by
/// MarkingHash and the analysis-layer StateStore, so a marking hashes the
/// same whether it lives in a Marking or in a flat arena word slice.
[[nodiscard]] constexpr std::uint64_t hash_words(const std::uint32_t* words,
                                                 std::size_t count) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h *= 1099511628211ULL;
  }
  // Finalization (splitmix64 tail): FNV alone leaves the low bits weak for
  // power-of-two open-addressed tables.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Word hash over token counts; used by the exploration core's visited-set.
struct MarkingHash {
  std::size_t operator()(const Marking& m) const noexcept;
};

/// Token-availability test (input weights satisfied, inhibitors clear).
/// Predicates are expressions over the data state; the engines evaluate
/// them as bytecode (expr/program.h).
[[nodiscard]] bool tokens_available(const Net& net, const Marking& m, TransitionId t);

/// How many times `t` could fire concurrently from `m` on token counts alone
/// (inhibitors allow either 0 or unbounded concurrent enablement; bounded
/// here by what input tokens support). Used for infinite-server semantics.
[[nodiscard]] TokenCount enabling_degree(const Net& net, const Marking& m, TransitionId t);

}  // namespace pnut
