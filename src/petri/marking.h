// Markings: the token state of a net, plus enablement tests.
//
// A marking is a dense vector of token counts indexed by PlaceId. The
// token test implements the paper's rules: every input place must hold at
// least the arc weight, and every inhibitor place must hold fewer tokens
// than the inhibitor threshold. (For interpreted nets the transition's
// predicate must also hold on the current data state; the engines evaluate
// it as bytecode.)
#pragma once

#include <bit>
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

/// The one word hash: MarkingHash and every StateStore's intern table use
/// it, so a marking hashes the same whether it lives in a Marking or in a
/// flat arena word slice.
///
/// Word pairs form 64-bit lanes, built with shifts so the value does not
/// depend on byte order. Four independent multiply lanes take eight words
/// per round: a 111-word timed state is 14 dependent rounds, not 111
/// dependent multiplies. Widths that are not a multiple of eight finish
/// with up to three pairs on the first three lanes and a last odd word on
/// the fourth. A splitmix64 finalizer mixes the lanes into every bit,
/// because the intern table probes the low bits. Only speed depends on the
/// value: state ids are discovery order.
[[nodiscard]] constexpr std::uint64_t hash_words(const std::uint32_t* words,
                                                 std::size_t count) noexcept {
  constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  const auto pair = [words](std::size_t i) {
    return static_cast<std::uint64_t>(words[i]) |
           static_cast<std::uint64_t>(words[i + 1]) << 32;
  };
  const auto round = [](std::uint64_t lane, std::uint64_t input) {
    return std::rotl(lane + input * kPrime2, 31) * kPrime1;
  };
  std::uint64_t a = kPrime1 + kPrime2;
  std::uint64_t b = kPrime2;
  std::uint64_t c = kPrime1;
  std::uint64_t d = 0 - kPrime1;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    a = round(a, pair(i));
    b = round(b, pair(i + 2));
    c = round(c, pair(i + 4));
    d = round(d, pair(i + 6));
  }
  const std::size_t rest = count - i;  // 0-7 words
  if (rest >= 2) a = round(a, pair(i));
  if (rest >= 4) b = round(b, pair(i + 2));
  if (rest >= 6) c = round(c, pair(i + 4));
  if (rest % 2 != 0) d = round(d, words[count - 1]);
  std::uint64_t h =
      std::rotl(a, 1) + std::rotl(b, 7) + std::rotl(c, 12) + std::rotl(d, 18) + count;
  // splitmix64 finalizer.
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
