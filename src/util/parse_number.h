// Strict number reading for the text formats (.pn documents, traces,
// command-line flags).
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>

namespace pnut {

/// The whole of `text` as a base-10 integer of type T, or nullopt. No
/// leading '+' or whitespace, no trailing characters, no '-' for an
/// unsigned T, and the value must fit T: "-1" or "4294967296" is no
/// uint32_t, where std::stoul would have wrapped either into one.
template <typename T>
[[nodiscard]] std::optional<T> parse_int(std::string_view text) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

/// The whole of `text` as one finite number in std::from_chars' general
/// format (decimal, optional '-', fraction and exponent). nullopt for
/// anything else: empty, trailing text, hex, a leading '+' or space,
/// out-of-range, inf or nan.
[[nodiscard]] inline std::optional<double> parse_finite_number(std::string_view text) {
  double value = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value, std::chars_format::general);
  if (ec != std::errc() || ptr != last || !std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace pnut
