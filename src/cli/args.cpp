#include "cli/args.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pnut::cli {

namespace {

/// "unknown flag --thread (simulate takes: --keep --seed ...)" — the list
/// makes the typo obvious without a round trip through `pnut help`.
[[noreturn]] void throw_unknown_flag(const std::string& name, const FlagSpec& spec) {
  std::string known;
  for (const std::string& f : spec.value_flags) known += " --" + f;
  for (const std::string& f : spec.bool_flags) known += " --" + f;
  if (spec.markers) known += " --marker";
  if (known.empty()) {
    throw std::invalid_argument("unknown flag --" + name +
                                " (this command takes no flags)");
  }
  throw std::invalid_argument("unknown flag --" + name +
                              " (this command takes:" + known + ")");
}

}  // namespace

Args::Args(const std::vector<std::string>& argv, std::size_t start,
           const FlagSpec& spec) {
  for (std::size_t i = start; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string name = a.substr(2);
      if (spec.bool_flags.count(name) > 0) {
        flags_[name] = "true";
      } else if (name == "marker" && spec.markers) {
        if (i + 1 >= argv.size()) {
          throw std::invalid_argument("flag --" + name + " needs a value");
        }
        markers_.push_back(argv[++i]);
      } else if (spec.value_flags.count(name) > 0) {
        if (i + 1 >= argv.size()) {
          throw std::invalid_argument("flag --" + name + " needs a value");
        }
        flags_[name] = argv[++i];
      } else {
        throw_unknown_flag(name, spec);
      }
    } else {
      positional_.push_back(a);
    }
  }
}

std::optional<double> parse_finite_number(std::string_view raw) {
  double value = 0;
  const char* const first = raw.data();
  const char* const last = first + raw.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, std::chars_format::general);
  if (raw.empty() || ec != std::errc() || ptr != last || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

double Args::get_number(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::optional<double> value = parse_finite_number(it->second);
  if (!value) {
    throw std::invalid_argument("flag --" + name + " expects a finite number, got '" +
                                it->second + "'");
  }
  return *value;
}

std::uint64_t Args::get_uint64(const std::string& name, std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& raw = it->second;
  std::uint64_t value = 0;
  const char* const first = raw.data();
  const char* const last = first + raw.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (raw.empty() || ec != std::errc() || ptr != last) {
    throw std::invalid_argument("flag --" + name +
                                " expects a non-negative integer (64-bit), got '" +
                                raw + "'");
  }
  return value;
}

unsigned parse_threads(const Args& args) {
  constexpr double kMaxThreads = 4096;
  const double raw = args.get_number("threads", 1);
  if (raw < 0 || raw > kMaxThreads || raw != std::floor(raw)) {
    throw std::invalid_argument(
        "--threads must be an integer in [0, 4096] (0 = all hardware threads)");
  }
  return static_cast<unsigned>(raw);
}

std::optional<std::size_t> parse_byte_size(const std::string& raw) {
  unsigned long long value = 0;
  std::size_t pos = 0;
  if (!raw.empty() && std::isdigit(static_cast<unsigned char>(raw[0]))) {
    try {
      value = std::stoull(raw, &pos);
    } catch (const std::out_of_range&) {
      pos = 0;
    }
  }
  std::size_t scale = 1;
  if (pos + 1 == raw.size()) {
    switch (raw[pos]) {
      case 'K': case 'k': scale = std::size_t{1} << 10; ++pos; break;
      case 'M': case 'm': scale = std::size_t{1} << 20; ++pos; break;
      case 'G': case 'g': scale = std::size_t{1} << 30; ++pos; break;
      default: break;
    }
  }
  if (pos != raw.size() || value == 0) return std::nullopt;
  // The product must fit std::size_t: near-SIZE_MAX suffixed budgets would
  // otherwise wrap to a tiny number and silently spill everything.
  if (value > std::numeric_limits<std::size_t>::max() / scale) return std::nullopt;
  return static_cast<std::size_t>(value) * scale;
}

std::optional<double> parse_timeout(const Args& args) {
  if (!args.has("timeout")) return std::nullopt;
  const double seconds = args.get_number("timeout", 0);
  if (!std::isfinite(seconds) || seconds < 0) {
    throw std::invalid_argument("--timeout must be a finite number of seconds >= 0");
  }
  return seconds;
}

analysis::SpillOptions parse_spill(const Args& args) {
  analysis::SpillOptions spill;
  if (args.has("max-resident-bytes")) {
    const std::string raw = args.get("max-resident-bytes");
    const auto bytes = parse_byte_size(raw);
    if (!bytes) {
      throw std::invalid_argument(
          "--max-resident-bytes expects a positive byte count with an "
          "optional K/M/G suffix, got '" + raw + "'");
    }
    spill.max_resident_bytes = *bytes;
  }
  if (args.has("spill-dir")) {
    if (spill.max_resident_bytes == 0) {
      throw std::invalid_argument(
          "--spill-dir requires --max-resident-bytes (no budget, no spilling)");
    }
    spill.dir = args.get("spill-dir");
  }
  return spill;
}

}  // namespace pnut::cli
