// Flag parsing for the pnut command surface (shared by the one-shot CLI
// and the serve request loop).
//
// Every command declares its complete flag vocabulary in a FlagSpec; a flag
// outside the spec is a usage error, not a silent no-op — `--thread 4` or
// `--horizen 100` must fail loudly instead of running with defaults. The
// numeric accessors are strict about their domains: get_number takes the
// whole string as one finite decimal number (no `100abc`, `0x20`, `inf`),
// get_uint64 parses the full 64-bit range exactly (seeds are uint64
// streams; routing them through double would silently lose precision above
// 2^53 and silently truncate `--seed 1.5`), and parse_byte_size rejects
// budgets whose value * scale would wrap std::size_t.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/spill.h"

namespace pnut::cli {

/// A command's complete flag vocabulary, split by arity.
struct FlagSpec {
  std::set<std::string> value_flags;  ///< --name VALUE
  std::set<std::string> bool_flags;   ///< --name
  bool markers = false;               ///< repeatable --marker X=T (render)
};

/// Parsed flag set: --name value pairs plus positional arguments, checked
/// against the owning command's FlagSpec at construction.
class Args {
 public:
  /// Parse `argv[start..]`. Throws std::invalid_argument on a flag outside
  /// `spec` (listing the flags the command does take) or on a value flag
  /// missing its value.
  Args(const std::vector<std::string>& argv, std::size_t start, const FlagSpec& spec);

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::vector<std::string>& markers() const { return markers_; }

  [[nodiscard]] bool has(const std::string& name) const { return flags_.count(name) > 0; }

  [[nodiscard]] std::string get(const std::string& name, std::string fallback = {}) const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }

  /// A finite decimal number (parse_finite_number); anything else is a
  /// usage error naming the flag.
  [[nodiscard]] double get_number(const std::string& name, double fallback) const;

  /// Strict base-10 unsigned 64-bit integer: the full [0, 2^64) range is
  /// representable exactly, and anything else — sign, fraction, exponent,
  /// suffix, overflow — is a usage error. Seeds, replication counts and
  /// state limits parse through this, never through double.
  [[nodiscard]] std::uint64_t get_uint64(const std::string& name,
                                         std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> markers_;
};

/// One `--threads` rule for every command that takes the flag: a
/// non-negative integer, 0 meaning all hardware threads (the replication
/// engine resolves 0 itself; analyze and query --reach validate the flag
/// but explore on one thread). Negative, fractional and absurd values are
/// rejected up front — a four-billion-thread request should be a usage
/// error, not std::thread resource exhaustion.
unsigned parse_threads(const Args& args);

/// A byte count with an optional K/M/G binary suffix. Returns nullopt for
/// anything malformed: empty, non-numeric, zero, trailing junk, or a
/// value * scale product that would wrap std::size_t (a `--max-resident-bytes
/// 99999999999999999G` must not wrap to a tiny budget).
std::optional<std::size_t> parse_byte_size(const std::string& raw);

/// One out-of-core rule for every analysis command (analyze, query
/// --reach): --max-resident-bytes N[K|M|G] bounds the graph's resident
/// footprint and engages segment spilling; --spill-dir names the directory
/// that receives the segment files and is meaningless without a budget, so
/// alone it is a usage error.
analysis::SpillOptions parse_spill(const Args& args);

/// One `--timeout S` rule for every long-running command (simulate,
/// replicate, query, analyze): a finite number of seconds >= 0, returned
/// as nullopt when the flag is absent. 0 is a legal pre-expired deadline —
/// the command stops at its first cancellation poll, which the differential
/// tests use to pin deterministic stop positions.
std::optional<double> parse_timeout(const Args& args);

}  // namespace pnut::cli
