// Small helpers shared across pnbench: a seeded generator,
// order statistics, output digests, clocks and process facts.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pnbench {

/// splitmix64: the whole workload is a pure function of the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a 64 over bytes, chainable.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[static_cast<std::size_t>(i)] = kDigits[v & 15];
  return s;
}

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The tail order statistic: the highest one with at least `beyond`
/// samples strictly above it in rank. For n samples that is the value at
/// sorted index n - beyond - 1, the (100 * (n - beyond) / n)-th percentile.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;  ///< samples in the distribution
  std::size_t beyond = 0;   ///< samples ranked above the tail value
};

/// Lower median (sorted index (n-1)/2). Empty input gives 0.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

/// Returns a Tail with samples == 0 when there are not enough samples to
/// leave `beyond` above the tail and still have one below it.
inline Tail tail_with_beyond(std::vector<double> v, std::size_t beyond = 10) {
  Tail t;
  if (v.size() < beyond + 2) return t;
  std::sort(v.begin(), v.end());
  const std::size_t index = v.size() - beyond - 1;
  t.value = v[index];
  t.samples = v.size();
  t.beyond = beyond;
  t.percentile = 100.0 * static_cast<double>(v.size() - beyond) /
                 static_cast<double>(v.size());
  return t;
}

/// Binomial coefficient, exact for the ring sizes used here.
inline std::uint64_t choose(std::uint64_t n, std::uint64_t k) {
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

/// User plus system CPU time of the calling process, in seconds.
double self_cpu_seconds();
/// Peak resident set of the calling process, in MiB.
double self_peak_rss_mb();
/// VmHWM of another process from /proc, in MiB (0 if unreadable).
double proc_peak_rss_mb(int pid);
/// Host-speed diagnostic: milliseconds a fixed single-thread integer spin
/// and a fixed pointer chase take, and the CPUs delivered to a short
/// parallel spin.
struct HostSpeed {
  double spin_ms = 0;
  double chase_ms = 0;
  double cpus_delivered = 0;
  unsigned cpus_reported = 0;
};
HostSpeed measure_host_speed();

}  // namespace pnbench
