#include "util.h"

#include <sys/resource.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>

namespace pnbench {

double self_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double proc_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

namespace {

/// Results of the calibration loops land here, so they cannot be elided.
std::atomic<std::uint64_t> g_sink{0};

/// A fixed amount of dependent integer work.
std::uint64_t spin(std::uint64_t rounds) {
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Dependent random loads over a buffer larger than most L2 caches:
/// sensitive to cache and memory contention from other tenants, which the
/// integer spin does not see.
double chase_ms() {
  constexpr std::size_t kSlots = std::size_t{1} << 21;  // 16 MiB of indices
  std::vector<std::uint64_t> next(kSlots);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = i;
  for (std::size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  std::uint64_t at = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < 1'000'000; ++i) at = next[at];
  const double ms = ms_between(t0, Clock::now());
  g_sink += at;
  return ms;
}

}  // namespace

HostSpeed measure_host_speed() {
  constexpr std::uint64_t kSpinRounds = 20'000'000;
  HostSpeed h;
  h.chase_ms = chase_ms();
  h.cpus_reported = std::max(1u, std::thread::hardware_concurrency());
  const auto t0 = Clock::now();
  g_sink += spin(kSpinRounds);
  h.spin_ms = ms_between(t0, Clock::now());
  // CPUs delivered: the same spin on every reported CPU at once; perfect
  // parallelism finishes in one spin's time.
  std::vector<std::thread> pool;
  const auto t1 = Clock::now();
  for (unsigned i = 0; i < h.cpus_reported; ++i) {
    pool.emplace_back([] { g_sink += spin(kSpinRounds); });
  }
  for (std::thread& t : pool) t.join();
  const double wall = ms_between(t1, Clock::now());
  h.cpus_delivered = wall > 0 ? h.cpus_reported * h.spin_ms / wall : 0;
  return h;
}

}  // namespace pnbench
