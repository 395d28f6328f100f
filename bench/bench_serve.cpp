// Serve-cache harness: hot-graph query latency vs cold one-shot invocation.
//
// Not a paper artifact — this measures the repository's own serving layer.
// The one-shot CLI pays parse + compile + full state-space exploration for
// every query; `pnut serve` keeps the sealed graph cached, so a hot query is
// a cache lookup plus a flat-array scan. Both paths run here against the
// same ring model: the cold path as a fresh cache-off Session per request
// (exactly what one process invocation executes), the hot path against one
// warm caching Session. Every hot answer is checked byte-identical to the
// cold one (any divergence exits nonzero), the hot/cold latency ratio is
// the smoke gate (< 10x fails the bench), and queries/second at 1..8
// concurrent clients over the shared cached graph lands in BENCH_serve.json.
//
// A loopback row drives the same warm Session through serve::Server: the
// round trip of a hot `analyze` whose frame is larger than the server's
// 4 KiB socket buffer, next to the same request in process. A median over
// 20 ms fails the bench — a frame stalled on Nagle plus delayed ACK costs
// ~40 ms.
#include "bench_util.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/session.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "textio/pn_format.h"

namespace pnut::bench {
namespace {

constexpr int kRingPlaces = 12;
constexpr int kRingTokens = 8;  // C(19, 8) = 75582 reachable markings
// Short-circuits on the initial marking: the microsecond-class query the
// serving layer exists for (the graph answers, no exploration).
constexpr const char* kPointQuery = "exists s in S [ P0(s) = 8 ]";
// Scans every state: the worst-case cached query, reported alongside.
constexpr const char* kScanQuery = "forall s in S [ P0(s) <= 8 ]";

std::string write_ring_model() {
  const auto path = std::filesystem::temp_directory_path() /
                    "pnut_bench_serve_ring.pn";
  std::ostringstream text;
  text << "net ring\n";
  for (int i = 0; i < kRingPlaces; ++i) {
    text << "place P" << i << (i == 0 ? " init " + std::to_string(kRingTokens) : "")
         << '\n';
  }
  for (int i = 0; i < kRingPlaces; ++i) {
    text << "trans t" << i << " in P" << i << " out P" << (i + 1) % kRingPlaces
         << '\n';
  }
  std::ofstream(path) << text.str();
  return path.string();
}

cli::Request query_request(const std::string& model, const char* query) {
  return {"query", {"--reach", model, query}};
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The q-quantile (nearest rank) of `samples`.
double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1))];
}

/// A blocking loopback client speaking the serve protocol.
class Client {
 public:
  explicit Client(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        read(std::strlen(serve::kGreeting)) != serve::kGreeting) {
      std::printf("cannot connect to the loopback server\n");
      std::exit(1);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line and return the framed response's stdout bytes
  /// (exits on a nonzero code or a torn frame).
  std::string round_trip(const std::string& line) {
    if (::send(fd_, line.data(), line.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(line.size())) {
      std::printf("send failed\n");
      std::exit(1);
    }
    std::string header;
    while (header.empty() || header.back() != '\n') {
      const std::string byte = read(1);
      if (byte.empty()) break;
      header += byte;
    }
    int code = -1;
    std::size_t outlen = 0;
    std::size_t errlen = 0;
    if (std::sscanf(header.c_str(), "= %d %zu %zu", &code, &outlen, &errlen) != 3 ||
        code != 0) {
      std::printf("bad response header '%s'\n", header.c_str());
      std::exit(1);
    }
    std::string body = read(outlen + errlen);
    body.resize(outlen);
    return body;
  }

 private:
  std::string read(std::size_t bytes) {
    std::string data(bytes, '\0');
    std::size_t got = 0;
    while (got < bytes) {
      const ssize_t n = ::recv(fd_, data.data() + got, bytes - got, 0);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    data.resize(got);
    return data;
  }

  int fd_;
};

void print_artifact() {
  print_header("bench_serve",
               "serve cache: hot-graph query latency vs cold one-shot "
               "invocation (not a paper artifact)");
  const std::string model = write_ring_model();
  std::printf("model: %d-place token ring, %d tokens\n\n", kRingPlaces, kRingTokens);

  // --- cold: what every one-shot process invocation pays ---------------------
  constexpr int kColdRuns = 3;
  cli::Result cold_result;
  double cold_seconds = 1e30;
  for (int i = 0; i < kColdRuns; ++i) {
    cli::Session one_shot;  // cache off: parse + compile + explore + query
    const auto t0 = std::chrono::steady_clock::now();
    cold_result = one_shot.execute(query_request(model, kPointQuery));
    cold_seconds = std::min(cold_seconds, seconds_since(t0));
  }
  if (cold_result.code != 0) {
    std::printf("cold query failed: %s\n", cold_result.err.c_str());
    std::exit(1);
  }

  // --- hot: the same request against a warm caching Session ------------------
  cli::SessionOptions options;
  options.cache = true;
  cli::Session server(options);
  const cli::Result warmup = server.execute(query_request(model, kPointQuery));
  if (warmup.code != cold_result.code || warmup.out != cold_result.out ||
      warmup.err != cold_result.err) {
    std::printf("MISMATCH: served result diverged from the one-shot result\n");
    std::exit(1);
  }
  std::size_t mismatches = 0;
  // Each hot request is timed on its own: the record keeps the median and
  // the quartiles of its runs.
  const auto time_hot = [&](const char* query, const cli::Result& oracle, int runs) {
    std::vector<double> us;
    for (int i = 0; i < runs; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const cli::Result hot = server.execute(query_request(model, query));
      us.push_back(seconds_since(t0) * 1e6);
      if (hot.out != oracle.out || hot.code != oracle.code) ++mismatches;
    }
    return us;
  };
  constexpr int kPointRuns = 200;
  constexpr int kScanRuns = 50;
  const std::vector<double> point_us = time_hot(kPointQuery, cold_result, kPointRuns);
  const cli::Result cold_scan = [&] {
    cli::Session one_shot;
    return one_shot.execute(query_request(model, kScanQuery));
  }();
  const std::vector<double> scan_us = time_hot(kScanQuery, cold_scan, kScanRuns);
  if (mismatches > 0) {
    std::printf("%zu hot answers diverged from the cold oracle\n", mismatches);
    std::exit(1);
  }

  const double point_median_us = quantile(point_us, 0.5);
  const double scan_median_us = quantile(scan_us, 0.5);
  const double speedup = cold_seconds * 1e6 / point_median_us;
  std::printf("cold (fresh session, explore every time): %8.2f ms\n",
              cold_seconds * 1e3);
  std::printf("hot  (cached graph, point query):         %8.2f us  (p25 %.2f, p75 %.2f; %.0fx)\n",
              point_median_us, quantile(point_us, 0.25), quantile(point_us, 0.75), speedup);
  std::printf("hot  (cached graph, full-scan query):     %8.2f us  (p25 %.2f, p75 %.2f)\n\n",
              scan_median_us, quantile(scan_us, 0.25), quantile(scan_us, 0.75));

  // --- throughput: N concurrent clients over the shared cached graph ---------
  const std::vector<int> kClients = {1, 2, 4, 8};
  std::vector<double> qps;
  constexpr int kRequestsPerClient = 200;
  for (const int clients : kClients) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          server.execute(query_request(model, kPointQuery));
        }
      });
    }
    for (std::thread& t : pool) t.join();
    const double elapsed = seconds_since(t0);
    qps.push_back(static_cast<double>(clients) * kRequestsPerClient / elapsed);
    std::printf("clients: %d   queries/second: %.0f\n", clients, qps.back());
  }
  std::printf("\n");

  // --- loopback TCP: a hot analyze whose frame outgrows the socket buffer ----
  const auto full_path =
      std::filesystem::temp_directory_path() / "pnut_bench_serve_full_pipeline.pn";
  std::ofstream(full_path) << textio::print_net(pipeline::build_full_model());
  const cli::Request analyze{"analyze", {full_path.string()}};
  const std::string analyze_line = "analyze \"" + full_path.string() + "\"\n";
  const cli::Result analyze_cold = cli::Session().execute(analyze);
  if (analyze_cold.code != 0 || analyze_cold.out.size() <= 4096) {
    std::printf("analyze of the full pipeline: code %d, %zu-byte frame\n",
                analyze_cold.code, analyze_cold.out.size());
    std::exit(1);
  }
  constexpr int kTcpRuns = 50;
  std::vector<double> tcp_ms;
  std::vector<double> in_process_ms;
  {
    serve::Server tcp(server, 0);
    tcp.start();
    Client client(tcp.port());
    if (client.round_trip(analyze_line) != analyze_cold.out) ++mismatches;  // warm
    for (int i = 0; i < kTcpRuns; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::string out = client.round_trip(analyze_line);
      tcp_ms.push_back(seconds_since(t0) * 1e3);
      if (out != analyze_cold.out) ++mismatches;
    }
    tcp.stop();
  }
  for (int i = 0; i < kTcpRuns; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const cli::Result hot = server.execute(analyze);
    in_process_ms.push_back(seconds_since(t0) * 1e3);
    if (hot.out != analyze_cold.out) ++mismatches;
  }
  std::filesystem::remove(full_path);
  if (mismatches > 0) {
    std::printf("%zu served analyze frames diverged from the cold oracle\n", mismatches);
    std::exit(1);
  }
  const double tcp_median_ms = quantile(tcp_ms, 0.5);
  const double in_process_median_ms = quantile(in_process_ms, 0.5);
  std::printf("hot analyze, full pipeline (%zu-byte frame), median of %d:\n",
              analyze_cold.out.size(), kTcpRuns);
  std::printf("  loopback TCP round trip: %8.3f ms  (p25 %.3f, p75 %.3f)\n",
              tcp_median_ms, quantile(tcp_ms, 0.25), quantile(tcp_ms, 0.75));
  std::printf("  in process:              %8.3f ms  (p25 %.3f, p75 %.3f)\n\n",
              in_process_median_ms, quantile(in_process_ms, 0.25),
              quantile(in_process_ms, 0.75));

  // Smoke gates: the cache must be worth at least an order of magnitude,
  // and the transport must not stall a frame.
  if (speedup < 10.0) {
    std::printf("GATE FAILED: hot/cold speedup %.1fx < 10x\n", speedup);
    std::exit(1);
  }
  if (tcp_median_ms > 20.0) {
    std::printf("GATE FAILED: hot analyze round trip %.1f ms > 20 ms\n", tcp_median_ms);
    std::exit(1);
  }

  FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"bench_serve\",\n"
                 "  \"metric\": \"hot_vs_cold_query_latency\",\n"
                 "  \"model\": \"%d-place token ring, %d tokens, 75582 states\",\n"
                 "  \"cold_ms\": %.3f,\n"
                 "  \"hot_point_query_us\": {\"query\": \"%s\", \"runs\": %d, "
                 "\"median\": %.2f, \"p25\": %.2f, \"p75\": %.2f},\n"
                 "  \"hot_full_scan_us\": {\"query\": \"%s\", \"runs\": %d, "
                 "\"median\": %.2f, \"p25\": %.2f, \"p75\": %.2f},\n"
                 "  \"speedup\": %.1f,\n"
                 "  \"host_hardware_threads\": %u,\n"
                 "  \"queries_per_second\": {\"1\": %.0f, \"2\": %.0f, \"4\": %.0f, "
                 "\"8\": %.0f},\n"
                 "  \"tcp_hot_analyze\": {\"model\": \"full pipeline\", "
                 "\"frame_bytes\": %zu, \"runs\": %d, \"median_ms\": %.3f, "
                 "\"p25_ms\": %.3f, \"p75_ms\": %.3f, \"in_process_median_ms\": %.3f},\n"
                 "  \"note\": \"cold = fresh cache-off Session per request (parse + "
                 "compile + explore + query, the one-shot CLI path), best of 3; hot = "
                 "warm caching Session (cache lookup + block-evaluated query), each "
                 "request timed on its own; speedup = cold / hot point median; every "
                 "hot answer verified byte-identical to the cold oracle; >= 10x "
                 "speedup is a hard gate; tcp_hot_analyze = one persistent "
                 "loopback connection to serve::Server over the same Session, "
                 "a median round trip over 20 ms is a hard gate\"\n"
                 "}\n",
                 kRingPlaces, kRingTokens, cold_seconds * 1e3, kPointQuery, kPointRuns,
                 point_median_us, quantile(point_us, 0.25), quantile(point_us, 0.75),
                 kScanQuery, kScanRuns, scan_median_us, quantile(scan_us, 0.25),
                 quantile(scan_us, 0.75), speedup, std::thread::hardware_concurrency(),
                 qps[0], qps[1], qps[2], qps[3],
                 analyze_cold.out.size(), kTcpRuns, tcp_median_ms, quantile(tcp_ms, 0.25),
                 quantile(tcp_ms, 0.75), in_process_median_ms);
    std::fclose(json);
    std::printf("wrote BENCH_serve.json\n\n");
  }
  std::filesystem::remove(model);
}

/// Timing probe for one hot request through the full Session surface
/// (flag parse, cache lookup, query evaluation, result formatting).
void BM_HotPointQuery(benchmark::State& state) {
  const std::string model = write_ring_model();
  cli::SessionOptions options;
  options.cache = true;
  cli::Session server(options);
  server.execute(query_request(model, kPointQuery));  // warm the caches
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.execute(query_request(model, kPointQuery)));
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove(model);
}
BENCHMARK(BM_HotPointQuery);

}  // namespace
}  // namespace pnut::bench

PNUT_BENCH_MAIN(pnut::bench::print_artifact)
