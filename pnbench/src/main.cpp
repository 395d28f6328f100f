// pnbench: runs the repository benchmark's workloads.
//
//   pnbench run --workload W --seed N --seconds S --trace 0|1
//               [--models DIR] [--build DIR]
//   pnbench self-test [--models DIR] [--build DIR]
//
// `run` generates the workload's models and fixed request list from the
// seed, sets up (input generation, the server for serve-mixed, one
// untimed warm-up pass) several times, runs the list once in a closed loop
// with one client, checks every response, and prints one JSON object as
// its last stdout line. With --trace 1 it runs the list untraced and then
// again with the layer replay (layers.h), and prints per-layer metrics.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/session.h"
#include "layers.h"
#include "serve_client.h"
#include "util.h"
#include "workload.h"

namespace pnbench {
namespace {

constexpr int kSetupRepeats = 5;
/// serve-mixed: how many pool graphs the cache budget leaves room for. The
/// pool is twice as large, so every pool request misses and evicts.
constexpr double kPoolRoom = 12.5;

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string models = "examples/models";
  std::string build = ".bench_build";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Finds "<key>" in text and parses the unsigned integer right after it.
std::optional<std::uint64_t> number_after(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + key.size();
  while (i < text.size() && text[i] == ' ') ++i;
  std::uint64_t v = 0;
  bool any = false;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i, any = true) {
    v = v * 10 + static_cast<std::uint64_t>(text[i] - '0');
  }
  return any ? std::optional<std::uint64_t>(v) : std::nullopt;
}

/// Everything a response must satisfy on its own; empty when it does.
std::string check_expect(const Item& it, const pnut::cli::Result& r) {
  const Expect& e = it.expect;
  if (r.code != 0) return "exit code " + std::to_string(r.code) + ": " + r.err;
  if (r.out.rfind(e.prefix, 0) != 0) return "output does not start with '" + e.prefix + "'";
  if (it.request.command != "analyze") return {};
  if (number_after(r.out, "\nreachability:") != e.states) return "reachable state count";
  if (e.edges != 0 && number_after(r.out, " states,") != e.edges) return "edge count";
  if (e.timed_skipped) {
    if (r.out.find("timed reachability: skipped") == std::string::npos) return "timed analysis ran";
  } else if (e.timed_states != 0 &&
             number_after(r.out, "\ntimed reachability:") != e.timed_states) {
    return "timed state count";
  }
  return {};
}

/// The counts a replayed request observed, compared with what the
/// untraced response printed for the same request. Empty when equal.
std::string check_counts(const Item& it, const Observed& o, const pnut::cli::Result& r) {
  const std::string& cmd = it.request.command;
  const auto same = [](std::optional<std::uint64_t> printed, std::uint64_t seen) {
    return printed && *printed == seen;
  };
  if (cmd == "analyze") {
    if (!same(number_after(r.out, "\nreachability:"), o.reach_states)) return "reach states";
    if (!same(number_after(r.out, " states,"), o.reach_edges)) return "reach edges";
    if (o.timed_skipped != (r.out.find("timed reachability: skipped") != std::string::npos)) {
      return "timed skipped";
    }
    if (!o.timed_skipped &&
        !same(number_after(r.out, "\ntimed reachability:"), o.timed_states)) {
      return "timed states";
    }
  } else if (cmd == "query") {
    const bool on_trace = r.out.find(" trace states") != std::string::npos;
    if (!same(number_after(r.out, " over"), on_trace ? o.trace_states : o.reach_states)) {
      return "query state count";
    }
  } else if (cmd == "simulate" && r.out.find("Events started") != std::string::npos) {
    if (!same(number_after(r.out, "Events started"), o.sim_events)) return "events started";
  } else if (cmd == "replicate") {
    if (!same(number_after(r.out, ""), o.lanes)) return "replications";
  }
  return {};
}

struct SessionCounters {
  std::uint64_t graph_hits = 0, graph_misses = 0, compile_hits = 0, compile_misses = 0,
                evictions = 0;
};

/// The serve `.stats` body: "compile cache: H hits, M misses, ..." and
/// "graph cache: H hits, M misses, E evictions, ...".
SessionCounters parse_stats_report(const std::string& report) {
  SessionCounters c;
  const auto line = [&](const std::string& key) {
    const auto at = report.find(key);
    return at == std::string::npos ? std::string() : report.substr(at, report.find('\n', at) - at);
  };
  const std::string compile = line("compile cache:");
  const std::string graph = line("graph cache:");
  c.compile_hits = number_after(compile, "compile cache:").value_or(0);
  c.compile_misses = number_after(compile, "hits,").value_or(0);
  c.graph_hits = number_after(graph, "graph cache:").value_or(0);
  c.graph_misses = number_after(graph, "hits,").value_or(0);
  c.evictions = number_after(graph, "misses,").value_or(0);
  return c;
}

SessionCounters from_stats(const pnut::cli::SessionStats& s) {
  return {s.graph_hits, s.graph_misses, s.compile_hits, s.compile_misses, s.graph_evictions};
}

/// Runs requests against either an in-process Session or a live server.
struct Target {
  std::unique_ptr<pnut::cli::Session> session;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<ServeClient> client;

  pnut::cli::Result call(const Item& it) {
    if (client) return client->call(request_line(it.request));
    return session->execute(it.request);
  }
  SessionCounters counters() {
    if (client) return parse_stats_report(client->call(".stats").out);
    return from_stats(session->stats());
  }
  double peak_rss_mb() const {
    return server ? proc_peak_rss_mb(server->pid()) : self_peak_rss_mb();
  }
  /// Stop the server (if any) and reap it.
  void close() {
    if (client) {
      client->send_only(".shutdown");
      client.reset();
    }
    if (server) {
      server->wait_exit(10.0);
      server.reset();
    }
  }
};

struct Setup {
  Workload workload;
  Target target;
  std::uint64_t budget = 0;  ///< serve-mixed graph-cache budget
  std::vector<double> seconds;
};

/// One set-up: generate and write the inputs, start the target, and run
/// the warm-up list through it.
void set_up_once(const Options& o, const std::string& dir, Setup& s) {
  const auto t0 = Clock::now();
  s.target.close();
  s.workload = generate(o.workload, o.seed, list_length(o.workload, o.seconds), o.models, dir);
  write_files(s.workload);
  if (o.workload == "serve-mixed") {
    // Size the budget from this build of the engines: the hot set's bytes
    // plus room for part of the pool.
    pnut::cli::SessionOptions sizing_options;
    sizing_options.cache = true;
    sizing_options.graph_cache_budget_bytes = std::size_t{1} << 40;
    pnut::cli::Session sizing(sizing_options);
    for (const Item& it : s.workload.warmup) sizing.execute(it.request);
    const std::uint64_t hot = sizing.stats().graph_cache_bytes;
    sizing.execute(s.workload.pool_probe.request);
    const std::uint64_t pool = sizing.stats().graph_cache_bytes - hot;
    s.budget = hot + static_cast<std::uint64_t>(kPoolRoom * static_cast<double>(pool));
    s.target.server = std::make_unique<ServerProcess>(o.build + "/pnut", s.budget);
    s.target.client = std::make_unique<ServeClient>(s.target.server->port());
  } else {
    s.target.session = std::make_unique<pnut::cli::Session>();
  }
  for (const Item& it : s.workload.warmup) {
    const pnut::cli::Result r = s.target.call(it);
    if (r.code != 0) {
      throw std::runtime_error("warm-up request failed: " + request_line(it.request) + ": " +
                               r.err);
    }
  }
  s.seconds.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
}

std::uint64_t result_digest(const pnut::cli::Result& r) {
  return fnv1a(r.err, fnv1a(r.out, fnv1a(std::to_string(r.code) + "\n")));
}

struct Pass {
  /// Full responses are kept for round 0 only; later rounds keep digests,
  /// so pnbench's own buffers stay out of peak_rss_mb.
  std::vector<pnut::cli::Result> results;
  std::vector<std::uint64_t> digests;
  std::vector<double> latency_ms;
  double wall_s = 0;
  double cpu_s = 0;  ///< this process's CPU time over the pass
};

/// Per request, the median of its executions across rounds. Rounds are a
/// whole list apart, so a host slowdown or speed-up lasting seconds moves
/// at most a minority of one request's executions.
std::vector<double> round_medians(const std::vector<Pass>& rounds) {
  std::vector<double> out(rounds.front().latency_ms.size());
  std::vector<double> samples(rounds.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t r = 0; r < rounds.size(); ++r) samples[r] = rounds[r].latency_ms[i];
    out[i] = median(samples);
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

Pass run_list(Target& target, const std::vector<Item>& list, bool keep_results) {
  Pass p;
  if (keep_results) p.results.reserve(list.size());
  p.digests.reserve(list.size());
  p.latency_ms.reserve(list.size());
  const double cpu0 = self_cpu_seconds();
  const auto start = Clock::now();
  for (const Item& it : list) {
    const auto t0 = Clock::now();
    pnut::cli::Result r = target.call(it);
    p.latency_ms.push_back(ms_between(t0, Clock::now()));
    p.digests.push_back(result_digest(r));
    if (keep_results) p.results.push_back(std::move(r));
  }
  p.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  p.cpu_s = self_cpu_seconds() - cpu0;
  return p;
}

/// Checks every response of every round and returns how many failed,
/// printing reasons to stderr. Round 0 is checked against the
/// expectations, its own repeats and (serve-mixed) a cache-off Session;
/// every later round must repeat round 0 byte for byte.
std::size_t check_rounds(const Workload& w, const std::vector<Pass>& rounds) {
  std::set<std::size_t> bad;  // round-0 indices
  std::size_t reported = 0;
  const auto report = [&](std::size_t round, std::size_t i, const std::string& why) {
    if (++reported <= 20) {
      std::fprintf(stderr, "check failed: round %zu #%zu %s: %s\n", round, i,
                   request_line(w.timed[i].request).c_str(), why.c_str());
    }
  };
  const auto fail = [&](std::size_t i, const std::string& why) {
    if (bad.insert(i).second) report(0, i, why);
  };
  const auto same = [](const pnut::cli::Result& a, const pnut::cli::Result& b) {
    return a.code == b.code && a.out == b.out && a.err == b.err;
  };
  const Pass& p = rounds.front();
  std::map<std::string, std::size_t> first;
  for (std::size_t i = 0; i < w.timed.size(); ++i) {
    const Item& it = w.timed[i];
    const pnut::cli::Result& r = p.results[i];
    if (const std::string why = check_expect(it, r); !why.empty()) fail(i, why);
    if (it.stable_key.empty()) continue;
    const auto [at, inserted] = first.emplace(it.stable_key, i);
    if (!inserted && !same(p.results[at->second], r)) {
      fail(i, "output differs from request #" + std::to_string(at->second));
    }
  }
  if (w.name == "serve-mixed") {
    // Served bytes must equal what a cache-off Session prints.
    std::map<std::string, pnut::cli::Result> cold;
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
      const std::string line = request_line(w.timed[i].request);
      auto it = cold.find(line);
      if (it == cold.end()) {
        pnut::cli::Session one_shot;
        it = cold.emplace(line, one_shot.execute(w.timed[i].request)).first;
      }
      if (!same(it->second, p.results[i])) fail(i, "served bytes differ from a cache-off Session");
    }
  }
  std::size_t failed = bad.size();
  for (std::size_t round = 1; round < rounds.size(); ++round) {
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
      if (bad.count(i) != 0) {
        ++failed;
      } else if (rounds[round].digests[i] != p.digests[i]) {
        ++failed;
        report(round, i, "output differs from round 0");
      }
    }
  }
  return failed;
}

std::uint64_t digest(const Pass& p) {
  std::uint64_t h = fnv1a("");
  for (const std::uint64_t d : p.digests) h = fnv1a(hex64(d), h);
  return h;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_host(const char* when) {
  const HostSpeed h = measure_host_speed();
  std::printf("{\"diagnostic\": \"host_speed\", \"when\": \"%s\", \"spin_ms\": %.3f, "
              "\"chase_ms\": %.3f, \"cpus_delivered\": %.2f, \"cpus_reported\": %u}\n",
              when, h.spin_ms, h.chase_ms, h.cpus_delivered, h.cpus_reported);
}

/// Per-class latency breakdown, to see what the median and tail sit in.
void print_classes(const Workload& w, const std::vector<double>& typical) {
  std::map<std::string, std::vector<double>> per;
  for (std::size_t i = 0; i < w.timed.size(); ++i) per[w.timed[i].klass].push_back(typical[i]);
  std::string line = "{\"diagnostic\": \"classes\"";
  for (const auto& [k, v] : per) {
    line += ", \"" + k + "\": {\"n\": " + std::to_string(v.size()) +
            ", \"p50_ms\": " + fmt(median(v)) + "}";
  }
  std::printf("%s}\n", line.c_str());
}

/// Work-rate figures of the workloads that do that work in volume, from
/// the checked responses. Printed beside the result, not in it: the
/// result carries only metrics every workload has.
void print_workload_rates(const Workload& w, const Pass& p, double busy_s) {
  std::string line = "{\"diagnostic\": \"workload_rates\"";
  if (w.name == "explore-cold") {
    double states = 0, bytes = 0, analyzed = 0;
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
      const std::string& out = p.results[i].out;
      if (w.timed[i].request.command == "query") {
        states += static_cast<double>(number_after(out, " over").value_or(0));
        continue;
      }
      const double n = static_cast<double>(number_after(out, "\nreachability:").value_or(0));
      states += n + static_cast<double>(number_after(out, "\ntimed reachability:").value_or(0));
      bytes += n * static_cast<double>(number_after(out, "state storage:").value_or(0));
      analyzed += n;
    }
    line += ", \"states_per_s\": " + fmt(states / busy_s) +
            ", \"bytes_per_state\": " + fmt(analyzed > 0 ? bytes / analyzed : 0);
  } else if (w.name == "simulate-pipeline") {
    double events = 0, trajectories = 0;
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
      const Item& it = w.timed[i];
      const std::string& out = p.results[i].out;
      if (it.request.command == "simulate") {
        trajectories += 1;
        events += static_cast<double>(number_after(out, "Events started").value_or(0));
      } else if (it.request.command == "replicate") {
        trajectories += static_cast<double>(number_after(out, "").value_or(0));
      }
    }
    line += ", \"sim_events_per_s\": " + fmt(events / busy_s) +
            ", \"trajectories_per_s\": " + fmt(trajectories / busy_s);
  }
  std::printf("%s}\n", line.c_str());
}

std::vector<Metric> end_to_end(const Setup& s, const std::vector<double>& typical,
                               std::size_t attempted, std::size_t failed, double peak_rss,
                               bool& correct) {
  const std::size_t n = typical.size();
  const Tail tail = tail_with_beyond(typical, 10);
  const double p50 = median(typical);
  if (tail.samples == 0 || tail.value < p50) {
    std::fprintf(stderr, "benchmark error: tail below p50 or too few samples\n");
    correct = false;
  }
  std::printf("{\"diagnostic\": \"latency_tail\", \"percentile\": %.3f, \"samples\": %zu, "
              "\"beyond\": %zu}\n",
              tail.percentile, tail.samples, tail.beyond);
  return {
      {"setup_s", median(s.seconds), "s"},
      // One client's closed-loop rate at those latencies.
      {"requests_per_s", 1e3 * static_cast<double>(n) / sum(typical), "1/s"},
      {"latency_p50_ms", p50, "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"success_ratio",
       static_cast<double>(attempted - failed) / static_cast<double>(attempted), "ratio"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
}

/// The per-layer metric table: name, unit, and the end-to-end metric each
/// should move (the mapping the traced run prints).
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
};
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"textio.parse_ms", "ms", "latency_p50_ms on explore-cold, simulate-pipeline"},
      {"petri.compile_ms", "ms", "latency_p50_ms on explore-cold, simulate-pipeline"},
      {"expr.lower_ms", "ms", "latency_p50_ms on explore-cold, simulate-pipeline"},
      {"analysis.reach_ms", "ms", "requests_per_s on explore-cold; latency_tail_ms on serve-mixed"},
      {"analysis.reach_states_per_s", "1/s", "requests_per_s on explore-cold"},
      {"analysis.timed_ms", "ms", "requests_per_s on explore-cold"},
      {"analysis.timed_states_per_s", "1/s", "requests_per_s on explore-cold"},
      {"analysis.bytes_per_state", "B", "peak_rss_mb on explore-cold"},
      {"analysis.reach_states", "count", "requests_per_s on explore-cold"},
      {"analysis.reach_edges", "count", "requests_per_s on explore-cold"},
      {"analysis.timed_states", "count", "requests_per_s on explore-cold"},
      {"analysis.invariants_ms", "ms", "latency_p50_ms on explore-cold; requests_per_s on serve-mixed"},
      {"analysis.report_ms", "ms", "latency_p50_ms on explore-cold; requests_per_s on serve-mixed"},
      {"analysis.query_ms", "ms", "latency_p50_ms, requests_per_s on serve-mixed"},
      {"analysis.trace_query_ms", "ms", "requests_per_s on simulate-pipeline"},
      {"trace.read_ms", "ms", "requests_per_s on simulate-pipeline"},
      {"tracer.render_ms", "ms", "requests_per_s on simulate-pipeline"},
      {"sim.scalar_ms", "ms", "latency_p50_ms on simulate-pipeline"},
      {"sim.scalar_events_per_s", "1/s", "latency_p50_ms on simulate-pipeline"},
      {"sim.events", "count", "latency_p50_ms on simulate-pipeline"},
      {"sim.batch_ms", "ms", "latency_tail_ms on simulate-pipeline"},
      {"sim.batch_lanes_per_s", "1/s", "latency_tail_ms on simulate-pipeline"},
      {"sim.batch_events_per_s", "1/s", "latency_tail_ms on simulate-pipeline"},
      {"stat.summary_ms", "ms", "latency_p50_ms on simulate-pipeline"},
      {"cli.overhead_ms", "ms", "latency_p50_ms on serve-mixed"},
      {"cli.graph_hit_ratio", "ratio", "latency_tail_ms on serve-mixed"},
      {"cli.graph_hits", "count", "latency_tail_ms on serve-mixed"},
      {"cli.graph_lookups", "count", "latency_tail_ms on serve-mixed"},
      {"cli.compile_hit_ratio", "ratio", "latency_tail_ms on serve-mixed"},
      {"cli.compile_hits", "count", "latency_tail_ms on serve-mixed"},
      {"cli.compile_lookups", "count", "latency_tail_ms on serve-mixed"},
      {"cli.graph_evictions", "count", "latency_tail_ms on serve-mixed"},
      {"serve.overhead_ms", "ms", "latency_p50_ms, requests_per_s on serve-mixed"},
      {"tracing.overhead_pct", "%", "(traced pass wall time over the untraced pass)"},
      {"tracing.spans", "count", "(spans recorded)"},
  };
  return kMetrics;
}

/// Layers whose spans count toward a request's layer time. expr.lower is
/// left out: the engines lower inside analysis.reach / sim.scalar, and the
/// replay's standalone lowering call is extra work the Session never does.
bool counts_as_layer(const char* name) {
  const std::string n = name;
  return n != "expr.lower" && n != "request" && n != "cli.execute";
}

struct TracedOutcome {
  std::vector<Metric> metrics;
  std::set<std::size_t> mismatched;
};

/// `untraced` is round 0 of the untraced run (its outputs), `typical` the
/// untraced per-request latencies.
TracedOutcome traced_pass(const Options& o, const Setup& s, const Pass& untraced,
                          const std::vector<double>& typical,
                          const SessionCounters& before, const SessionCounters& after,
                          const std::string& spans_path) {
  const Workload& w = s.workload;
  const bool serve = o.workload == "serve-mixed";
  SpanRecorder rec;
  LayerReplay replay(rec, serve, s.budget);
  // serve-mixed: an in-process caching Session warmed exactly as the
  // server was, so TCP round trips can be set against in-process calls.
  pnut::cli::SessionOptions session_options;
  session_options.cache = serve;
  session_options.graph_cache_budget_bytes = s.budget;
  pnut::cli::Session session(session_options);
  if (serve) {
    for (const Item& it : w.warmup) {
      session.execute(it.request);
      const int root = rec.open("warmup", -1, 0);
      replay.replay(it.request, root, 0);
      rec.close(root);
    }
  }
  const std::size_t warm_spans = rec.spans().size();

  TracedOutcome out;
  double execute_ms = 0, overhead_ms = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < w.timed.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    const int root = rec.open("request", -1, id);
    const std::size_t first = rec.spans().size();
    Observed seen;
    try {
      seen = replay.replay(w.timed[i].request, root, id);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replay failed: #%zu: %s\n", i, e.what());
      out.mismatched.insert(i);
    }
    double layers = 0;
    for (std::size_t k = first; k < rec.spans().size(); ++k) {
      const Span& sp = rec.spans()[k];
      if (counts_as_layer(sp.name)) layers += sp.end_ms - sp.start_ms;
    }
    const int exec = rec.open("cli.execute", root, id);
    (void)session.execute(w.timed[i].request);
    rec.close(exec);
    rec.close(root);
    const Span& e = rec.spans()[static_cast<std::size_t>(exec)];
    execute_ms += e.end_ms - e.start_ms;
    overhead_ms += e.end_ms - e.start_ms - layers;
    if (const std::string why = check_counts(w.timed[i], seen, untraced.results[i]);
        !why.empty()) {
      if (out.mismatched.insert(i).second && out.mismatched.size() <= 20) {
        std::fprintf(stderr, "traced count differs: #%zu %s: %s\n", i,
                     request_line(w.timed[i].request).c_str(), why.c_str());
      }
    }
  }
  const double traced_wall = std::chrono::duration<double>(Clock::now() - start).count();
  rec.write(spans_path);

  // Mean span duration and total seconds per layer, timed list only.
  std::map<std::string, std::pair<double, std::size_t>> per;
  for (std::size_t k = warm_spans; k < rec.spans().size(); ++k) {
    const Span& sp = rec.spans()[k];
    auto& [total, n] = per[sp.name];
    total += sp.end_ms - sp.start_ms;
    ++n;
  }
  const auto mean_ms = [&](const char* name) {
    const auto it = per.find(name);
    return it == per.end() ? 0.0 : it->second.first / static_cast<double>(it->second.second);
  };
  const auto rate = [&](double count, const char* name) {
    const auto it = per.find(name);
    return it == per.end() || it->second.first <= 0 ? 0.0 : count / (it->second.first / 1e3);
  };
  const Work& work = replay.work();
  const double n = static_cast<double>(w.timed.size());
  const std::uint64_t graph_lookups =
      (after.graph_hits + after.graph_misses) - (before.graph_hits + before.graph_misses);
  const std::uint64_t compile_lookups = (after.compile_hits + after.compile_misses) -
                                        (before.compile_hits + before.compile_misses);
  const double graph_hits = static_cast<double>(after.graph_hits - before.graph_hits);
  const double compile_hits = static_cast<double>(after.compile_hits - before.compile_hits);
  const double untraced_mean_ms = sum(typical) / n;
  const std::map<std::string, double> values = {
      {"textio.parse_ms", mean_ms("textio.parse")},
      {"petri.compile_ms", mean_ms("petri.compile")},
      {"expr.lower_ms", mean_ms("expr.lower")},
      {"analysis.reach_ms", mean_ms("analysis.reach")},
      {"analysis.reach_states_per_s", rate(static_cast<double>(work.reach_states), "analysis.reach")},
      {"analysis.timed_ms", mean_ms("analysis.timed")},
      {"analysis.timed_states_per_s", rate(static_cast<double>(work.timed_states), "analysis.timed")},
      {"analysis.bytes_per_state",
       work.reach_states ? static_cast<double>(work.reach_bytes) / work.reach_states : 0.0},
      {"analysis.reach_states", static_cast<double>(work.reach_states)},
      {"analysis.reach_edges", static_cast<double>(work.reach_edges)},
      {"analysis.timed_states", static_cast<double>(work.timed_states)},
      {"analysis.invariants_ms", mean_ms("analysis.invariants")},
      {"analysis.report_ms", mean_ms("analysis.report")},
      {"analysis.query_ms", mean_ms("analysis.query")},
      {"analysis.trace_query_ms", mean_ms("analysis.trace_query")},
      {"trace.read_ms", mean_ms("trace.read")},
      {"tracer.render_ms", mean_ms("tracer.render")},
      {"sim.scalar_ms", mean_ms("sim.scalar")},
      {"sim.scalar_events_per_s", rate(static_cast<double>(work.sim_events), "sim.scalar")},
      {"sim.events", static_cast<double>(work.sim_events)},
      {"sim.batch_ms", mean_ms("sim.batch")},
      {"sim.batch_lanes_per_s", rate(static_cast<double>(work.batch_lanes), "sim.batch")},
      {"sim.batch_events_per_s", rate(static_cast<double>(work.batch_events), "sim.batch")},
      {"stat.summary_ms", mean_ms("stat.summary")},
      {"cli.overhead_ms", overhead_ms / n},
      {"cli.graph_hit_ratio", graph_lookups ? graph_hits / graph_lookups : 0.0},
      {"cli.graph_hits", graph_hits},
      {"cli.graph_lookups", static_cast<double>(graph_lookups)},
      {"cli.compile_hit_ratio", compile_lookups ? compile_hits / compile_lookups : 0.0},
      {"cli.compile_hits", compile_hits},
      {"cli.compile_lookups", static_cast<double>(compile_lookups)},
      {"cli.graph_evictions", static_cast<double>(after.evictions - before.evictions)},
      {"serve.overhead_ms", serve ? untraced_mean_ms - execute_ms / n : 0.0},
      {"tracing.overhead_pct", 100.0 * (traced_wall - 1e-3 * sum(typical)) / (1e-3 * sum(typical))},
      {"tracing.spans", static_cast<double>(rec.spans().size() - warm_spans)},
  };
  std::printf("{\"diagnostic\": \"per_layer\", \"rows\": [\n");
  for (std::size_t i = 0; i < layer_metrics().size(); ++i) {
    const LayerMetric& m = layer_metrics()[i];
    std::printf("  {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", \"moves\": \"%s\"}%s\n",
                m.name, fmt(values.at(m.name)).c_str(), m.unit, m.moves,
                i + 1 < layer_metrics().size() ? "," : "");
    out.metrics.push_back({m.name, values.at(m.name), m.unit});
  }
  std::printf("]}\n");
  return out;
}

int run(const Options& o) {
  if (o.workload.empty() || o.seconds < 1) throw std::invalid_argument("bad arguments");
  const std::string dir = o.build + "/work-" + std::to_string(::getpid());
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{dir};

  print_host("before");
  Setup s;
  for (int r = 0; r < kSetupRepeats; ++r) set_up_once(o, dir, s);
  std::printf("{\"diagnostic\": \"workload\", \"name\": \"%s\", \"seed\": %llu, "
              "\"requests\": %zu, \"cache_budget_bytes\": %llu}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              s.workload.timed.size(), static_cast<unsigned long long>(s.budget));

  const SessionCounters before = s.target.counters();
  std::vector<Pass> rounds;
  for (int r = 0; r < kRounds; ++r) {
    rounds.push_back(run_list(s.target, s.workload.timed, r == 0));
  }
  const double peak_rss = s.target.peak_rss_mb();
  const SessionCounters after = s.target.counters();
  s.target.close();
  print_host("after");
  for (const Pass& p : rounds) {
    std::printf("{\"diagnostic\": \"round\", \"wall_s\": %.4f, \"cpu_s\": %.4f}\n",
                p.wall_s, p.cpu_s);
  }

  const std::vector<double> typical = round_medians(rounds);
  const std::size_t attempted = s.workload.timed.size() * rounds.size();
  std::size_t failed = check_rounds(s.workload, rounds);
  print_classes(s.workload, typical);
  std::printf("{\"diagnostic\": \"outputs_digest\", \"fnv1a64\": \"%s\"}\n",
              hex64(digest(rounds.front())).c_str());
  bool correct = failed == 0;
  std::vector<Metric> metrics = end_to_end(s, typical, attempted, failed, peak_rss, correct);
  print_workload_rates(s.workload, rounds.front(), 1e-3 * sum(typical));

  if (o.trace) {
    const std::string spans = o.build + "/spans-" + o.workload + "-seed" +
                              std::to_string(o.seed) + ".jsonl";
    TracedOutcome t = traced_pass(o, s, rounds.front(), typical, before, after, spans);
    failed += t.mismatched.size();
    correct = correct && failed == 0;
    metrics = std::move(t.metrics);
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

// --- self-test --------------------------------------------------------------

int self_test(const Options& o) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const std::string dir = o.build + "/selftest-" + std::to_string(::getpid());
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{dir};

  // Same seed, same bytes; another seed, other bytes.
  const auto fingerprint = [&](const std::string& name, std::uint64_t seed) {
    const Workload w = generate(name, seed, list_length(name, 10), o.models, dir);
    std::string all;
    for (const auto& [file, text] : w.files) all += file + "\n" + text + "\n";
    for (const auto* list : {&w.warmup, &w.timed}) {
      for (const Item& it : *list) all += request_line(it.request) + "\n";
    }
    return all;
  };
  for (const std::string& name : workload_names()) {
    const std::string a = fingerprint(name, 7);
    expect(a == fingerprint(name, 7), name + ": same seed gives identical models and list");
    expect(a != fingerprint(name, 8), name + ": another seed gives a different workload");
  }

  // Percentile helper.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Tail t = tail_with_beyond(v, 10);
  expect(t.value == 90 && t.percentile == 90 && t.samples == 100 && t.beyond == 10,
         "tail of 1..100 is 90 at p90 with 10 beyond");
  expect(tail_with_beyond(std::vector<double>(11, 1.0), 10).samples == 0,
         "11 samples are too few for a tail with 10 beyond");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2, "lower median");

  // Framing: greeting, then frames split at arbitrary byte boundaries.
  {
    FrameParser parser;
    const std::string stream = "pnut-serve 1\n= 0 3 2\nabcde= 1 0 4\nfail";
    std::vector<pnut::cli::Result> frames;
    for (const char c : stream) {
      parser.feed(&c, 1);
      pnut::cli::Result r;
      while (parser.take(r)) frames.push_back(r);
    }
    expect(frames.size() == 2 && frames[0].code == 0 && frames[0].out == "abc" &&
               frames[0].err == "de" && frames[1].code == 1 && frames[1].out.empty() &&
               frames[1].err == "fail",
           "frame parser splits greeting and two frames fed byte by byte");
    FrameParser bad;
    bad.feed("hello\n", 6);
    bool threw = false;
    try {
      (void)bad.greeted();
    } catch (const std::runtime_error&) {
      threw = true;
    }
    expect(threw, "frame parser rejects a wrong greeting");
    FrameParser malformed;
    const std::string m = "pnut-serve 1\n= x 1\n";
    malformed.feed(m.data(), m.size());
    threw = false;
    try {
      pnut::cli::Result r;
      (void)malformed.take(r);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    expect(threw, "frame parser rejects a malformed header");
  }
  {
    // Against a live server: a served frame equals the in-process result.
    ServerProcess server(o.build + "/pnut", 1 << 20);
    ServeClient client(server.port());
    const Workload w = generate("explore-cold", 3, 40, o.models, dir);
    write_files(w);
    pnut::cli::Session session;
    const Item& it = w.timed.front();
    const pnut::cli::Result served = client.call(request_line(it.request));
    const pnut::cli::Result direct = session.execute(it.request);
    expect(served.code == direct.code && served.out == direct.out && served.err == direct.err,
           "live server frame matches the in-process Session byte for byte");
    client.send_only(".shutdown");
    expect(server.wait_exit(10.0) == 0, "server exits 0 after .shutdown");
  }

  // Traced-run counts equal the counts the untraced outputs print; for
  // serve-mixed both sides cache, as the server and the traced run do.
  for (const std::string& name : workload_names()) {
    const bool cache = name == "serve-mixed";
    Workload w = generate(name, 5, 60, o.models, dir);
    write_files(w);
    pnut::cli::SessionOptions session_options;
    session_options.cache = cache;
    pnut::cli::Session session(session_options);
    SpanRecorder rec;
    LayerReplay replay(rec, cache, session_options.graph_cache_budget_bytes);
    std::size_t mismatches = 0;
    for (const auto* list : {&w.warmup, &w.timed}) {
      for (const Item& it : *list) {
        const pnut::cli::Result r = session.execute(it.request);
        const Observed seen = replay.replay(it.request, rec.open("request", -1, 0), 0);
        if (list == &w.timed) {
          mismatches += !check_counts(it, seen, r).empty() || !check_expect(it, r).empty();
        }
      }
    }
    expect(mismatches == 0, name + ": replayed layer counts equal the printed counts on " +
                                std::to_string(w.timed.size()) + " requests");
  }
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}

Options parse_options(int argc, char** argv) {
  Options o;
  if (argc < 2) throw std::invalid_argument("usage: pnbench run|self-test [options]");
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--models") {
      o.models = value;
    } else if (flag == "--build") {
      o.build = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return o;
}

}  // namespace
}  // namespace pnbench

int main(int argc, char** argv) {
  try {
    const pnbench::Options o = pnbench::parse_options(argc, argv);
    if (o.mode == "run") return pnbench::run(o);
    if (o.mode == "self-test") return pnbench::self_test(o);
    throw std::invalid_argument("unknown mode " + o.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnbench: %s\n", e.what());
    return 1;
  }
}
