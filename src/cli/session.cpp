#include "cli/session.h"

#include <atomic>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "analysis/invariants.h"
#include "analysis/marked_graph.h"
#include "analysis/query.h"
#include "analysis/reachability.h"
#include "analysis/state_space.h"
#include "analysis/timed_reachability.h"
#include "anim/animator.h"
#include "cli/args.h"
#include "cli/cli.h"
#include "expr/program.h"
#include "petri/compiled_net.h"
#include "sim/batch_sim.h"
#include "stat/replication.h"
#include "stat/stat.h"
#include "textio/pn_format.h"
#include "trace/filter.h"
#include "trace/trace_text.h"
#include "tracer/tracer.h"
#include "util/parse_number.h"
#include "util/stop.h"

namespace pnut::cli {

namespace {

/// The complete flag vocabulary per command. A flag outside its command's
/// spec is rejected at parse time (`--thread 4`, `--horizen 100` and other
/// typos must not silently run with defaults).
const FlagSpec* spec_for(const std::string& command) {
  static const std::map<std::string, FlagSpec> kSpecs = {
      {"validate", {}},
      {"check", {}},
      {"print", {}},
      {"simulate",
       {{"until", "seed", "trace", "keep", "timeout"},
        {"stats", "tbl"},
        false}},
      {"replicate",
       {{"replications", "horizon", "seed", "threads", "timeout"}, {}, false}},
      {"stat", {}},
      {"query",
       {{"reach", "max-states", "threads", "max-resident-bytes", "spill-dir",
         "timeout"},
        {},
        false}},
      {"render", {{"signals", "from", "to", "columns"}, {"unicode"}, true}},
      {"animate", {{"steps"}, {}, false}},
      {"analyze",
       {{"max-states", "threads", "max-resident-bytes", "spill-dir", "timeout"},
        {},
        false}},
  };
  const auto it = kSpecs.find(command);
  return it == kSpecs.end() ? nullptr : &it->second;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

RecordedTrace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  return read_trace_text(in);
}

/// Widest waveform render accepted (the tracer widens anything below 8).
constexpr std::uint64_t kMaxRenderColumns = 100000;

/// Split a `--signals` / `--keep` list at its top-level commas: a comma
/// inside parentheses or brackets belongs to an expression such as
/// `x=min(a,b)`. Empty items are dropped.
std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (char c : list) {
    if (c == '(' || c == '[') ++depth;
    if ((c == ')' || c == ']') && depth > 0) --depth;
    if (c == ',' && depth == 0) {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

const std::string& require_positional(const Args& args, std::size_t index,
                                      const char* what) {
  if (index >= args.positional().size()) {
    throw std::invalid_argument(std::string("missing ") + what);
  }
  return args.positional()[index];
}

/// Canonical, order-fixed rendering of every ReachOptions field that shapes
/// a command's output. The untimed graph has one builder, so no thread
/// count: `--threads` changes no byte of what analyze or query prints.
std::string reach_key(const std::string& source, const analysis::ReachOptions& o) {
  std::ostringstream key;
  key << "reach;ms=" << o.max_states << ";pb=" << o.place_bound
      << ";rc=" << (o.respect_capacities ? 1 : 0) << ";if=" << o.irand_fanout_limit << '\n'
      << source;
  return key.str();
}

/// The TimedReachOptions fields that shape a timed graph (one builder, so
/// no thread count either).
std::string timed_key(const std::string& source, const analysis::TimedReachOptions& o) {
  std::ostringstream key;
  key << "timed;ms=" << o.max_states << ";mt=" << o.max_time << '\n' << source;
  return key.str();
}

}  // namespace

struct Session::Impl {
  explicit Impl(SessionOptions opts) : options(opts) {}

  SessionOptions options;

  /// Everything parsed and compiled from one model source, shared by every
  /// consumer (simulators, analyzers, graph builds).
  struct Model {
    std::shared_ptr<const textio::NetDocument> doc;
    std::shared_ptr<const CompiledNet> compiled;
    std::string source;  ///< raw .pn text — the cache key and graph-key prefix
  };
  using ModelPtr = std::shared_ptr<const Model>;

  struct ModelSlot {
    ModelPtr model;
    std::uint64_t last_used = 0;
  };

  template <typename GraphT>
  struct GraphSlot {
    std::shared_future<std::shared_ptr<const GraphT>> future;
    std::size_t bytes = 0;  ///< exact arena accounting, set once built
    std::uint64_t last_used = 0;
    bool ready = false;  ///< false while the build is in flight
  };

  mutable std::mutex mu;
  /// Drain flag watched by every request's stop token: once set (serve
  /// shutdown), all in-flight and future commands cancel at their next poll.
  std::atomic<bool> drain{false};
  SessionStats counters;  // graph_cache_bytes/entries derived in stats()
  std::uint64_t tick = 0;
  std::size_t cached_bytes = 0;
  std::map<std::string, ModelSlot> models;  // keyed by source content
  std::map<std::string, GraphSlot<analysis::ReachabilityGraph>> reach_cache;
  std::map<std::string, GraphSlot<analysis::TimedReachabilityGraph>> timed_cache;

  /// The request's stop token: always watches the session drain flag;
  /// `--timeout S` (or, absent that, the session default) adds a deadline.
  /// An explicit `--timeout 0` is a pre-expired deadline — the command
  /// stops at its first poll.
  [[nodiscard]] StopToken make_stop(const Args& args) {
    StopSource source;
    source.watch(&drain);
    if (const std::optional<double> timeout = parse_timeout(args)) {
      source.set_timeout_seconds(*timeout);
    } else if (options.default_timeout_seconds > 0) {
      source.set_timeout_seconds(options.default_timeout_seconds);
    }
    return source.token();
  }

  // --- caches ---------------------------------------------------------------

  ModelPtr model(const std::string& path) {
    std::string source = read_file(path);
    if (!options.cache) {
      auto doc = std::make_shared<const textio::NetDocument>(textio::parse_net(source));
      auto compiled = CompiledNet::compile(doc->net);
      return std::make_shared<const Model>(
          Model{std::move(doc), std::move(compiled), std::move(source)});
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = models.find(source);
      if (it != models.end()) {
        ++counters.compile_hits;
        it->second.last_used = ++tick;
        return it->second.model;
      }
      ++counters.compile_misses;
    }
    // Parse and compile outside the lock; a concurrent duplicate build of
    // the same source is rare and harmless (first insert wins).
    auto doc = std::make_shared<const textio::NetDocument>(textio::parse_net(source));
    auto compiled = CompiledNet::compile(doc->net);
    auto built = std::make_shared<const Model>(
        Model{std::move(doc), std::move(compiled), source});
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = models.try_emplace(std::move(source));
    if (inserted) it->second.model = std::move(built);
    it->second.last_used = ++tick;
    while (models.size() > options.compile_cache_capacity) {
      auto victim = models.begin();
      for (auto cand = models.begin(); cand != models.end(); ++cand) {
        if (cand->second.last_used < victim->second.last_used) victim = cand;
      }
      models.erase(victim);
    }
    return it->second.model;
  }

  /// Drop least-recently-used ready graphs until the resident total fits
  /// the budget. `keep_key` (the entry just built) goes last: if after
  /// evicting everything else it alone still exceeds the budget, it is
  /// served to its requesters but not retained.
  void evict_over_budget(const std::string& keep_key) {
    while (cached_bytes > options.graph_cache_budget_bytes) {
      std::string victim;
      std::uint64_t victim_tick = std::numeric_limits<std::uint64_t>::max();
      int which = -1;
      const auto consider = [&](const auto& cache, int id) {
        for (const auto& [key, slot] : cache) {
          if (!slot.ready || key == keep_key) continue;
          if (slot.last_used < victim_tick) {
            victim_tick = slot.last_used;
            victim = key;
            which = id;
          }
        }
      };
      consider(reach_cache, 0);
      consider(timed_cache, 1);
      if (which < 0) break;
      const auto erase_from = [&](auto& cache) {
        const auto it = cache.find(victim);
        cached_bytes -= it->second.bytes;
        cache.erase(it);
      };
      if (which == 0) {
        erase_from(reach_cache);
      } else {
        erase_from(timed_cache);
      }
      ++counters.graph_evictions;
    }
    if (cached_bytes > options.graph_cache_budget_bytes) {
      const auto drop = [&](auto& cache) {
        const auto it = cache.find(keep_key);
        if (it == cache.end() || !it->second.ready) return false;
        cached_bytes -= it->second.bytes;
        cache.erase(it);
        ++counters.graph_evictions;
        return true;
      };
      if (!drop(reach_cache)) drop(timed_cache);
    }
  }

  template <typename GraphT, typename BuildFn>
  std::shared_ptr<const GraphT> cached_graph(
      std::map<std::string, GraphSlot<GraphT>>& cache, const std::string& key,
      BuildFn&& build) {
    std::promise<std::shared_ptr<const GraphT>> promise;
    std::shared_future<std::shared_ptr<const GraphT>> wait_on;
    bool builder = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = cache.find(key);
      if (it == cache.end()) {
        ++counters.graph_misses;
        builder = true;
        GraphSlot<GraphT> slot;
        slot.future = promise.get_future().share();
        slot.last_used = ++tick;
        cache.emplace(key, std::move(slot));
      } else {
        ++counters.graph_hits;
        it->second.last_used = ++tick;
        wait_on = it->second.future;
      }
    }
    if (!builder) return wait_on.get();  // rethrows a failed build
    std::shared_ptr<const GraphT> graph;
    try {
      graph = build();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu);
        cache.erase(key);  // failures are not cached; the next request retries
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = cache.find(key);
      if (it != cache.end()) {
        if (graph->stopped()) {
          // A drain cancel tripped mid-build: the truncated prefix is a
          // valid answer for *this* request but must never satisfy a future
          // same-key request that expects the full graph.
          cache.erase(it);
        } else {
          it->second.bytes = graph->memory_bytes();
          it->second.ready = true;
          cached_bytes += it->second.bytes;
          evict_over_budget(key);
        }
      }
    }
    promise.set_value(graph);
    return graph;
  }

  std::shared_ptr<const analysis::ReachabilityGraph> reach_graph(
      const Model& m, const analysis::ReachOptions& o) {
    // Spill-mode graphs remap segments on read — neither resident nor safe
    // under concurrent readers — so they bypass the cache; the cache budget
    // is the serve-mode residency control. Deadline-bearing builds bypass
    // too: their truncation point depends on wall-clock, so the graph is
    // not a pure function of the cache key.
    if (!options.cache || o.spill.max_resident_bytes != 0 || o.stop.may_expire()) {
      return std::make_shared<const analysis::ReachabilityGraph>(m.compiled, o);
    }
    return cached_graph(reach_cache, reach_key(m.source, o), [&] {
      return std::make_shared<const analysis::ReachabilityGraph>(m.compiled, o);
    });
  }

  std::shared_ptr<const analysis::TimedReachabilityGraph> timed_graph(
      const Model& m, const analysis::TimedReachOptions& o) {
    if (!options.cache || o.spill.max_resident_bytes != 0 || o.stop.may_expire()) {
      return std::make_shared<const analysis::TimedReachabilityGraph>(m.compiled, o);
    }
    return cached_graph(timed_cache, timed_key(m.source, o), [&] {
      return std::make_shared<const analysis::TimedReachabilityGraph>(m.compiled, o);
    });
  }

  // --- commands -------------------------------------------------------------

  int cmd_validate(const Args& args, std::ostream& out) {
    const std::string& path = require_positional(args, 0, "model file");
    const ModelPtr m = model(path);  // parse_net validates
    out << "ok: " << m->doc->net.num_places() << " places, "
        << m->doc->net.num_transitions() << " transitions\n";
    return 0;
  }

  /// Static model check: parse the document (line-mapped diagnostics with
  /// caret snippets come straight from the .pn/expression parsers) and then
  /// lower every expression hook to bytecode, so mistakes the VM would only
  /// raise at run time — builtin arity errors, say, on a transition that
  /// never fires — surface here. Diagnostics go to `out`
  /// with exit code 1; only infrastructure failures exit 2.
  int cmd_check(const Args& args, std::ostream& out) {
    const std::string& path = require_positional(args, 0, "model file");
    textio::NetDocument doc;
    try {
      doc = textio::parse_net(read_file(path));
    } catch (const std::exception& e) {
      out << path << ": " << e.what() << '\n';
      return 1;
    }
    std::string error;
    const auto program = expr::NetProgram::compile(doc.net, &error);
    if (!error.empty()) {
      out << path << ": " << error << '\n';
      return 1;
    }
    out << "ok: " << doc.net.num_places() << " places, "
        << doc.net.num_transitions() << " transitions";
    if (!doc.functions.functions.empty()) {
      out << ", " << doc.functions.functions.size() << " functions";
    }
    if (!doc.params.empty()) out << ", " << doc.params.size() << " params";
    out << ", " << program->schema().num_values() << " value slots\n";
    return 0;
  }

  int cmd_print(const Args& args, std::ostream& out) {
    const ModelPtr m = model(require_positional(args, 0, "model file"));
    out << textio::print_net(*m->doc);
    return 0;
  }

  /// One lane of the batch kernel on the model's compiled net: statistics
  /// accumulate natively, and --trace attaches the writer (behind the
  /// --keep filter) as the lane's sink. The lane polls the stop token itself.
  int cmd_simulate(const Args& args, std::ostream& out) {
    const ModelPtr m = model(require_positional(args, 0, "model file"));
    const Net& net = m->doc->net;
    const Time until = args.get_number("until", 10000);
    if (!(until >= 0)) {
      throw std::invalid_argument("--until must be a non-negative time horizon");
    }
    const std::uint64_t seed = args.get_uint64("seed", 1);

    std::ofstream trace_file;
    std::optional<TextTraceWriter> writer;
    std::optional<TraceFilter> filter;
    TraceSink* sink = nullptr;
    if (args.has("trace")) {
      trace_file.open(args.get("trace"));
      if (!trace_file) {
        throw std::invalid_argument("cannot write trace file '" + args.get("trace") +
                                    "'");
      }
      writer.emplace(trace_file);
      sink = &*writer;
      if (args.has("keep")) {
        filter.emplace(net, *writer);
        for (const std::string& name : split_commas(args.get("keep"))) {
          if (net.find_place(name)) {
            filter->keep_place(name);
          } else {
            filter->keep_transition(name);  // throws on unknown name
          }
        }
        sink = &*filter;
      }
    }

    BatchOptions options;
    options.stop = make_stop(args);
    BatchSimulator sim(m->compiled, 1, options);
    sim.set_seed(0, seed);
    sim.set_sink(0, sink);
    sim.run(until);

    out << "simulated to t=" << sim.now(0) << " (seed " << seed << ", "
        << (sim.stop_reason(0) == StopReason::kDeadlock ? "deadlocked" : "time limit")
        << ")\n";
    if (args.has("tbl")) {
      out << format_report_tbl(sim.stats(0));
    } else if (args.has("stats") || !args.has("trace")) {
      out << format_report(sim.stats(0));
    }
    return 0;
  }

  int cmd_stat(const Args& args, std::ostream& out) {
    const RecordedTrace trace = load_trace(require_positional(args, 0, "trace file"));
    out << format_report(collect_stats(trace));
    return 0;
  }

  int cmd_replicate(const Args& args, std::ostream& out) {
    const ModelPtr m = model(require_positional(args, 0, "model file"));
    const textio::NetDocument& doc = *m->doc;
    const std::uint64_t raw_reps = args.get_uint64("replications", 10);
    if (raw_reps < 1 || raw_reps > 1'000'000) {
      throw std::invalid_argument("--replications must be an integer in [1, 1000000]");
    }
    const auto replications = static_cast<std::size_t>(raw_reps);
    const Time horizon = args.get_number("horizon", 10000);
    if (!(horizon > 0)) throw std::invalid_argument("--horizon must be > 0");
    const std::uint64_t seed = args.get_uint64("seed", 1);
    const unsigned threads = parse_threads(args);

    // Figure-5 granularity: every transition's throughput and every place's
    // time-averaged occupancy, summarized across replications.
    std::vector<MetricSpec> metrics;
    for (std::uint32_t i = 0; i < doc.net.num_transitions(); ++i) {
      const std::string name = doc.net.transition(TransitionId(i)).name;
      metrics.push_back({"throughput(" + name + ")", [name](const RunStats& s) {
                           return s.transition(name).throughput;
                         }});
    }
    for (std::uint32_t i = 0; i < doc.net.num_places(); ++i) {
      const std::string name = doc.net.place(PlaceId(i)).name;
      metrics.push_back(
          {"tokens(" + name + ")",
           [name](const RunStats& s) { return s.place(name).avg_tokens; }});
    }

    // Replications run as lanes of one batched engine off the model's
    // compiled net; the output is bit-identical for every --threads value.
    const ReplicationResult result = run_replications(
        m->compiled, horizon, replications, metrics, seed, threads, make_stop(args));
    out << replications << " replications to t=" << horizon << " (seeds " << seed
        << ".." << seed + replications - 1 << ")\n";
    out << format_metric_summaries(result.metrics);
    return 0;
  }

  int cmd_query(const Args& args, std::ostream& out) {
    const StopToken stop = make_stop(args);
    if (args.has("reach")) {
      const ModelPtr m = model(args.get("reach"));
      analysis::ReachOptions options;
      options.max_states = static_cast<std::size_t>(args.get_uint64("max-states", 200000));
      parse_threads(args);  // validated only: the graph has one builder
      options.spill = parse_spill(args);
      options.stop = stop;
      const auto graph = reach_graph(*m, options);
      if (graph->status() != analysis::ReachStatus::kComplete) {
        const char* why = "unbounded";
        switch (graph->status()) {
          case analysis::ReachStatus::kTruncated: why = "truncated"; break;
          case analysis::ReachStatus::kTimeout: why = "stopped at deadline"; break;
          case analysis::ReachStatus::kCancelled: why = "cancelled"; break;
          default: break;
        }
        out << "warning: graph " << why << "; result is not a proof\n";
      }
      const std::string& query = require_positional(args, 0, "query string");
      const auto result = analysis::eval_query(*graph, query, stop);
      out << (result.holds ? "holds" : "fails") << " over " << graph->num_states()
          << " states (" << result.explanation << ")\n";
      return result.holds ? 0 : 1;
    }
    const RecordedTrace trace = load_trace(require_positional(args, 0, "trace file"));
    const std::string& query = require_positional(args, 1, "query string");
    const analysis::TraceStateSpace space(trace);
    const auto result = analysis::eval_query(space, query, stop);
    out << (result.holds ? "holds" : "fails") << " over " << space.num_states()
        << " trace states (" << result.explanation << ")\n";
    return result.holds ? 0 : 1;
  }

  int cmd_render(const Args& args, std::ostream& out) {
    const RecordedTrace trace = load_trace(require_positional(args, 0, "trace file"));
    tracer::Tracer tr(trace);
    if (!args.has("signals")) {
      throw std::invalid_argument("render needs --signals name,name,...");
    }
    for (const std::string& spec : split_commas(args.get("signals"))) {
      // `label=expression` defines a function signal; a bare name probes a
      // place, transition or variable (tried in that order).
      const auto eq = spec.find('=');
      if (eq != std::string::npos) {
        tr.add_function_signal(spec.substr(0, eq), spec.substr(eq + 1));
        continue;
      }
      if (tr.states().find_place(spec)) {
        tr.add_place_signal(spec);
      } else if (tr.states().find_transition(spec)) {
        tr.add_transition_signal(spec);
      } else {
        tr.add_variable_signal(spec);  // throws with a clear message if absent
      }
    }
    for (const std::string& marker : args.markers()) {
      const std::optional<double> time =
          marker.find('=') == 1
              ? parse_finite_number(std::string_view(marker).substr(2))
              : std::nullopt;
      if (!time) {
        throw std::invalid_argument("--marker expects X=time, got '" + marker + "'");
      }
      tr.set_marker(marker[0], *time);
    }
    tracer::RenderOptions options;
    const std::uint64_t columns = args.get_uint64("columns", 72);
    if (columns > kMaxRenderColumns) {
      throw std::invalid_argument("--columns must be an integer in [0, " +
                                  std::to_string(kMaxRenderColumns) + "]");
    }
    options.columns = static_cast<std::size_t>(columns);
    options.unicode = args.has("unicode");
    const Time t0 = args.get_number("from", tr.start_time());
    const Time t1 = args.get_number("to", tr.end_time());
    out << tr.render(t0, t1, options);
    return 0;
  }

  int cmd_animate(const Args& args, std::ostream& out) {
    const RecordedTrace trace = load_trace(require_positional(args, 0, "trace file"));
    const std::uint64_t steps = args.get_uint64("steps", 10);
    anim::Animator animator(trace);
    std::uint64_t shown = 0;
    while (!animator.at_end() && shown < steps) {
      for (const std::string& frame : animator.single_step()) {
        out << "------------------------------------------------------------\n"
            << frame;
      }
      ++shown;
    }
    out << "------------------------------------------------------------\n";
    return 0;
  }

  int cmd_analyze(const Args& args, std::ostream& out) {
    const ModelPtr m = model(require_positional(args, 0, "model file"));
    const Net& net = m->doc->net;
    // One immutable compiled view shared by every analyzer below.
    const std::shared_ptr<const CompiledNet>& compiled = m->compiled;

    out << "net: " << (net.name().empty() ? "(unnamed)" : net.name()) << " — "
        << net.num_places() << " places, " << net.num_transitions()
        << " transitions\n\n";

    // Structural invariants.
    const auto p_invs = analysis::place_invariants(*compiled);
    out << "place invariants (" << p_invs.size() << "):\n";
    for (const auto& inv : p_invs) {
      out << "  " << analysis::format_place_invariant(net, inv) << '\n';
    }
    out << (analysis::covered_by_place_invariants(net, p_invs)
                ? "  every place covered: net is structurally bounded\n"
                : "  (not all places covered by invariants)\n");
    const auto t_invs = analysis::transition_invariants(*compiled);
    out << "transition invariants (" << t_invs.size() << "):\n";
    for (const auto& inv : t_invs) {
      out << "  " << analysis::format_transition_invariant(net, inv) << '\n';
    }

    // Reachability. --threads is validated only: the graph has one builder.
    analysis::ReachOptions options;
    options.max_states = static_cast<std::size_t>(args.get_uint64("max-states", 100000));
    parse_threads(args);
    options.spill = parse_spill(args);
    const StopToken stop = make_stop(args);
    options.stop = stop;
    const auto graph = reach_graph(*m, options);
    out << "\nreachability: " << graph->num_states() << " states, "
        << graph->num_edges() << " edges";
    switch (graph->status()) {
      case analysis::ReachStatus::kComplete: out << " (complete)\n"; break;
      case analysis::ReachStatus::kTruncated: out << " (TRUNCATED at limit)\n"; break;
      case analysis::ReachStatus::kUnbounded: out << " (UNBOUNDED place found)\n"; break;
      case analysis::ReachStatus::kTimeout: out << " (STOPPED at deadline)\n"; break;
      case analysis::ReachStatus::kCancelled: out << " (CANCELLED)\n"; break;
    }
    if (graph->num_states() > 0) {
      const std::size_t bytes = graph->memory_bytes();
      out << "  state storage: " << bytes / graph->num_states() << " bytes/state ("
          << (bytes + 1023) / 1024 << " KiB)\n";
      if (graph->spill_engaged()) {
        out << "  out-of-core: " << (graph->spilled_bytes() + 1023) / 1024
            << " KiB spilled, peak resident "
            << (graph->peak_resident_bytes() + 1023) / 1024 << " KiB\n";
      }
    }
    // The invariant engine's reachability pass: check the structural
    // P-invariants exactly over every discovered marking (sound even on a
    // truncated graph — every discovered marking is reachable). Shares the
    // graph built above.
    if (!p_invs.empty() && graph->num_states() > 0) {
      const auto violations = analysis::check_place_invariants_on_graph(*graph, p_invs);
      if (violations.empty()) {
        out << "  place invariants verified over " << graph->num_states()
            << " reachable states\n";
      } else {
        for (const auto& v : violations) {
          out << "  INVARIANT VIOLATION: "
              << analysis::format_place_invariant(net, p_invs[v.invariant])
              << " has value " << v.value << " in state #" << v.state << '\n';
        }
      }
    }
    if (graph->status() == analysis::ReachStatus::kComplete) {
      out << "  deadlock states: " << graph->deadlock_states().size() << '\n';
      out << "  dead transitions:";
      const auto dead = graph->dead_transitions();
      if (dead.empty()) {
        out << " none\n";
      } else {
        for (const TransitionId t : dead) out << ' ' << net.transition(t).name;
        out << '\n';
      }
      out << "  reversible: " << (graph->is_reversible() ? "yes" : "no") << '\n';
      out << "  place bounds:";
      for (std::uint32_t i = 0; i < net.num_places(); ++i) {
        out << ' ' << net.place(PlaceId(i)).name << '='
            << graph->place_bound(PlaceId(i));
      }
      out << '\n';
    }

    // Timed reachability when delays permit (integer constants, no
    // predicates/actions): timed state count and timed deadlocks.
    try {
      analysis::TimedReachOptions topts;
      topts.max_states = static_cast<std::size_t>(args.get_uint64("max-states", 100000));
      topts.spill = options.spill;
      topts.stop = stop;
      const auto timed = timed_graph(*m, topts);
      const char* timed_status = " (complete)";
      switch (timed->status()) {
        case analysis::TimedReachStatus::kComplete: break;
        case analysis::TimedReachStatus::kTruncated:
          timed_status = " (TRUNCATED)";
          break;
        case analysis::TimedReachStatus::kTimeout:
          timed_status = " (STOPPED at deadline)";
          break;
        case analysis::TimedReachStatus::kCancelled:
          timed_status = " (CANCELLED)";
          break;
      }
      out << "timed reachability: " << timed->num_states() << " states"
          << timed_status << ", timed deadlocks: " << timed->deadlock_states().size()
          << '\n';
    } catch (const analysis::TimedLimitError& e) {
      out << "timed reachability: skipped (" << e.what() << ")\n";
    } catch (const std::invalid_argument&) {
      out << "timed reachability: skipped (non-integer delays or interpreted net)\n";
    }

    // Analytic cycle time when the structure allows it.
    if (compiled->is_marked_graph()) {
      try {
        const auto result = analysis::marked_graph_cycle_time(*compiled);
        if (result.has_token_free_cycle) {
          out << "marked graph: token-free cycle (net is partially dead)\n";
        } else {
          out << "marked graph cycle time: " << result.cycle_time << '\n';
        }
      } catch (const std::invalid_argument&) {
        // computed delays: skip the analytic section
      }
    }
    return 0;
  }

  int dispatch(const std::string& command, const Args& args, std::ostream& out) {
    if (command == "validate") return cmd_validate(args, out);
    if (command == "check") return cmd_check(args, out);
    if (command == "print") return cmd_print(args, out);
    if (command == "simulate") return cmd_simulate(args, out);
    if (command == "replicate") return cmd_replicate(args, out);
    if (command == "stat") return cmd_stat(args, out);
    if (command == "query") return cmd_query(args, out);
    if (command == "render") return cmd_render(args, out);
    if (command == "animate") return cmd_animate(args, out);
    if (command == "analyze") return cmd_analyze(args, out);
    throw std::logic_error("dispatch: no handler for '" + command + "'");
  }
};

Session::Session(SessionOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

Session::~Session() = default;

Result Session::execute(const Request& request) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    ++impl_->counters.requests;
  }
  if (request.command == "help" || request.command == "--help") {
    return {0, usage(), {}};
  }
  const FlagSpec* spec = spec_for(request.command);
  if (spec == nullptr) {
    return {2, {}, "unknown command '" + request.command + "'\n" + usage()};
  }
  std::ostringstream out;
  // Partial output stays in `out` — the one-shot CLI would have printed it
  // before the failure, and the served result must match byte for byte.
  // Crash-only contract: *nothing* escapes as an exception. Operational
  // failures — a tripped deadline/cancel, memory exhaustion, spill I/O (a
  // full disk) — are code 1: the request was well-formed, the environment
  // failed, a retry may succeed. Anything else (bad flags, unknown names,
  // parse errors) stays code 2.
  try {
    const Args args(request.args, 0, *spec);
    const int code = impl_->dispatch(request.command, args, out);
    return {code, out.str(), {}};
  } catch (const StopError& e) {
    return {1, out.str(), "pnut " + request.command + ": " + e.what() + "\n"};
  } catch (const std::bad_alloc&) {
    return {1, out.str(), "pnut " + request.command + ": out of memory\n"};
  } catch (const std::system_error& e) {
    return {1, out.str(), "pnut " + request.command + ": " + e.what() + "\n"};
  } catch (const std::exception& e) {
    return {2, out.str(), "pnut " + request.command + ": " + e.what() + "\n"};
  } catch (...) {
    return {1, out.str(), "pnut " + request.command + ": unknown failure\n"};
  }
}

void Session::cancel_inflight() { impl_->drain.store(true, std::memory_order_relaxed); }

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  SessionStats s = impl_->counters;
  s.graph_cache_bytes = impl_->cached_bytes;
  s.graph_cache_entries = impl_->reach_cache.size() + impl_->timed_cache.size();
  s.compile_cache_entries = impl_->models.size();
  return s;
}

std::string Session::stats_report() const {
  const SessionStats s = stats();
  std::ostringstream out;
  out << "requests: " << s.requests << '\n'
      << "compile cache: " << s.compile_hits << " hits, " << s.compile_misses
      << " misses, " << s.compile_cache_entries << " entries\n"
      << "graph cache: " << s.graph_hits << " hits, " << s.graph_misses
      << " misses, " << s.graph_evictions << " evictions, " << s.graph_cache_entries
      << " entries, " << s.graph_cache_bytes << " bytes resident\n";
  return out.str();
}

}  // namespace pnut::cli
