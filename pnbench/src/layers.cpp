#include "layers.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/invariants.h"
#include "analysis/marked_graph.h"
#include "analysis/query.h"
#include "analysis/reachability.h"
#include "analysis/state_space.h"
#include "analysis/timed_reachability.h"
#include "expr/program.h"
#include "petri/compiled_net.h"
#include "sim/simulator.h"
#include "stat/replication.h"
#include "stat/stat.h"
#include "textio/pn_format.h"
#include "trace/trace_text.h"
#include "tracer/tracer.h"

namespace pnbench {

// --- spans ------------------------------------------------------------------

int SpanRecorder::open(const char* name, int parent, std::uint32_t request) {
  const double now = ms_between(origin_, Clock::now());
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms = ms_between(origin_, Clock::now());
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_ms\":%.4f,\"end_ms\":%.4f,\"parent\":%d,"
                  "\"request\":%u}\n",
                  s.name, s.start_ms, s.end_ms, s.parent, s.request);
    out << line;
  }
}

namespace {

/// Opens a span on construction, closes it on destruction.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, int parent, std::uint32_t id)
      : rec_(rec), index_(rec.open(name, parent, id)) {}
  ~Scope() { rec_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

/// The subset of the CLI's flag grammar the generated requests use:
/// `--stats` is the only flag without a value.
struct Parsed {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  [[nodiscard]] bool has(const std::string& f) const { return flags.count(f) != 0; }
  [[nodiscard]] double number(const std::string& f, double fallback) const {
    return has(f) ? std::stod(flags.at(f)) : fallback;
  }
};

Parsed parse_args(const std::vector<std::string>& args) {
  Parsed p;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) != 0) {
      p.positional.push_back(args[i]);
      continue;
    }
    const std::string name = args[i].substr(2);
    if (name == "stats" || i + 1 == args.size()) {
      p.flags[name] = "";
    } else {
      p.flags[name] = args[++i];
    }
  }
  return p;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

// --- replay -----------------------------------------------------------------

struct LayerReplay::Model {
  pnut::textio::NetDocument doc;
  std::shared_ptr<const pnut::CompiledNet> compiled;
  std::string source;
};

struct LayerReplay::Graphs {
  struct Entry {
    std::shared_ptr<const pnut::analysis::ReachabilityGraph> reach;
    std::shared_ptr<const pnut::analysis::TimedReachabilityGraph> timed;
    std::uint64_t bytes = 0;
    std::uint64_t last_used = 0;
  };
  std::map<std::string, Entry> entries;
  std::uint64_t tick = 0;
  std::uint64_t bytes = 0;

  /// LRU eviction as the Session does it: oldest first, the entry just
  /// built last; an entry alone over budget is not retained.
  void evict(std::uint64_t budget, const std::string& keep) {
    while (bytes > budget) {
      auto victim = entries.end();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->first == keep) continue;
        if (victim == entries.end() || it->second.last_used < victim->second.last_used) {
          victim = it;
        }
      }
      if (victim == entries.end()) break;
      bytes -= victim->second.bytes;
      entries.erase(victim);
    }
    if (bytes > budget) {
      const auto it = entries.find(keep);
      if (it != entries.end()) {
        bytes -= it->second.bytes;
        entries.erase(it);
      }
    }
  }
};

LayerReplay::LayerReplay(SpanRecorder& recorder, bool cache, std::uint64_t budget_bytes)
    : rec_(recorder), cache_(cache), budget_(budget_bytes), graphs_(std::make_unique<Graphs>()) {}

LayerReplay::~LayerReplay() = default;

std::shared_ptr<const LayerReplay::Model> LayerReplay::model(const std::string& path,
                                                              int parent, std::uint32_t id) {
  std::string source = read_file(path);
  if (cache_) {
    const auto it = models_.find(source);
    if (it != models_.end()) return it->second;
  }
  auto m = std::make_shared<Model>();
  {
    Scope s(rec_, "textio.parse", parent, id);
    m->doc = pnut::textio::parse_net(source);
  }
  {
    Scope s(rec_, "petri.compile", parent, id);
    m->compiled = pnut::CompiledNet::compile(m->doc.net);
  }
  {
    // The engines lower the net's expressions inside their own
    // constructors; this standalone call times that step by itself.
    Scope s(rec_, "expr.lower", parent, id);
    const auto program = pnut::expr::NetProgram::compile(m->doc.net);
    (void)program;
  }
  m->source = source;
  if (cache_) models_.emplace(std::move(source), m);
  return m;
}

std::shared_ptr<const pnut::analysis::ReachabilityGraph> LayerReplay::reach(
    const Model& m, std::size_t max_states, int parent, std::uint32_t id) {
  Scope s(rec_, "analysis.reach", parent, id);
  const std::string key = "reach;" + std::to_string(max_states) + "\n" + m.source;
  if (cache_) {
    const auto it = graphs_->entries.find(key);
    if (it != graphs_->entries.end()) {
      it->second.last_used = ++graphs_->tick;
      return it->second.reach;
    }
  }
  pnut::analysis::ReachOptions options;
  options.max_states = max_states;
  options.threads = 1;
  auto graph = std::make_shared<const pnut::analysis::ReachabilityGraph>(m.compiled, options);
  work_.reach_states += graph->num_states();
  work_.reach_edges += graph->num_edges();
  work_.reach_bytes += graph->memory_bytes();
  if (cache_) {
    Graphs::Entry& e = graphs_->entries[key];
    e.reach = graph;
    e.bytes = graph->memory_bytes();
    e.last_used = ++graphs_->tick;
    graphs_->bytes += e.bytes;
    graphs_->evict(budget_, key);
  }
  return graph;
}

std::shared_ptr<const pnut::analysis::TimedReachabilityGraph> LayerReplay::timed(
    const Model& m, int parent, std::uint32_t id) {
  Scope s(rec_, "analysis.timed", parent, id);
  const std::string key = "timed\n" + m.source;
  if (cache_) {
    const auto it = graphs_->entries.find(key);
    if (it != graphs_->entries.end()) {
      it->second.last_used = ++graphs_->tick;
      return it->second.timed;
    }
  }
  pnut::analysis::TimedReachOptions options;
  options.max_states = 100000;
  options.threads = 1;
  auto graph =
      std::make_shared<const pnut::analysis::TimedReachabilityGraph>(m.compiled, options);
  work_.timed_states += graph->num_states();
  if (cache_) {
    Graphs::Entry& e = graphs_->entries[key];
    e.timed = graph;
    e.bytes = graph->memory_bytes();
    e.last_used = ++graphs_->tick;
    graphs_->bytes += e.bytes;
    graphs_->evict(budget_, key);
  }
  return graph;
}

Observed LayerReplay::replay(const pnut::cli::Request& request, int parent, std::uint32_t id) {
  const Parsed a = parse_args(request.args);
  Observed o;
  const std::string& cmd = request.command;

  if (cmd == "analyze") {
    const auto m = model(a.positional.at(0), parent, id);
    std::vector<pnut::analysis::Invariant> p_invs;
    {
      Scope s(rec_, "analysis.invariants", parent, id);
      p_invs = pnut::analysis::place_invariants(*m->compiled);
      const auto t_invs = pnut::analysis::transition_invariants(*m->compiled);
      (void)t_invs;
    }
    const auto graph = reach(*m, 100000, parent, id);
    o.reach_states = graph->num_states();
    o.reach_edges = graph->num_edges();
    {
      Scope s(rec_, "analysis.report", parent, id);
      if (!p_invs.empty() && graph->num_states() > 0) {
        (void)pnut::analysis::check_place_invariants_on_graph(*graph, p_invs);
      }
      if (graph->status() == pnut::analysis::ReachStatus::kComplete) {
        (void)graph->deadlock_states();
        (void)graph->dead_transitions();
        (void)graph->is_reversible();
        for (std::uint32_t i = 0; i < m->doc.net.num_places(); ++i) {
          (void)graph->place_bound(pnut::PlaceId(i));
        }
      }
      if (m->compiled->is_marked_graph()) {
        try {
          (void)pnut::analysis::marked_graph_cycle_time(*m->compiled);
        } catch (const std::invalid_argument&) {
        }
      }
    }
    try {
      o.timed_states = timed(*m, parent, id)->num_states();
    } catch (const std::invalid_argument&) {
      o.timed_skipped = true;
    }
    return o;
  }

  if (cmd == "query" && a.has("reach")) {
    const auto m = model(a.flags.at("reach"), parent, id);
    const auto graph = reach(*m, 200000, parent, id);
    o.reach_states = graph->num_states();
    Scope s(rec_, "analysis.query", parent, id);
    (void)pnut::analysis::eval_query(*graph, a.positional.at(0));
    return o;
  }

  if (cmd == "simulate") {
    const auto m = model(a.positional.at(0), parent, id);
    pnut::StatCollector stats;
    pnut::MultiSink sinks;
    sinks.add(stats);
    std::ostringstream trace_text;
    pnut::TextTraceWriter writer(trace_text);
    if (a.has("trace")) sinks.add(writer);
    {
      Scope s(rec_, "sim.scalar", parent, id);
      pnut::Simulator sim(m->compiled);
      sim.set_sink(&sinks);
      sim.reset(static_cast<std::uint64_t>(a.number("seed", 1)));
      sim.run_until(a.number("until", 10000));
      sim.finish();
    }
    o.sim_events = stats.stats().events_started;
    work_.sim_events += o.sim_events;
    if (a.has("stats") || !a.has("trace")) {
      Scope s(rec_, "stat.summary", parent, id);
      (void)pnut::format_report(stats.stats());
    }
    return o;
  }

  if (cmd == "replicate") {
    const auto m = model(a.positional.at(0), parent, id);
    const pnut::Net& net = m->doc.net;
    std::vector<pnut::MetricSpec> metrics;
    for (std::uint32_t i = 0; i < net.num_transitions(); ++i) {
      const std::string name = net.transition(pnut::TransitionId(i)).name;
      metrics.push_back({"throughput(" + name + ")", [name](const pnut::RunStats& r) {
                           return r.transition(name).throughput;
                         }});
    }
    for (std::uint32_t i = 0; i < net.num_places(); ++i) {
      const std::string name = net.place(pnut::PlaceId(i)).name;
      metrics.push_back({"tokens(" + name + ")", [name](const pnut::RunStats& r) {
                           return r.place(name).avg_tokens;
                         }});
    }
    const auto lanes = static_cast<std::size_t>(a.number("replications", 10));
    pnut::ReplicationResult result;
    {
      Scope s(rec_, "sim.batch", parent, id);
      result = pnut::run_replications(net, a.number("horizon", 10000), lanes, metrics,
                                      static_cast<std::uint64_t>(a.number("seed", 1)), 1);
    }
    o.lanes = lanes;
    work_.batch_lanes += lanes;
    for (const pnut::RunStats& r : result.runs) work_.batch_events += r.events_started;
    Scope s(rec_, "stat.summary", parent, id);
    (void)pnut::format_metric_summaries(result.metrics);
    return o;
  }

  // Trace tools: stat, query on a trace, render.
  const std::string& trace_path = a.positional.at(0);
  pnut::RecordedTrace trace;
  {
    Scope s(rec_, "trace.read", parent, id);
    std::ifstream in(trace_path);
    if (!in) throw std::runtime_error("cannot open '" + trace_path + "'");
    trace = pnut::read_trace_text(in);
  }
  if (cmd == "stat") {
    Scope s(rec_, "stat.summary", parent, id);
    (void)pnut::format_report(pnut::collect_stats(trace));
  } else if (cmd == "query") {
    Scope s(rec_, "analysis.trace_query", parent, id);
    const pnut::analysis::TraceStateSpace space(trace);
    o.trace_states = space.num_states();
    (void)pnut::analysis::eval_query(space, a.positional.at(1));
  } else if (cmd == "render") {
    Scope s(rec_, "tracer.render", parent, id);
    pnut::tracer::Tracer tr(trace);
    for (const std::string& name : split_commas(a.flags.at("signals"))) {
      if (tr.states().find_place(name)) {
        tr.add_place_signal(name);
      } else if (tr.states().find_transition(name)) {
        tr.add_transition_signal(name);
      } else {
        tr.add_variable_signal(name);
      }
    }
    pnut::tracer::RenderOptions options;
    options.columns = static_cast<std::size_t>(a.number("columns", 72));
    (void)tr.render(tr.start_time(), tr.end_time(), options);
  } else {
    throw std::invalid_argument("replay: unsupported command '" + cmd + "'");
  }
  return o;
}

}  // namespace pnbench
