#include "workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "pipeline/model.h"
#include "reach_models.h"
#include "textio/pn_format.h"
#include "util.h"

namespace pnbench {

namespace {

using pnut::cli::Request;

// --- models -----------------------------------------------------------------

/// Token ring `name` of `places` places whose `tokens` tokens all start on
/// place `start`. Every distribution of the tokens is reachable from every
/// other, so the graph has C(places + tokens - 1, tokens) states and
/// places * C(places + tokens - 2, tokens - 1) edges, and rings that
/// differ only in `start` are rotations of one graph: same work.
std::string ring_text(const std::string& name, std::size_t places, std::uint64_t tokens,
                      std::size_t start) {
  std::ostringstream text;
  text << "net " << name << '\n';
  for (std::size_t i = 0; i < places; ++i) {
    text << "place P" << i;
    if (i == start) text << " init " << tokens;
    text << '\n';
  }
  for (std::size_t i = 0; i < places; ++i) {
    text << "trans t" << i << " in P" << i << " out P" << (i + 1) % places << '\n';
  }
  return text.str();
}

std::uint64_t ring_states(std::size_t places, std::uint64_t tokens) {
  return choose(places + tokens - 1, tokens);
}

std::uint64_t ring_edges(std::size_t places, std::uint64_t tokens) {
  // Each state enables one transition per occupied place; summed over all
  // states that is places * (states with place 0 occupied).
  return places * choose(places + tokens - 2, tokens - 1);
}

/// reach_models::timed_race_ring rotated by the seed: a token every
/// `spread`-th place starting at `offset`. Rotation is a symmetry of the
/// ring, so the timed graph has the same size for every offset.
std::string race_ring_text(std::size_t places, std::size_t spread, std::size_t offset) {
  std::ostringstream text;
  text << "net timed_race_ring\n";
  for (std::size_t i = 0; i < places; ++i) {
    text << "place p" << i;
    if ((i + places - offset) % places % spread == 0) text << " init 1";
    text << '\n';
  }
  for (std::size_t i = 0; i < places; ++i) {
    for (const std::size_t hop : {1, 2}) {
      text << "trans t" << i << '_' << hop << " in p" << i << " out p"
           << (i + hop) % places << " enabling 1 firing " << hop << '\n';
    }
  }
  return text.str();
}

/// Figure 4's operand-fetch loop inside a prefetching pipeline, written in
/// the .pn scripting syntax (the C++-built Figure 4 net cannot be printed:
/// its hooks have no source text). The seed permutes the instruction-type
/// table rows; irand draws the type uniformly, so every permutation gives
/// an isomorphic graph.
std::string interpreted_text(Rng& rng) {
  std::vector<std::pair<int, int>> rows = {{0, 1}, {1, 2}, {2, 5}};  // operands, cycles
  rng.shuffle(rows);
  std::ostringstream text;
  text << "net interpreted_operand_fetch\n"
       << "fn \"fetch_left(n) { return n > 0; }\"\n"
       << "param max_type 3\n"
       << "param memory_cycles 5\n"
       << "table operands 0";
  for (const auto& r : rows) text << ' ' << r.first;
  text << "\ntable exec_cycles 0";
  for (const auto& r : rows) text << ' ' << r.second;
  text << "\nvar type 0\n"
          "var number_of_operands_needed 0\n"
          "var cycles 0\n"
          "place Bus_free init 1 capacity 1\n"
          "place Bus_busy capacity 1\n"
          "place Empty_I_buffers init 6 capacity 6\n"
          "place Full_I_buffers capacity 6\n"
          "place pre_fetching capacity 1\n"
          "place Decoder_ready init 1 capacity 1\n"
          "place Decoded_instruction capacity 1\n"
          "place fetching capacity 1\n"
          "place Execution_unit init 1 capacity 1\n"
          "place Issued_instruction capacity 1\n"
          "trans Start_prefetch in Bus_free, Empty_I_buffers*2 out Bus_busy, pre_fetching\n"
          "trans End_prefetch in pre_fetching, Bus_busy out Bus_free, Full_I_buffers*2\n"
          "  enabling expr \"memory_cycles\"\n"
          "trans Decode in Full_I_buffers, Decoder_ready out Decoded_instruction, "
          "Empty_I_buffers\n"
          "  firing 1 do \"type = irand[1, max_type]; "
          "number_of_operands_needed = operands[type]\"\n"
          "trans fetch_operand in Decoded_instruction, Bus_free out Bus_busy, fetching\n"
          "  when \"fetch_left(number_of_operands_needed)\"\n"
          "trans end_fetch in fetching, Bus_busy out Bus_free, Decoded_instruction\n"
          "  enabling expr \"memory_cycles\"\n"
          "  do \"number_of_operands_needed = number_of_operands_needed - 1\"\n"
          "trans Issue in Decoded_instruction, Execution_unit out Issued_instruction, "
          "Decoder_ready\n"
          "  when \"number_of_operands_needed == 0\" do \"cycles = exec_cycles[type]\"\n"
          "trans Execute in Issued_instruction out Execution_unit firing expr \"cycles\"\n";
  return text.str();
}

/// A shipped model with its `param memory_cycles` value replaced.
std::string with_memory_cycles(const std::string& source, int cycles) {
  const std::string key = "param memory_cycles ";
  const auto at = source.find(key);
  if (at == std::string::npos) throw std::runtime_error("model has no memory_cycles param");
  const auto end = source.find('\n', at);
  return source.substr(0, at) + key + std::to_string(cycles) + source.substr(end);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// --- request mixes ----------------------------------------------------------

/// Split `count` over weighted classes by largest remainder: floor shares,
/// then one more to the classes with the largest fractional parts (ties
/// to the earlier class). Fixed for a given count.
std::vector<std::size_t> apportion(std::size_t count, const std::vector<double>& weights) {
  double total = 0;
  for (const double w : weights) total += w;
  std::vector<std::size_t> out(weights.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t used = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double share = static_cast<double>(count) * weights[i] / total;
    out[i] = static_cast<std::size_t>(std::floor(share));
    used += out[i];
    remainders.push_back({share - std::floor(share), i});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; used < count; ++k, ++used) ++out[remainders[k].second];
  return out;
}

/// A model some requests run against: its file and what analyze/query
/// must report about it.
struct Model {
  std::string file;
  std::uint64_t states = 0;
  std::uint64_t edges = 0;
  std::uint64_t timed_states = 0;  ///< 0 with timed_skipped = true: interpreted
  bool timed_skipped = false;
  /// Query strings that hold on this model, keyed by kind.
  std::vector<std::string> forall, exists, fixpoint;
  /// An `exists` query the initial state answers.
  std::string point;
};

Item analyze_item(const Workload& w, const Model& m, const std::string& klass) {
  Item it;
  it.request = Request{"analyze", {w.dir + "/" + m.file, "--threads", "1"}};
  it.klass = klass;
  it.expect.states = m.states;
  it.expect.edges = m.edges;
  it.expect.timed_states = m.timed_states;
  it.expect.timed_skipped = m.timed_skipped;
  it.expect.prefix = "net: ";
  it.stable_key = request_line(it.request);
  return it;
}

Item query_item(const Workload& w, const Model& m, const std::string& query,
                const std::string& klass) {
  Item it;
  it.request = Request{"query", {"--reach", w.dir + "/" + m.file, query, "--threads", "1"}};
  it.klass = klass;
  it.expect.states = m.states;
  it.expect.prefix = "holds over " + std::to_string(m.states) + " states";
  it.stable_key = request_line(it.request);
  return it;
}

// Queries over a ring of `places` places (prefix P) and `tokens` tokens.
void ring_queries(Model& m, std::size_t places, std::uint64_t tokens) {
  std::ostringstream sum;
  sum << "forall s in S [ ";
  for (std::size_t i = 0; i < places; ++i) sum << (i ? " + " : "") << 'P' << i << "(s)";
  sum << " = " << tokens << " ]";
  m.forall.push_back(sum.str());
  for (std::size_t k = 0; k < places; ++k) {
    const std::string t = std::to_string(tokens);
    const std::string pk = "P" + std::to_string(k);
    const std::string pn = "P" + std::to_string((k + 1) % places);
    m.forall.push_back("forall s in S [ " + pk + "(s) <= " + t + " ]");
    m.exists.push_back("exists s in S [ " + pk + "(s) = " + t + " ]");
    m.fixpoint.push_back("forall s in {s' in S | " + pk + "(s') = " + t + "} [ inev(s, " +
                         pn + "(C) > 0, true) ]");
    m.fixpoint.push_back("forall s in {s' in S | " + pk + "(s') = " + t + "} [ poss(s, " +
                         pn + "(C) = " + t + ", true) ]");
  }
}

/// A ring model: its file, closed-form counts and queries. The seed picks
/// the start place.
Model ring_model(Workload& w, const std::string& file, std::size_t places,
                 std::uint64_t tokens, Rng& rng, const std::string& name = "ring") {
  const std::size_t start = rng.next() % places;
  Model m;
  m.file = file;
  m.states = ring_states(places, tokens);
  m.edges = ring_edges(places, tokens);
  m.timed_states = m.states;  // no delays: every marking is a timed state
  ring_queries(m, places, tokens);
  m.point = "exists s in S [ P" + std::to_string(start) + "(s) = " + std::to_string(tokens) + " ]";
  w.files[file] = ring_text(name, places, tokens, start);
  return m;
}

// Queries the paper states for its pipeline (Section 4.4), which hold on
// every pipeline-shaped model here.
void pipeline_queries(Model& m) {
  m.forall = {"forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]",
              "forall s in S [ Bus_busy(s) <= 1 ]"};
  m.exists = {"exists s in (S-{#0}) [ Empty_I_buffers(s) = 6 ]",
              "exists s in S [ Full_I_buffers(s) = 2 ]",
              "exists s in S [ Full_I_buffers(s) = 4 ]", "exists s in S [ Bus_busy(s) = 1 ]"};
  m.fixpoint = {"forall s in {s' in S | Bus_busy(s')} [ inev(s, Bus_free(C), true) ]",
                "forall s in {s' in S | Bus_free(s')} [ poss(s, Bus_busy(C) = 1, true) ]"};
  m.point = "exists s in S [ Bus_free(s) = 1 ]";
}

// --- workloads --------------------------------------------------------------

struct Golden {
  std::uint64_t states;
  std::uint64_t edges;
};

// Frozen counts of the generated models (the paper goldens come from
// bench/reach_models.h; rings from the closed form). Any change to a
// count is an engine regression the checks must catch.
constexpr Golden kExtUnified{1208, 4203};
constexpr Golden kExtIcache{1012, 3518};
constexpr Golden kExtDcache{968, 3222};
constexpr std::uint64_t kInterpretedStates = 676;
constexpr std::uint64_t kInterpretedEdges = 1353;
constexpr std::uint64_t kFig1TimedStates = 15;
constexpr std::uint64_t kFullTimedStates = 4894;
constexpr std::size_t kServePoolModels = 24;

struct RingClass {
  const char* name;
  std::size_t places;
  std::uint64_t tokens;
};
constexpr RingClass kRings[] = {{"ring5k", 10, 6}, {"ring19k", 11, 7}, {"ring75k", 12, 8}};

struct RaceClass {
  const char* name;
  std::size_t places;
  std::size_t spread;
  std::uint64_t timed_states;  ///< frozen, rotation-invariant
};
constexpr RaceClass kRaces[] = {
    {"race_small", 9, 3, 12876}, {"race_mid", 12, 4, 31928}, {"race_large", 13, 5, 41002}};

/// The paper's Figure 1 prefetch net or full pipeline, printed to .pn.
Model paper_model(Workload& w, bool full) {
  Model m;
  const auto& golden = full ? pnut::reach_models::kFullModel : pnut::reach_models::kFig1Prefetch;
  m.file = full ? "full_pipeline.pn" : "fig1_prefetch.pn";
  m.states = golden.states;
  m.edges = golden.edges;
  m.timed_states = full ? kFullTimedStates : kFig1TimedStates;
  pipeline_queries(m);
  w.files[m.file] = pnut::textio::print_net(full ? pnut::pipeline::build_full_model()
                                                 : pnut::pipeline::build_prefetch_model());
  return m;
}

/// A shipped ext_cache_*.pn model with `param memory_cycles` set.
/// memory_cycles only shapes delays, which untimed reachability ignores,
/// so the counts do not depend on it.
Model ext_model(Workload& w, const std::string& models_dir, const std::string& stem,
                const Golden& golden, int memory_cycles) {
  Model m;
  m.file = stem + ".pn";
  m.states = golden.states;
  m.edges = golden.edges;
  m.timed_skipped = true;
  pipeline_queries(m);
  w.files[m.file] = with_memory_cycles(read_text(models_dir + "/" + m.file), memory_cycles);
  return m;
}

Workload explore_cold(std::uint64_t seed, std::size_t count, const std::string& models_dir,
                      const std::string& dir) {
  Workload w;
  w.name = "explore-cold";
  w.dir = dir;
  Rng rng(seed ^ 0x65787031ull);

  std::map<std::string, std::vector<Model>> models;  // class -> variants
  models["fig1"].push_back(paper_model(w, false));
  models["full"].push_back(paper_model(w, true));
  const std::pair<const char*, Golden> ext[] = {{"ext_cache_unified", kExtUnified},
                                                {"ext_cache_icache", kExtIcache},
                                                {"ext_cache_dcache", kExtDcache}};
  for (const auto& [stem, golden] : ext) {
    models["ext_cache"].push_back(
        ext_model(w, models_dir, stem, golden, static_cast<int>(rng.range(3, 9))));
  }
  {
    Model m;
    m.file = "interpreted.pn";
    m.states = kInterpretedStates;
    m.edges = kInterpretedEdges;
    m.timed_skipped = true;
    pipeline_queries(m);
    w.files[m.file] = interpreted_text(rng);
    models["interpreted"].push_back(m);
  }
  for (const RingClass& rc : kRings) {
    for (int v = 0; v < 3; ++v) {
      const std::string file = std::string(rc.name) + "_" + std::to_string(v) + ".pn";
      models[rc.name].push_back(ring_model(w, file, rc.places, rc.tokens, rng));
    }
  }
  for (const RaceClass& rc : kRaces) {
    for (int v = 0; v < 2; ++v) {
      Model m;
      m.file = std::string(rc.name) + "_" + std::to_string(v) + ".pn";
      const std::uint64_t tokens = (rc.places + rc.spread - 1) / rc.spread;
      m.states = ring_states(rc.places, tokens);
      m.edges = 0;  // hop-2 moves make the edge count placement-specific
      m.timed_states = rc.timed_states;
      w.files[m.file] = race_ring_text(rc.places, rc.spread, rng.next() % rc.places);
      models[rc.name].push_back(m);
    }
  }

  // Request classes: (model class, kind, weight). Kinds: analyze, forall,
  // exists, fixpoint.
  struct Mix {
    const char* model;
    const char* kind;
    double weight;  ///< per mille of the list; 0 for a fixed count
    std::size_t fixed = 0;
  };
  // Weights per mille of the list. The median falls in the middle of one
  // class (analyze:full, ranks 40-60%). The tail order statistic (10
  // samples beyond) falls inside the heaviest proportional class
  // (analyze:ring19k) for lists of 250-500 requests, below a fixed six
  // heavier requests.
  static const Mix kMix[] = {
      // cheap: 40%, all under ~7 ms
      {"fig1", "analyze", 40},        {"fig1", "forall", 30},
      {"fig1", "exists", 30},         {"fig1", "fixpoint", 30},
      {"ext_cache", "analyze", 40},   {"ext_cache", "forall", 20},
      {"ext_cache", "exists", 20},    {"ext_cache", "fixpoint", 20},
      {"interpreted", "analyze", 30}, {"interpreted", "forall", 20},
      {"interpreted", "exists", 20},  {"full", "forall", 20},
      {"full", "exists", 20},         {"full", "fixpoint", 20},
      {"ring5k", "forall", 10},       {"ring5k", "exists", 10},
      {"ring5k", "fixpoint", 20},
      // the median class: 20%
      {"full", "analyze", 200},
      // heavy: 40%
      {"ring5k", "analyze", 120},     {"race_small", "analyze", 92},
      {"ring19k", "forall", 30},      {"ring19k", "exists", 40},
      {"ring19k", "fixpoint", 50},    {"ring19k", "analyze", 56},
      // the six heaviest requests
      {"race_mid", "analyze", 0, 2},  {"ring75k", "exists", 0, 2},
      {"race_large", "analyze", 0, 1}, {"ring75k", "analyze", 0, 1},
  };
  std::vector<double> weights;
  std::size_t fixed = 0;
  for (const Mix& m : kMix) {
    weights.push_back(m.weight);
    fixed += m.fixed;
  }
  std::vector<std::size_t> counts = apportion(count > fixed ? count - fixed : 0, weights);
  for (std::size_t c = 0; c < std::size(kMix); ++c) counts[c] += kMix[c].fixed;

  // Inside a class, variants and queries are taken in rotation from a
  // seeded offset: the seed changes which ones, not how many of each kind.
  for (std::size_t c = 0; c < std::size(kMix); ++c) {
    const Mix& mix = kMix[c];
    const std::vector<Model>& variants = models.at(mix.model);
    const std::string klass = std::string(mix.kind) + ":" + mix.model;
    const std::string kind = mix.kind;
    const std::size_t offset = rng.next() % 1024;
    for (std::size_t i = 0; i < counts[c]; ++i) {
      const Model& m = variants[(offset + i) % variants.size()];
      if (kind == "analyze") {
        w.timed.push_back(analyze_item(w, m, klass));
      } else {
        const auto& pool = kind == "forall" ? m.forall : kind == "exists" ? m.exists : m.fixpoint;
        w.timed.push_back(query_item(w, m, pool[(offset + i) % pool.size()], klass));
      }
    }
  }
  rng.shuffle(w.timed);
  // Warm-up: one analyze per model file, so every file and code path has
  // been touched before the clock starts.
  for (const auto& [name, variants] : models) {
    (void)name;
    w.warmup.push_back(analyze_item(w, variants.front(), "warmup"));
  }
  return w;
}

Item simulate_item(const std::string& model, int horizon, std::uint64_t seed) {
  Item it;
  it.request = Request{"simulate",
                       {model, "--until", std::to_string(horizon), "--seed",
                        std::to_string(seed), "--stats"}};
  it.klass = "simulate";
  it.expect.prefix = "simulated to t=" + std::to_string(horizon) + " ";
  it.stable_key = request_line(it.request);
  return it;
}

Workload simulate_pipeline(std::uint64_t seed, std::size_t count,
                           const std::string& models_dir, const std::string& dir) {
  Workload w;
  w.name = "simulate-pipeline";
  w.dir = dir;
  Rng rng(seed ^ 0x73696d31ull);
  static const char* kStems[] = {"pipeline_nocache", "ext_cache_unified", "ext_cache_icache",
                                 "ext_cache_dcache"};
  static const int kMemoryCycles[] = {3, 5, 8};
  std::vector<std::string> files;
  for (const char* stem : kStems) {
    const std::string source = read_text(models_dir + "/" + stem + ".pn");
    for (const int mc : kMemoryCycles) {
      const std::string file = std::string(stem) + "_m" + std::to_string(mc) + ".pn";
      w.files[file] = with_memory_cycles(source, mc);
      files.push_back(w.dir + "/" + file);
    }
  }
  constexpr int kSimHorizon = 20000;
  constexpr int kRepHorizon = 5000;
  constexpr int kTraceHorizon = 3000;
  // Seeds come from a small per-run pool so every distinct request recurs
  // and its output can be checked against its other occurrences.
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < 4; ++i) seeds.push_back(rng.range(1, 1'000'000));
  const auto any_seed = [&] { return seeds[rng.next() % seeds.size()]; };

  // Models and lane counts are assigned round-robin, so the work per class
  // does not depend on the seed; the seed picks simulation seeds and order.
  const std::vector<std::size_t> counts = apportion(count, {62, 22, 16});
  const std::size_t groups = counts[2] / 4;
  const std::size_t simulations = counts[0] + counts[2] % 4;
  std::vector<std::vector<Item>> units;  // shuffled as units
  for (std::size_t i = 0; i < simulations; ++i) {
    units.push_back({simulate_item(files[i % files.size()], kSimHorizon, any_seed())});
  }
  static const int kLanes[] = {4, 8, 12, 16};
  for (std::size_t i = 0; i < counts[1]; ++i) {
    const int lanes = kLanes[i / files.size() % std::size(kLanes)];
    Item it;
    it.request = Request{"replicate",
                         {files[i % files.size()], "--replications", std::to_string(lanes),
                          "--horizon", std::to_string(kRepHorizon), "--seed",
                          std::to_string(any_seed()), "--threads", "1"}};
    it.klass = "replicate";
    it.expect.prefix = std::to_string(lanes) + " replications to t=" +
                       std::to_string(kRepHorizon) + " ";
    it.stable_key = request_line(it.request);
    units.push_back({std::move(it)});
  }
  // Traced groups: simulate --trace, then stat, a trace query and render
  // on that trace, in that order.
  static const char* kTraceQueries[] = {"forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]",
                                        "exists s in S [ Bus_busy(s) = 1 ]",
                                        "exists s in S [ Full_I_buffers(s) = 2 ]"};
  for (std::size_t g = 0; g < groups; ++g) {
    const std::string model = files[g % files.size()];
    const std::string sim_seed = std::to_string(any_seed());
    const std::string trace = w.dir + "/trace_" + std::to_string(g) + ".txt";
    // Keys name the model and seed, not the per-group trace path.
    const std::string key = model + " " + sim_seed;
    std::vector<Item> unit(4);
    unit[0].request = Request{"simulate",
                              {model, "--until", std::to_string(kTraceHorizon), "--seed",
                               sim_seed, "--trace", trace}};
    unit[0].klass = "simulate-trace";
    unit[0].expect.prefix = "simulated to t=" + std::to_string(kTraceHorizon) + " ";
    unit[0].stable_key = "simulate-trace " + key;
    unit[1].request = Request{"stat", {trace}};
    unit[1].klass = "stat";
    unit[1].expect.prefix = "RUN STATISTICS";
    unit[1].stable_key = "stat " + key;
    const std::string query = kTraceQueries[g % std::size(kTraceQueries)];
    unit[2].request = Request{"query", {trace, query}};
    unit[2].klass = "trace-query";
    unit[2].expect.prefix = "holds over ";
    unit[2].stable_key = "query " + key + " " + query;
    unit[3].request = Request{"render", {trace, "--signals", "Bus_busy,Decode,Full_I_buffers",
                                         "--columns", "72"}};
    unit[3].klass = "render";
    unit[3].stable_key = "render " + key;
    units.push_back(std::move(unit));
  }
  rng.shuffle(units);
  for (auto& unit : units) {
    for (auto& it : unit) w.timed.push_back(std::move(it));
  }
  // Warm-up: every model once, one replication, and one traced group
  // (groups are contiguous in the list).
  for (const std::string& f : files) w.warmup.push_back(simulate_item(f, kSimHorizon, 1));
  const auto first = [&](const char* klass) {
    return std::find_if(w.timed.begin(), w.timed.end(),
                        [&](const Item& it) { return it.klass == klass; });
  };
  if (const auto it = first("replicate"); it != w.timed.end()) w.warmup.push_back(*it);
  if (const auto it = first("simulate-trace"); it != w.timed.end()) {
    w.warmup.insert(w.warmup.end(), it, it + 4);
  }
  for (Item& it : w.warmup) it.klass = "warmup";
  return w;
}

/// serve-mixed: a hot set of cached graphs read by most requests, a few
/// simulations on a cached compiled net, and ~3% queries on a rotating
/// pool of models too large to stay cached, so each is a build plus an
/// LRU eviction.
Workload serve_mixed(std::uint64_t seed, std::size_t count, const std::string& models_dir,
                     const std::string& dir) {
  Workload w;
  w.name = "serve-mixed";
  w.dir = dir;
  Rng rng(seed ^ 0x73727631ull);
  const auto path = [&](const std::string& f) { return w.dir + "/" + f; };

  const Model full = paper_model(w, true);
  const Model fig1 = paper_model(w, false);
  const Model ext = ext_model(w, models_dir, "ext_cache_unified", kExtUnified, 5);
  w.files["pipeline_nocache.pn"] = read_text(models_dir + "/pipeline_nocache.pn");

  const Model r5 = ring_model(w, "ring5k_hot.pn", 10, 6, rng);
  const Model r19 = ring_model(w, "ring19k_hot.pn", 11, 7, rng);
  const Model r75 = ring_model(w, "ring75k_hot.pn", 12, 8, rng);
  // Pool models differ in their net name, so each is its own cache entry,
  // and every miss does the same work.
  std::vector<Model> pool;
  for (std::size_t i = 0; i < kServePoolModels; ++i) {
    const std::string name = "pool_" + std::to_string(i);
    pool.push_back(ring_model(w, name + ".pn", 10, 6, rng, name));
  }

  const Model* point_models[] = {&full, &fig1, &ext, &r5, &r19, &r75};
  const Model* analyze_models[] = {&full, &ext, &r5};
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < 3; ++i) seeds.push_back(rng.range(1, 1'000'000));

  // Weights per 100 requests: point, scan, fixpoint, analyze, simulate,
  // scan75k, miss. The median sits inside the scan class (ranks 25-70%).
  // The tail falls inside analyze, whose large responses wait on the
  // client's delayed ACK (see README.md).
  const std::vector<std::size_t> counts = apportion(count, {25, 45, 8, 8, 6, 5, 3});
  std::vector<Item> list;
  for (std::size_t i = 0; i < counts[0]; ++i) {
    const Model& m = *point_models[i % std::size(point_models)];
    list.push_back(query_item(w, m, m.point, "point"));
  }
  for (std::size_t i = 0; i < counts[1]; ++i) {
    list.push_back(query_item(w, r19, r19.forall[1 + rng.next() % 3], "scan"));
  }
  for (std::size_t i = 0; i < counts[2]; ++i) {
    const Model& m = i % 2 == 0 ? r19 : full;
    list.push_back(query_item(w, m, m.fixpoint[i / 2 % 2], "fixpoint"));
  }
  for (std::size_t i = 0; i < counts[3]; ++i) {
    list.push_back(analyze_item(w, *analyze_models[i % std::size(analyze_models)], "analyze"));
  }
  for (std::size_t i = 0; i < counts[4]; ++i) {
    list.push_back(simulate_item(path("pipeline_nocache.pn"), 5000,
                                 seeds[rng.next() % seeds.size()]));
  }
  for (std::size_t i = 0; i < counts[5]; ++i) {
    list.push_back(query_item(w, r75, r75.forall[1 + rng.next() % 3], "scan75k"));
  }
  rng.shuffle(list);
  // Misses go to random positions and visit the pool in rotation, in list
  // order, so LRU has always evicted a pool model before its next visit.
  std::vector<std::size_t> at(counts[6]);
  for (std::size_t& p : at) p = rng.next() % (list.size() + 1);
  std::sort(at.begin(), at.end());
  std::vector<Item> merged;
  merged.reserve(list.size() + at.size());
  for (std::size_t i = 0, k = 0; i <= list.size(); ++i) {
    for (; k < at.size() && at[k] == i; ++k) {
      const Model& m = pool[k % pool.size()];
      merged.push_back(query_item(w, m, m.forall[0], "miss"));
    }
    if (i < list.size()) merged.push_back(std::move(list[i]));
  }
  w.timed = std::move(merged);

  // The hot set: every graph and compiled net the hot reads touch.
  for (const Model* m : point_models) w.warmup.push_back(query_item(w, *m, m->point, "warmup"));
  for (const Model* m : analyze_models) w.warmup.push_back(analyze_item(w, *m, "warmup"));
  w.warmup.push_back(simulate_item(path("pipeline_nocache.pn"), 5000, seeds[0]));
  w.warmup.back().klass = "warmup";
  w.pool_probe = query_item(w, pool[0], pool[0].forall[0], "warmup");
  return w;
}

}  // namespace

std::string request_line(const Request& r) {
  std::string line = r.command;
  for (const std::string& a : r.args) {
    line += ' ';
    const bool quote = a.find_first_of(" \"\\{}|") != std::string::npos || a.empty();
    if (!quote) {
      line += a;
      continue;
    }
    line += '"';
    for (const char c : a) {
      if (c == '"' || c == '\\') line += '\\';
      line += c;
    }
    line += '"';
  }
  return line;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"explore-cold", "simulate-pipeline",
                                                  "serve-mixed"};
  return kNames;
}

std::size_t list_length(const std::string& workload, int seconds) {
  // Requests per second of the whole run (all rounds) on a 4-CPU x86 host.
  double rate = 0;
  if (workload == "explore-cold") rate = 67;
  if (workload == "simulate-pipeline") rate = 80;
  if (workload == "serve-mixed") rate = 180;
  if (rate == 0) throw std::invalid_argument("unknown workload '" + workload + "'");
  return static_cast<std::size_t>(std::max(1, seconds) * rate / kRounds);
}

Workload generate(const std::string& workload, std::uint64_t seed, std::size_t count,
                  const std::string& models_dir, const std::string& dir) {
  if (workload == "explore-cold") return explore_cold(seed, count, models_dir, dir);
  if (workload == "simulate-pipeline") return simulate_pipeline(seed, count, models_dir, dir);
  if (workload == "serve-mixed") return serve_mixed(seed, count, models_dir, dir);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

void write_files(const Workload& w) {
  std::filesystem::create_directories(w.dir);
  for (const auto& [name, text] : w.files) {
    std::ofstream out(w.dir + "/" + name, std::ios::binary);
    out << text;
    if (!out) throw std::runtime_error("cannot write '" + w.dir + "/" + name + "'");
  }
}

}  // namespace pnbench
