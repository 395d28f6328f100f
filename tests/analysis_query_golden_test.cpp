// Frozen outcomes of the Section 4.4 query engine.
//
// A seeded generator writes formulas over fuzzed nets
// (tests/support/net_fuzz.h): quantifiers, set builders and set
// differences, `#k`, `inev`/`poss`, `&&`/`||`, the expression language's
// arithmetic (tests/support/expr_fuzz.h, `/` and `%` included), and names
// that are unknown, unbound, out of range or called at the wrong arity.
// Each formula runs on four spaces of one net — the complete reachability
// graph, a truncated one, one spilled under a tiny residency window, and a
// recorded simulation trace — once unstopped and twice under
// `cancel_after_polls`. Its outcomes, (verdict, witness, explanation) or
// (exception kind, text), fold into one FNV fingerprint per formula,
// recorded while the engine still evaluated one state at a time. The hand
// cases pin the evaluation-order rules any evaluator must keep: which of
// several errors a query raises, that an error past the deciding state is
// never raised, and where a stop lands.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/query.h"
#include "analysis/reachability.h"
#include "expr/compile.h"
#include "expr/lexer.h"
#include "sim/simulator.h"
#include "support/expr_fuzz.h"
#include "support/golden_hash.h"
#include "support/net_fuzz.h"
#include "util/stop.h"

namespace pnut::analysis {
namespace {

using test_support::Fingerprint;
using test_support::hex_literal;

/// Folds one evaluation's outcome into `f`: the verdict, witness and
/// explanation, or the exception's kind and text.
void add_outcome(Fingerprint& f, const StateSpace& space, const std::string& query,
                 StopToken stop = {}) {
  try {
    const QueryResult r = eval_query(space, query, std::move(stop));
    f.u64(0);
    f.u64(r.holds ? 1 : 0);
    f.u64(r.witness.has_value() ? 1 : 0);
    f.u64(r.witness.value_or(0));
    f.str(r.explanation);
  } catch (const expr::ParseError& e) {
    f.u64(1);
    f.str(e.what());
  } catch (const StopError& e) {
    f.u64(2);
    f.str(e.what());
  } catch (const expr::EvalError& e) {
    f.u64(3);
    f.str(e.what());
  } catch (const std::runtime_error& e) {
    f.u64(4);
    f.str(e.what());
  } catch (const std::exception& e) {
    f.u64(5);
    f.str(e.what());
  }
}

/// A readable outcome: "holds|fails #witness: explanation", or the
/// exception's kind and text.
[[nodiscard]] std::string outcome(const StateSpace& space, const std::string& query,
                                  StopToken stop = {}) {
  try {
    const QueryResult r = eval_query(space, query, std::move(stop));
    return std::string(r.holds ? "holds" : "fails") +
           (r.witness ? " #" + std::to_string(*r.witness) : std::string()) + ": " +
           r.explanation;
  } catch (const StopError& e) {
    return std::string("stop: ") + e.what();
  } catch (const expr::EvalError& e) {
    return std::string("eval error: ") + e.what();
  } catch (const std::runtime_error& e) {
    return std::string("error: ") + e.what();
  }
}

/// Seeded formulas over one net's names. Arithmetic comes from ExprFuzzer,
/// whose leaves are this generator's: state reads, bound variables, `#k`,
/// numbers, unbound names and (within the nesting budget) whole nested
/// quantified or temporal formulas.
class QueryFuzzer {
 public:
  QueryFuzzer(std::uint64_t seed, const Net& net, bool interpreted) : rng_(seed) {
    for (std::size_t i = 0; i < net.num_places(); ++i) {
      places_.push_back(net.place(PlaceId(static_cast<std::uint32_t>(i))).name);
    }
    for (std::size_t i = 0; i < net.num_transitions(); ++i) {
      transitions_.push_back(
          net.transition(TransitionId(static_cast<std::uint32_t>(i))).name);
    }
    if (interpreted) data_ = {"x", "x", "x", "late", "tbl"};
    test_support::ExprFuzzOptions options;
    options.max_depth = 3;
    options.table_reads = false;
    options.leaf = [this] { return leaf(); };
    arith_ = std::make_unique<test_support::ExprFuzzer>(seed ^ 0x9e3779b97f4a7c15ULL,
                                                        options);
  }

  [[nodiscard]] std::string query() {
    scope_.clear();
    loops_ = 0;
    depth_ = 0;
    return formula();
  }

 private:
  static constexpr int kMaxLoops = 2;  ///< nested quantifier/temporal levels
  static constexpr int kMaxDepth = 4;  ///< nested formulas

  [[nodiscard]] std::string formula() {
    ++depth_;
    std::string out;
    const std::size_t roll = depth_ > kMaxDepth ? 99 : pick(0, 99);
    if (loops_ < kMaxLoops && roll < 40) {
      out = quantified();
    } else if (loops_ < kMaxLoops && roll < 55) {
      out = temporal();
    } else if (roll < 63) {
      out = "(" + formula() + " && " + formula() + ")";
    } else if (roll < 70) {
      out = "(" + formula() + " || " + formula() + ")";
    } else if (roll < 74) {
      out = "not (" + formula() + ")";
    } else {
      static constexpr const char* kRel[] = {"=", "==", "!=", "<", "<=", ">", ">="};
      out = arith_->expression() + " " + kRel[pick(0, 6)] + " " + arith_->expression();
    }
    --depth_;
    return out;
  }

  [[nodiscard]] std::string binder() {
    static constexpr const char* kNames[] = {"s", "u", "v", "s'", "w", "C"};
    return kNames[pick(0, 5)];
  }

  [[nodiscard]] std::string quantified() {
    const std::string kw = chance(50) ? "forall" : (chance(50) ? "exists" : "Exists");
    const std::string var = binder();
    const std::string set = state_set();  // the variable is not in scope here
    ++loops_;
    scope_.push_back(var);
    std::string body = formula();
    scope_.pop_back();
    --loops_;
    return kw + " " + var + " in " + set + " [ " + body + " ]";
  }

  [[nodiscard]] std::string state_set() {
    const std::size_t roll = pick(0, 99);
    if (roll < 50 || loops_ >= kMaxLoops) {
      if (chance(75)) return "S";
      return "(S - {#" + std::to_string(pick(0, 3)) + ", #" + std::to_string(pick(0, 9)) + "})";
    }
    const std::string var = binder();
    const std::string base = chance(80) ? "S" : "(S - {#0})";
    ++loops_;
    scope_.push_back(var);
    std::string filter = formula();
    scope_.pop_back();
    --loops_;
    return "{" + var + " in " + base + " | " + filter + "}";
  }

  [[nodiscard]] std::string temporal() {
    const std::string op = chance(50) ? "inev" : "poss";
    const std::string state = state_arg();
    ++loops_;
    scope_.push_back("C");
    std::string out = op + "(" + state + ", " + formula();
    if (chance(60)) out += ", " + formula();
    scope_.pop_back();
    --loops_;
    return out + ")";
  }

  /// A state argument: mostly a bound variable, sometimes a literal state
  /// or an offset that may leave the space.
  [[nodiscard]] std::string state_arg() {
    const std::size_t roll = pick(0, 99);
    if (!scope_.empty() && roll < 70) {
      const std::string& var = scope_[pick(0, scope_.size() - 1)];
      if (chance(6)) return var + (chance(30) ? " - 1" : " + 1");
      return var;
    }
    if (roll < 90) return "#" + std::to_string(pick(0, 3));
    return arith_->expression();
  }

  [[nodiscard]] std::string leaf() {
    const std::size_t roll = pick(0, 99);
    if (roll < 32) return state_read();
    if (roll < 50 && !scope_.empty()) return scope_[pick(0, scope_.size() - 1)];
    if (roll < 51 && chance(20)) return chance(50) ? "q" : "s";  // unbound unless bound
    if (roll < 60) return "#" + std::to_string(pick(0, 3));
    if (roll < 66 && loops_ < kMaxLoops && depth_ <= kMaxDepth) {
      return "(" + (chance(60) ? quantified() : temporal()) + ")";
    }
    if (roll < 70) return chance(50) ? "true" : "false";
    return std::to_string(pick_int(-2, 9));
  }

  [[nodiscard]] std::string state_read() {
    std::string name;
    const std::size_t roll = pick(0, 99);
    if (roll < 70 || (roll < 98 && data_.empty())) {
      name = places_[pick(0, places_.size() - 1)];
    } else if (roll < 85) {
      name = transitions_[pick(0, transitions_.size() - 1)];
    } else if (roll < 98) {
      name = data_[pick(0, data_.size() - 1)];
    } else {
      name = chance(50) ? "nosuch" : "min";
    }
    if (chance(2)) return name + (chance(50) ? "()" : "(" + state_arg() + ", #0)");
    return name + "(" + state_arg() + ")";
  }

  [[nodiscard]] std::size_t pick(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng_() % (hi - lo + 1));
  }
  [[nodiscard]] std::int64_t pick_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(rng_() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  [[nodiscard]] bool chance(int pct) { return static_cast<int>(rng_() % 100) < pct; }

  std::mt19937_64 rng_;
  std::unique_ptr<test_support::ExprFuzzer> arith_;
  std::vector<std::string> places_;
  std::vector<std::string> transitions_;
  std::vector<std::string> data_;
  std::vector<std::string> scope_;  ///< binders in scope, innermost last
  int loops_ = 0;
  int depth_ = 0;
};

/// Net seeds whose complete graph has 20-500 states and whose trace has at
/// least ten: smaller spaces decide almost every formula at state 0, and
/// nested quantifiers on the spilled graph fault a segment in per read, so
/// bigger ones cost minutes. Even seeds are interpreted nets.
constexpr std::uint64_t kSeeds[] = {1, 3, 7, 8, 12, 14, 22, 26, 31, 42, 48, 49};
constexpr std::size_t kNumSeeds = std::size(kSeeds);
constexpr std::size_t kQueriesPerSeed = 20;

/// The four spaces one fuzzed net yields.
struct Spaces {
  Net net;
  std::unique_ptr<ReachabilityGraph> complete;
  std::unique_ptr<ReachabilityGraph> truncated;
  std::unique_ptr<ReachabilityGraph> spilled;
  RecordedTrace trace;
  std::unique_ptr<TraceStateSpace> trace_space;

  [[nodiscard]] std::vector<const StateSpace*> all() const {
    return {complete.get(), truncated.get(), spilled.get(), trace_space.get()};
  }
};

[[nodiscard]] bool interpreted_seed(std::uint64_t seed) { return seed % 2 == 0; }

std::unique_ptr<Spaces> make_spaces(std::uint64_t seed) {
  auto out = std::make_unique<Spaces>();
  test_support::FuzzOptions options;
  options.min_places = 4;
  options.max_places = 6;
  options.max_transitions = 8;
  options.max_initial_total = 8;
  options.inhibitor_pct = 15;
  options.lossy_pct = 0;
  options.interpreted = interpreted_seed(seed);
  out->net = test_support::fuzz_net(seed, options);
  out->complete = std::make_unique<ReachabilityGraph>(out->net);

  ReachOptions truncated;
  truncated.max_states = std::max<std::size_t>(2, out->complete->num_states() / 3);
  out->truncated = std::make_unique<ReachabilityGraph>(out->net, truncated);

  ReachOptions spilled;
  spilled.spill.max_resident_bytes = 2 * 1024;
  spilled.spill.segment_bytes = 256;
  out->spilled = std::make_unique<ReachabilityGraph>(out->net, spilled);

  test_support::FuzzOptions timed = options;
  timed.timed = true;
  const Net timed_net = test_support::fuzz_net(seed, timed);
  Simulator sim(timed_net);
  sim.set_sink(&out->trace);
  sim.reset(seed);
  sim.run_until(40);
  sim.finish();
  out->trace_space = std::make_unique<TraceStateSpace>(out->trace);
  return out;
}

/// One query's fingerprint over every space, unstopped and stopped at its
/// second and seventh poll.
[[nodiscard]] std::uint64_t query_hash(const Spaces& spaces, const std::string& query) {
  Fingerprint f;
  for (const StateSpace* space : spaces.all()) {
    add_outcome(f, *space, query);
    for (const std::uint64_t polls : {2, 7}) {
      StopSource source;
      source.cancel_after_polls(polls);
      add_outcome(f, *space, query, source.token());
    }
  }
  return f.value();
}

// Recorded with the per-state evaluator: kQueriesPerSeed formulas for each
// of kSeeds, in generation order.
constexpr std::uint64_t kGolden[kNumSeeds * kQueriesPerSeed] = {
    0xc8d785524846ced9ULL, 0x5435882df4a2b339ULL, 0x2bd3fb29c7df0f3bULL,
    0x3790867c6bb064bdULL, 0x9eae1c1f666e1915ULL, 0xd9fd4f37c1b50ea5ULL,
    0xed5df92d16de5479ULL, 0x8280fb3eb70c98e3ULL, 0x98e941766fcb7395ULL,
    0x9eae1c1f666e1915ULL, 0xfb2024d9265ee39dULL, 0xbf99c0d620e3883dULL,
    0x29bf657a4d212defULL, 0x8d79159c33a6cc99ULL, 0x992c4454390800adULL,
    0xf5362841ddcc6a25ULL, 0xaaaeaa3a3d1cbac5ULL, 0x5c0589c041140ce6ULL,
    0x2459b38579e707a5ULL, 0x9eae1c1f666e1915ULL, 0xdccd90db544ed094ULL,
    0xc817ccd764396b45ULL, 0xaaaeaa3a3d1cbac5ULL, 0xc2ddef9fc1a954c5ULL,
    0x2120e01a87b638f1ULL, 0xc8d785524846ced9ULL, 0xc817ccd764396b45ULL,
    0x7e2f763a2976ebc5ULL, 0x33dd05eb2b9a6e32ULL, 0xfb2024d9265ee39dULL,
    0x9eae1c1f666e1915ULL, 0xd9fd4f37c1b50ea5ULL, 0x2459b38579e707a5ULL,
    0xfbc216b4fe711847ULL, 0x2459b38579e707a5ULL, 0xda6ea34ac08be43dULL,
    0x1fec99232e7396eaULL, 0xc817ccd764396b45ULL, 0x34aa6b5030c57715ULL,
    0x9eae1c1f666e1915ULL, 0xda6ea34ac08be43dULL, 0xcb28181c732d48bdULL,
    0x8eb7681be59d592cULL, 0x67ed7ff72f651825ULL, 0xaa3bb8220fd6204fULL,
    0xa4a0c154945c1ce5ULL, 0x33dd05eb2b9a6e32ULL, 0x96331cf1c3912dd5ULL,
    0x9eae1c1f666e1915ULL, 0x33dd05eb2b9a6e32ULL, 0x10379d56704a2108ULL,
    0xda6ea34ac08be43dULL, 0xda6ea34ac08be43dULL, 0xf6d610994f798bafULL,
    0xda6ea34ac08be43dULL, 0xc9cf7299a6a1c85fULL, 0x9eae1c1f666e1915ULL,
    0x086814a416fc5b35ULL, 0xd9fd4f37c1b50ea5ULL, 0x9eae1c1f666e1915ULL,
    0x3a4dd233aee65ec5ULL, 0x086814a416fc5b35ULL, 0x9eae1c1f666e1915ULL,
    0x8e7683d468c77325ULL, 0x2459b38579e707a5ULL, 0x9eae1c1f666e1915ULL,
    0x1481371cbd0163fdULL, 0x0b0bef2cbd2e3136ULL, 0xc8d785524846ced9ULL,
    0x7572c8c4dd1ea7fdULL, 0x7e2f763a2976ebc5ULL, 0xc817ccd764396b45ULL,
    0x4ebf9cc2f2e3f4c5ULL, 0x00ea863381f2924fULL, 0xdcaad6fa0c33d86fULL,
    0x3b26bc42a2c0b92dULL, 0xfb2024d9265ee39dULL, 0xac3554ed276013a4ULL,
    0x8e7683d468c77325ULL, 0x4cf8c51e961f0a89ULL, 0xa4a0c154945c1ce5ULL,
    0x14f13c024a87d481ULL, 0x8e7683d468c77325ULL, 0x996106eb1800fcc5ULL,
    0x96331cf1c3912dd5ULL, 0xc5ddf6de1f8f94ecULL, 0x086814a416fc5b35ULL,
    0x9eae1c1f666e1915ULL, 0xa98298f6e3289405ULL, 0x22e005c26d682ab5ULL,
    0xbf99c0d620e3883dULL, 0x086814a416fc5b35ULL, 0xce1eb807b59d8f75ULL,
    0xc817ccd764396b45ULL, 0xda6ea34ac08be43dULL, 0x6146d0e1267102e4ULL,
    0x0194fe99ef9d9985ULL, 0x9eae1c1f666e1915ULL, 0x3b26bc42a2c0b92dULL,
    0xfb2024d9265ee39dULL, 0x6f32eb10937c1fbdULL, 0xe7aa6594c352f805ULL,
    0x0194fe99ef9d9985ULL, 0xaaaeaa3a3d1cbac5ULL, 0xc817ccd764396b45ULL,
    0xa23858c4a93648c3ULL, 0x086814a416fc5b35ULL, 0x9eae1c1f666e1915ULL,
    0x6c2bd9b7633f2155ULL, 0x5fe873b1d9b8419aULL, 0x9eae1c1f666e1915ULL,
    0x906f53829f87fd1dULL, 0x8e7683d468c77325ULL, 0x9eae1c1f666e1915ULL,
    0x9eae1c1f666e1915ULL, 0x34aa6b5030c57715ULL, 0x7e2f763a2976ebc5ULL,
    0x086814a416fc5b35ULL, 0x9abb5b367af2b2b6ULL, 0x87cd7112337f6fa5ULL,
    0x5b8a7632d8979b8dULL, 0x3a4dd233aee65ec5ULL, 0x9eae1c1f666e1915ULL,
    0xc8d785524846ced9ULL, 0x55d246d6145a657cULL, 0xd9fd4f37c1b50ea5ULL,
    0xda6ea34ac08be43dULL, 0x33dd05eb2b9a6e32ULL, 0xda6ea34ac08be43dULL,
    0x996106eb1800fcc5ULL, 0x086814a416fc5b35ULL, 0x6cc6d36336d2d3d1ULL,
    0xda6ea34ac08be43dULL, 0xd9fd4f37c1b50ea5ULL, 0x34aa6b5030c57715ULL,
    0x086814a416fc5b35ULL, 0x6ea7f684ac784ccdULL, 0x797a858ac06aef97ULL,
    0x8cce6b36bd3f5c65ULL, 0x086814a416fc5b35ULL, 0x96331cf1c3912dd5ULL,
    0x14f13c024a87d481ULL, 0x2459b38579e707a5ULL, 0x0194fe99ef9d9985ULL,
    0x9eae1c1f666e1915ULL, 0x64469ee4acbb4485ULL, 0x68ed3ddedf9ebcddULL,
    0xc817ccd764396b45ULL, 0x6146d0e1267102e4ULL, 0x007f4191104af7d6ULL,
    0xb8b5ef6e9b63a618ULL, 0x5e00b48abd9546edULL, 0x086814a416fc5b35ULL,
    0x6c2bd9b7633f2155ULL, 0xbf99c0d620e3883dULL, 0x1e3b44825e7cdda1ULL,
    0x92dbdef8735cfd5dULL, 0xa4a0c154945c1ce5ULL, 0xaaaeaa3a3d1cbac5ULL,
    0x3ad2b756dd54d3b5ULL, 0x15d72311fc48b625ULL, 0xde5a9df50a8c3de8ULL,
    0x086814a416fc5b35ULL, 0x63782707c2e1237fULL, 0xd9fd4f37c1b50ea5ULL,
    0x9eae1c1f666e1915ULL, 0xc817ccd764396b45ULL, 0xbf99c0d620e3883dULL,
    0x0194fe99ef9d9985ULL, 0x9823015452529952ULL, 0xb7da5298cc6cb50bULL,
    0xd9fd4f37c1b50ea5ULL, 0x76e25bb9199c7989ULL, 0xc310998f11e4d931ULL,
    0xd9fd4f37c1b50ea5ULL, 0x4f2f77412a998777ULL, 0xdb34057b317e0f33ULL,
    0x9940e2148e444889ULL, 0xc817ccd764396b45ULL, 0xc8d785524846ced9ULL,
    0xfb2024d9265ee39dULL, 0x3b26bc42a2c0b92dULL, 0xc8d785524846ced9ULL,
    0xda6ea34ac08be43dULL, 0xda6ea34ac08be43dULL, 0x14f13c024a87d481ULL,
    0x5b8a7632d8979b8dULL, 0x14f13c024a87d481ULL, 0x6c2bd9b7633f2155ULL,
    0x086814a416fc5b35ULL, 0x7e2f763a2976ebc5ULL, 0x9eae1c1f666e1915ULL,
    0x996106eb1800fcc5ULL, 0x3a4dd233aee65ec5ULL, 0x3b26bc42a2c0b92dULL,
    0xce1eb807b59d8f75ULL, 0x34aa6b5030c57715ULL, 0x3b26bc42a2c0b92dULL,
    0x5b8a7632d8979b8dULL, 0xda6ea34ac08be43dULL, 0x9eae1c1f666e1915ULL,
    0x68ed3ddedf9ebcddULL, 0x3fc9ef71ff25f843ULL, 0x1c05d4ac02cc0598ULL,
    0x9eae1c1f666e1915ULL, 0x33dd05eb2b9a6e32ULL, 0xa4a0c154945c1ce5ULL,
    0x2459b38579e707a5ULL, 0x9eae1c1f666e1915ULL, 0x7e2f763a2976ebc5ULL,
    0xbe37f86dfb20ecf0ULL, 0x5b8a7632d8979b8dULL, 0x68ed3ddedf9ebcddULL,
    0x6c2bd9b7633f2155ULL, 0x8e7683d468c77325ULL, 0x562077352fac05eaULL,
    0x22e005c26d682ab5ULL, 0x33dd05eb2b9a6e32ULL, 0x4427023fda6ac345ULL,
    0x772eaac5c1fe2484ULL, 0x5df005f1555488d1ULL, 0x3a4dd233aee65ec5ULL,
    0xda6ea34ac08be43dULL, 0x9eae1c1f666e1915ULL, 0x086814a416fc5b35ULL,
    0xc8d785524846ced9ULL, 0x0c6ceae59243067dULL, 0x7e2f763a2976ebc5ULL,
    0xa98298f6e3289405ULL, 0xda6ea34ac08be43dULL, 0x1133352a73567845ULL,
    0xd9fd4f37c1b50ea5ULL, 0xbf99c0d620e3883dULL, 0x5435882df4a2b339ULL,
    0x40f18eb633ebeddcULL, 0xa98298f6e3289405ULL, 0x9eae1c1f666e1915ULL,
    0x5435882df4a2b339ULL, 0xe9f25f99e46a72abULL, 0x650c80ab17a9f2f2ULL,
};

TEST(QueryGolden, FuzzedFormulasMatchTheirRecordedOutcomes) {
  std::string recorded;
  std::size_t mismatches = 0;
  std::size_t engaged = 0;
  for (std::size_t k = 0; k < kNumSeeds; ++k) {
    const std::uint64_t seed = kSeeds[k];
    const auto spaces = make_spaces(seed);
    if (spaces->spilled->spill_engaged()) ++engaged;
    QueryFuzzer fuzzer(seed * 7919, spaces->net, interpreted_seed(seed));
    for (std::size_t q = 0; q < kQueriesPerSeed; ++q) {
      const std::string query = fuzzer.query();
      const std::uint64_t got = query_hash(*spaces, query);
      const std::size_t index = k * kQueriesPerSeed + q;
      recorded += hex_literal(got) + (index % 3 == 2 ? ",\n" : ", ");
      if (got != kGolden[index]) {
        ++mismatches;
        ADD_FAILURE() << "seed " << seed << " query " << q << ": " << query
                      << "\n  got " << hex_literal(got) << ", recorded "
                      << hex_literal(kGolden[index]);
      }
    }
  }
  EXPECT_EQ(mismatches, 0U) << "fingerprints in generation order:\n" << recorded;
  EXPECT_EQ(engaged, kNumSeeds) << "every spilled graph must really spill";
}

// --- hand cases -----------------------------------------------------------------

/// The polls `query` makes: one less than the first `cancel_after_polls`
/// count it finishes under.
[[nodiscard]] std::uint64_t polls_of(const StateSpace& space, const std::string& query) {
  for (std::uint64_t n = 1; n < 100; ++n) {
    StopSource source;
    source.cancel_after_polls(n);
    if (outcome(space, query, source.token()).rfind("stop: ", 0) != 0) return n - 1;
  }
  return 100;
}

/// A ring of `places` places holding `tokens` tokens, all on p0 at first.
Net ring(int places, TokenCount tokens) {
  Net net("ring");
  std::vector<PlaceId> p;
  for (int i = 0; i < places; ++i) {
    p.push_back(net.add_place("P" + std::to_string(i), i == 0 ? tokens : 0));
  }
  for (int i = 0; i < places; ++i) {
    const TransitionId t = net.add_transition("t" + std::to_string(i));
    net.add_input(t, p[static_cast<std::size_t>(i)]);
    net.add_output(t, p[static_cast<std::size_t>((i + 1) % places)]);
  }
  return net;
}

class QueryOrder : public ::testing::Test {
 protected:
  QueryOrder() : net_(ring(4, 30)), graph_(net_) {}
  Net net_;
  ReachabilityGraph graph_;
};

TEST_F(QueryOrder, SpaceShape) { EXPECT_EQ(graph_.num_states(), 5456U); }

TEST_F(QueryOrder, DecidingStateComesBeforeALaterError) {
  EXPECT_EQ(outcome(graph_, "exists s in S [ s = 0 or 1/0 = 1 ]"), "holds #0: witness: state #0");
  EXPECT_EQ(outcome(graph_, "exists s in S [ s = 2 || 1 / (s - 3) = 7 ]"),
            "holds #2: witness: state #2");
  EXPECT_EQ(outcome(graph_, "exists s in S [ s = 300 || 1 / (s - 301) = 7 ]"),
            "holds #300: witness: state #300");
  EXPECT_EQ(outcome(graph_, "forall s in S [ s < 600 && 10 / (s - 1000) < 100 ]"),
            "fails #600: violated at state #600");
  EXPECT_EQ(outcome(graph_, "exists s in S [ s = 300 || 1 / (s - 299) = 7 ]"),
            "error: query evaluation: division by zero");
  EXPECT_EQ(outcome(graph_, "forall s in S [ s < 5 || P9(s) = 0 ]"),
            "error: query evaluation: 'P9' is not a place, transition or data variable");
  EXPECT_EQ(outcome(graph_, "exists s in {v in S | 1 / (v - 40) >= 0} [ true ]"),
            "error: query evaluation: division by zero");
  EXPECT_EQ(outcome(graph_, "exists s in S [ s > 5 ] && 1 / 0 = 0"),
            "error: query evaluation: division by zero");
}

TEST_F(QueryOrder, FirstErrorInStateOrderThenTreeOrder) {
  EXPECT_EQ(outcome(graph_, "forall s in S [ nosuch(s) + 1 / (s - s) = 0 ]"),
            "error: query evaluation: 'nosuch' is not a place, transition or data variable");
  EXPECT_EQ(outcome(graph_, "forall s in S [ 1 / (s - s) + nosuch(s) = 0 ]"),
            "error: query evaluation: division by zero");
  EXPECT_EQ(outcome(graph_, "forall s in S [ s < 3 || (s = 5 && nosuch(s) = 0) || "
                            "(s = 3 && 1 / 0 = 0) ]"),
            "error: query evaluation: division by zero");
  EXPECT_EQ(outcome(graph_, "forall s in S [ s < 3 || (s = 3 && nosuch(s) = 0) || "
                            "(s = 4 && 1 / 0 = 0) ]"),
            "error: query evaluation: 'nosuch' is not a place, transition or data variable");
  EXPECT_EQ(outcome(graph_, "forall s in S [ P0(s - 1) >= 0 ]"),
            "error: query evaluation: state index -1 out of range in 'P0(...)' (space has 5456 "
            "states)");
  EXPECT_EQ(outcome(graph_, "exists s in S [ P0(s + 1) < 0 ]"),
            "error: query evaluation: state index 5456 out of range in 'P0(...)' (space has 5456 "
            "states)");
  EXPECT_EQ(outcome(graph_, "exists s in S [ s = 700 && P0(q) = 0 ]"),
            "error: query evaluation: unbound variable 'q' (state variables must be introduced "
            "by a quantifier or temporal operator)");
  EXPECT_EQ(outcome(graph_, "forall s in S [ P0(s) >= 0 && (s < 3000 || P1(s, s) = 0) ]"),
            "error: query evaluation: 'P1' expects one state argument");
  EXPECT_EQ(outcome(graph_, "forall s in S [ inev(s - 2, P0(C) >= 0) ]"),
            "error: query evaluation: state index -2 out of range in inev (space has 5456 states)");
  EXPECT_EQ(outcome(graph_, "poss(#3, P0(C) = 30 || 1 / (C - 4000) = 0)"),
            "error: query evaluation: division by zero");
  EXPECT_EQ(outcome(graph_, "inev(#3, P0(C) = 30, 1 / (C - 4000) = 0 || true)"),
            "error: query evaluation: division by zero");
  EXPECT_EQ(outcome(graph_, "forall s in S [ min(P0(s), 7 % (s - 9)) >= 0 ]"),
            "error: query evaluation: modulo by zero");
}

TEST_F(QueryOrder, StopsLandOnTheSamePolls) {
  EXPECT_EQ(polls_of(graph_, "forall s in S [ P0(s) >= 0 ]"), 6U);
  EXPECT_EQ(polls_of(graph_, "exists s in S [ s = 2047 ]"), 2U);
  EXPECT_EQ(polls_of(graph_, "exists s in S [ s = 2048 ]"), 3U);
  EXPECT_EQ(polls_of(graph_, "forall s in {v in S | P0(v) >= 0} [ P0(s) >= 0 ]"), 6U);
  EXPECT_EQ(polls_of(graph_, "exists s in {v in S | v > 2000} [ s = 3100 ]"), 2U);
  EXPECT_EQ(polls_of(graph_, "exists s in {v in S | v > 2000} [ s = 3025 ]"), 2U);
  EXPECT_EQ(polls_of(graph_, "inev(#0, P0(C) = 0)"), 7U);
  EXPECT_EQ(polls_of(graph_, "forall s in {v in S | P3(v) = 30} [ poss(s, P0(C) = 30) ]"),
            69U);
  // The scan polls at states 0, 1024 and 2048, then raises at 3000 before
  // its poll at 3072.
  for (const auto& [polls, expected] :
       std::vector<std::pair<std::uint64_t, std::string>>{
           {1, "stop: cancelled"},
           {3, "stop: cancelled"},
           {4, "error: query evaluation: division by zero"}}) {
    StopSource scan;
    scan.cancel_after_polls(polls);
    EXPECT_EQ(outcome(graph_, "forall s in S [ 1 / (s - 3000) >= 0 - 1 ]", scan.token()),
              expected)
        << polls;
  }
}

TEST(QueryOrderInterpreted, TransitionActivityRaisesAtItsState) {
  // x counts T's firings; U's predicate divides by zero once x reaches 3.
  // The graph stops after discovering that state, so the builder never
  // evaluated U's predicate there: only a query does.
  Net net;
  net.initial_data().set("x", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_action(t, expr::compile_action("x = x + 1"));
  const TransitionId u = net.add_transition("U");
  net.add_input(u, p);
  net.add_output(u, p);
  net.set_predicate(u, expr::compile_predicate("10 / (x - 3) > 0"));
  ReachOptions options;
  options.max_states = 3;
  const ReachabilityGraph graph(net, options);
  ASSERT_EQ(graph.num_states(), 4U);
  EXPECT_EQ(outcome(graph, "exists s in S [ U(s) = 1 ]"), "eval error: division by zero");
  EXPECT_EQ(outcome(graph, "forall s in S [ U(s) = 0 ]"), "eval error: division by zero");
  EXPECT_EQ(outcome(graph, "exists s in S [ s = 2 || U(s) = 1 ]"), "holds #2: witness: state #2");
  EXPECT_EQ(outcome(graph, "forall s in S [ s = 3 || U(s) + nosuch(s) = 0 ]"),
            "error: query evaluation: 'nosuch' is not a place, transition or data variable");
  EXPECT_EQ(outcome(graph, "exists s in {v in S | U(v) = 0} [ true ]"),
            "eval error: division by zero");
  EXPECT_EQ(outcome(graph, "forall s in S [ T(s) = 1 && x(s) = s ]"),
            "holds: holds in all states of the set");
}

}  // namespace
}  // namespace pnut::analysis
