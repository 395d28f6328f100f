// Seeded random expression/program generator for differential testing of
// the two expression evaluators (AST tree-walk vs bytecode VM).
//
// Each seed deterministically produces an environment (scalars, a table,
// some names deliberately left undefined) plus random expression or
// action-program source text over that environment. The generator leans on
// every language feature the evaluators implement — all binary/unary
// operators (including / and % with constant-zero and overflow-capable
// operands), short-circuit && and ||, min/max/abs, irand (actions only),
// table reads/writes with in- and out-of-range indices, reads of undefined
// names, assignments that create variables at runtime — so a differential
// run covers values, error cases, rng streams and created variables alike.
//
// With `script_constructs` on, program() additionally emits the scripting
// layer: user-defined functions (bodies over their parameters, the data
// environment and earlier functions only — the scoping the parser
// enforces), let bindings, fixed-extent local arrays with in- and
// out-of-range accesses, and bounded for loops whose bodies read the loop
// variable. Generation is scope-correct by construction (fresh names per
// binding, loop variables never assigned, function bodies never assign
// globals), so every generated script parses; the *evaluation*-time error
// space stays fully exercised.
//
// Arity is always correct by construction: builtin arity mistakes are a
// *compile-time* error for the bytecode compiler but an *evaluation-time*
// error for the AST walker, so they are pinned by dedicated tests, not
// fuzzed. User-function arity is a parse-time error either way and is
// pinned by the parser tests.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "petri/data_context.h"

namespace pnut::test_support {

struct ExprFuzzOptions {
  int max_depth = 4;
  /// Percent chance a leaf references a name that does not exist.
  int unknown_pct = 6;
  /// Allow irand in generated value expressions (actions only — the AST
  /// evaluator rejects irand without an rng, which is its own test).
  bool allow_irand = false;
  /// Emit fn definitions, let bindings, local arrays and for loops in
  /// program().
  bool script_constructs = false;
  /// Emit `tbl[...]` reads in expressions.
  bool table_reads = true;
  /// When set, every leaf comes from this callback instead of the data
  /// environment's names and constants: another language (the query
  /// language, tests/analysis_query_golden_test.cpp) reuses the operator
  /// shapes over leaves of its own.
  std::function<std::string()> leaf;
};

class ExprFuzzer {
 public:
  ExprFuzzer(std::uint64_t seed, ExprFuzzOptions options = {})
      : rng_(seed), options_(options) {}

  /// The environment the generated sources evaluate against. `w` is left
  /// undefined (programs may create it); `tbl` has kTableSize entries.
  [[nodiscard]] DataContext environment() {
    DataContext data;
    data.set("x", pick_int(-6, 9));
    data.set("y", pick_int(-2, 12));
    if (chance(70)) data.set("z", pick_int(0, 3));
    std::vector<std::int64_t> tbl(kTableSize);
    for (auto& v : tbl) v = pick_int(-3, 5);
    data.set_table("tbl", std::move(tbl));
    return data;
  }

  [[nodiscard]] std::string expression() { return gen(options_.max_depth); }

  /// Statements over the environment; scalar targets may be fresh names
  /// (created at run time), table writes may go out of bounds or to an
  /// unknown table. With script_constructs: fn definitions first, then a
  /// statement list mixing lets, array declarations/writes, for loops and
  /// plain assignments.
  [[nodiscard]] std::string program() {
    readable_.clear();
    assignable_.clear();
    arrays_.clear();
    fns_.clear();
    name_seq_ = 0;
    std::string out;
    if (options_.script_constructs) {
      const int fns = static_cast<int>(pick(0, 2));
      for (int i = 0; i < fns; ++i) out += fn_def();
      const int statements = static_cast<int>(pick(2, 5));
      for (int i = 0; i < statements; ++i) out += statement(/*allow_block=*/true);
      return out;
    }
    const int statements = static_cast<int>(pick(1, 4));
    for (int i = 0; i < statements; ++i) {
      if (!out.empty()) out += "; ";
      if (chance(25)) {
        const char* table = chance(85) ? "tbl" : "ghost_table";
        out += std::string(table) + "[" + gen(2) + "] = " + gen(options_.max_depth - 1);
      } else {
        out += std::string(global_target()) + " = " + gen(options_.max_depth - 1);
      }
    }
    return out;
  }

  static constexpr std::int64_t kTableSize = 4;

 private:
  [[nodiscard]] const char* global_target() {
    static constexpr const char* kTargets[] = {"x", "y", "z", "w", "late"};
    return kTargets[pick(0, 4)];
  }

  [[nodiscard]] std::string fresh(const char* prefix) {
    return std::string(prefix) + std::to_string(name_seq_++);
  }

  /// A fn definition whose body sees its parameters, the data environment
  /// and earlier fns — exactly the parser's scoping. Registered only after
  /// the body is generated, so a body can never call its own fn.
  [[nodiscard]] std::string fn_def() {
    const std::string name = fresh("fun");
    const int arity = static_cast<int>(pick(1, 2));
    std::vector<std::string> saved_readable = std::exchange(readable_, {});
    std::vector<std::string> saved_assignable = std::exchange(assignable_, {});
    auto saved_arrays = std::exchange(arrays_, {});
    std::string header = "fn " + name + "(";
    for (int p = 0; p < arity; ++p) {
      if (p > 0) header += ", ";
      const std::string param = "p" + std::to_string(p);
      header += param;
      readable_.push_back(param);
    }
    std::string body;
    if (chance(40)) {
      const std::string local = fresh("t");
      body += "let " + local + " = " + gen(2) + "; ";
      readable_.push_back(local);
      assignable_.push_back(local);
    }
    if (chance(25) && !assignable_.empty()) {
      body += assignable_[pick(0, assignable_.size() - 1)] + " = " + gen(2) + "; ";
    }
    body += "return " + gen(options_.max_depth - 1) + ";";
    readable_ = std::move(saved_readable);
    assignable_ = std::move(saved_assignable);
    arrays_ = std::move(saved_arrays);
    fns_.emplace_back(name, arity);
    return header + ") { " + body + " }\n";
  }

  [[nodiscard]] std::string statement(bool allow_block) {
    const std::size_t roll = pick(0, 99);
    if (roll < 12) {
      const std::string name = fresh("loc");
      std::string out = "let " + name + " = " + gen(options_.max_depth - 1) + "; ";
      readable_.push_back(name);
      assignable_.push_back(name);
      return out;
    }
    if (roll < 22) {
      const std::string name = fresh("arr");
      const std::int64_t extent = pick_int(1, 3);
      arrays_.emplace_back(name, extent);
      return "let " + name + "[" + std::to_string(extent) + "]; ";
    }
    if (roll < 40 && allow_block) return for_loop();
    if (roll < 55 && !arrays_.empty()) {
      const auto& [name, extent] = arrays_[pick(0, arrays_.size() - 1)];
      // Mostly in-range indices; sometimes computed (and possibly out of
      // range — an eval-time error both evaluators must word identically).
      const std::string index =
          chance(70) ? std::to_string(pick_int(0, extent - 1)) : gen(2);
      return name + "[" + index + "] = " + gen(options_.max_depth - 1) + "; ";
    }
    if (roll < 67) {
      const char* table = chance(85) ? "tbl" : "ghost_table";
      return std::string(table) + "[" + gen(2) + "] = " +
             gen(options_.max_depth - 1) + "; ";
    }
    std::string target;
    if (!assignable_.empty() && chance(35)) {
      target = assignable_[pick(0, assignable_.size() - 1)];
    } else {
      target = global_target();
    }
    return target + " = " + gen(options_.max_depth - 1) + "; ";
  }

  [[nodiscard]] std::string for_loop() {
    const std::string var = fresh("i");
    const std::int64_t lo = pick_int(-2, 3);
    // Occasionally an empty range (hi < lo): zero-trip loops are legal.
    const std::int64_t hi = chance(85) ? lo + pick_int(0, 4) : lo - 1;
    const std::size_t readable_mark = readable_.size();
    const std::size_t assignable_mark = assignable_.size();
    const std::size_t arrays_mark = arrays_.size();
    readable_.push_back(var);  // readable in the body, never assignable
    std::string body;
    const int statements = static_cast<int>(pick(1, 2));
    for (int i = 0; i < statements; ++i) body += statement(/*allow_block=*/false);
    readable_.resize(readable_mark);
    assignable_.resize(assignable_mark);
    arrays_.resize(arrays_mark);
    return "for " + var + " = " + std::to_string(lo) + " to " + std::to_string(hi) +
           " { " + body + "} ";
  }

  [[nodiscard]] std::string gen(int depth) {
    if (depth <= 0 || chance(25)) return leaf();
    switch (pick(0, 11)) {
      case 0: return "(-" + gen(depth - 1) + ")";
      case 1: return "(!" + gen(depth - 1) + ")";
      case 2: {  // builtin call
        if (chance(40)) return "abs(" + gen(depth - 1) + ")";
        const char* f = chance(50) ? "min" : "max";
        return std::string(f) + "[" + gen(depth - 1) + ", " + gen(depth - 1) + "]";
      }
      case 3:
        if (!options_.table_reads) return leaf();
        return "tbl[" + gen(depth - 1) + "]";
      case 4: {
        if (options_.allow_irand && chance(50)) {
          // Mostly valid ranges; occasionally reversed (an error case).
          const std::int64_t lo = pick_int(-2, 4);
          const std::int64_t hi = chance(85) ? lo + pick_int(0, 3) : lo - 1;
          return "irand[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
        }
        return leaf();
      }
      case 5: {  // local array read (possibly out of range)
        if (arrays_.empty()) return leaf();
        const auto& [name, extent] = arrays_[pick(0, arrays_.size() - 1)];
        const std::string index =
            chance(70) ? std::to_string(pick_int(0, extent - 1)) : gen(depth - 1);
        return name + "[" + index + "]";
      }
      case 6: {  // user-function call, arity correct by construction
        if (fns_.empty()) return leaf();
        const auto& [name, arity] = fns_[pick(0, fns_.size() - 1)];
        std::string out = name + "(";
        for (int a = 0; a < arity; ++a) {
          if (a > 0) out += ", ";
          out += gen(depth - 1);
        }
        return out + ")";
      }
      default: {
        static constexpr const char* kOps[] = {"+", "-",  "*",  "/",  "%",  "==",
                                               "!=", "<", "<=", ">",  ">=", "&&",
                                               "||"};
        const std::string op = kOps[pick(0, 12)];
        return "(" + gen(depth - 1) + " " + op + " " + gen(depth - 1) + ")";
      }
    }
  }

  [[nodiscard]] std::string leaf() {
    if (options_.leaf) return options_.leaf();
    if (!readable_.empty() && chance(30)) {
      return readable_[pick(0, readable_.size() - 1)];
    }
    if (chance(options_.unknown_pct)) {
      return chance(50) ? "nosuch" : "phantom(" + leaf() + ")";
    }
    switch (pick(0, 5)) {
      case 0: return "x";
      case 1: return "y";
      case 2: return "z";  // sometimes undefined (70% of environments set it)
      case 3: return "w";  // undefined unless a program created it
      case 4:
        // Big constants reach wrapping-arithmetic and /-overflow territory
        // through * and unary-minus chains.
        if (chance(12)) return "4611686018427387904";  // 2^62
        return std::to_string(pick_int(-3, 9));
      default: return std::to_string(pick_int(0, 2));
    }
  }

  [[nodiscard]] std::size_t pick(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng_() % (hi - lo + 1));
  }
  [[nodiscard]] std::int64_t pick_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(rng_() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  [[nodiscard]] bool chance(int pct) { return static_cast<int>(rng_() % 100) < pct; }

  std::mt19937_64 rng_;
  ExprFuzzOptions options_;

  // Script-construct scope state (rebuilt per program() call).
  std::vector<std::string> readable_;    ///< lets, params, loop vars
  std::vector<std::string> assignable_;  ///< lets only
  std::vector<std::pair<std::string, std::int64_t>> arrays_;
  std::vector<std::pair<std::string, int>> fns_;
  int name_seq_ = 0;
};

}  // namespace pnut::test_support
