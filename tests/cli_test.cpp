// Tests for the pnut command-line utility tools (src/cli).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "expr/lexer.h"

namespace pnut::cli {
namespace {

constexpr const char* kModelPn = R"(
net demo
place Bus_free init 1
place Bus_busy
place Jobs init 2
place Done
trans start in Bus_free, Jobs out Bus_busy
trans finish in Bus_busy out Bus_free, Done enabling 5
trans recycle in Done out Jobs enabling 3
)";

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pnut_cli_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    model_path_ = (dir_ / "model.pn").string();
    std::ofstream(model_path_) << kModelPn;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Run the CLI, capture out/err.
  struct Result {
    int code;
    std::string out;
    std::string err;
  };
  static Result run_cli(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = run(args, out, err);
    return Result{code, out.str(), err.str()};
  }

  std::string make_trace_file() {
    const std::string trace_path = (dir_ / "run.trace").string();
    const Result r = run_cli({"simulate", model_path_, "--until", "200", "--seed", "7",
                              "--trace", trace_path});
    EXPECT_EQ(r.code, 0) << r.err;
    return trace_path;
  }

  std::filesystem::path dir_;
  std::string model_path_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run_cli({"help"}).code, 0);
  EXPECT_NE(run_cli({"help"}).out.find("usage"), std::string::npos);
  EXPECT_EQ(run_cli({}).code, 2);
  const Result bad = run_cli({"frobnicate"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, ValidateAcceptsGoodModel) {
  const Result r = run_cli({"validate", model_path_});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("4 places"), std::string::npos);
  EXPECT_NE(r.out.find("3 transitions"), std::string::npos);
}

TEST_F(CliTest, ValidateRejectsBadModel) {
  const std::string bad_path = (dir_ / "bad.pn").string();
  std::ofstream(bad_path) << "place P init 1\ntrans t in Nowhere out P\n";
  const Result r = run_cli({"validate", bad_path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown place"), std::string::npos);
}

TEST_F(CliTest, ValidateMissingFile) {
  const Result r = run_cli({"validate", (dir_ / "absent.pn").string()});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST_F(CliTest, CheckAcceptsPlainAndScriptedModels) {
  const Result plain = run_cli({"check", model_path_});
  EXPECT_EQ(plain.code, 0) << plain.err;
  EXPECT_NE(plain.out.find("ok: 4 places, 3 transitions"), std::string::npos);

  // A model using the scripting layer reports its library and slot counts.
  const std::string scripted_path = (dir_ / "scripted.pn").string();
  std::ofstream(scripted_path)
      << "net scripted\n"
         "fn \"twice(v) { return v + v; }\"\n"
         "param base 3\n"
         "var total 0\n"
         "place P init 1\n"
         "trans t in P out P do \"total = twice(base)\" firing 1\n";
  const Result scripted = run_cli({"check", scripted_path});
  EXPECT_EQ(scripted.code, 0) << scripted.err;
  EXPECT_NE(scripted.out.find("1 places, 1 transitions"), std::string::npos);
  EXPECT_NE(scripted.out.find("1 functions"), std::string::npos);
  EXPECT_NE(scripted.out.find("1 params"), std::string::npos);
  EXPECT_NE(scripted.out.find("value slots"), std::string::npos);
}

TEST_F(CliTest, CheckReportsLineMappedDiagnosticsWithCaret) {
  // The broken expression lives inside a quoted string on document line 4;
  // the diagnostic points there and renders a caret under the column.
  const std::string bad_path = (dir_ / "bad_expr.pn").string();
  std::ofstream(bad_path) << "net bad\n"
                             "place P init 1\n"
                             "trans t in P out P\n"
                             "      do \"x = +\"\n";
  const Result r = run_cli({"check", bad_path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("line 4: bad action: expected an expression"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("x = +\n    ^"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find(bad_path), std::string::npos);  // path-prefixed
}

TEST_F(CliTest, CheckLowersEveryHookAndNamesTheBadOne) {
  // Arity mistakes raise only when the hook is evaluated, so validate
  // accepts this model; check lowers every hook to bytecode and rejects
  // it, naming the transition and hook.
  const std::string arity_path = (dir_ / "arity.pn").string();
  std::ofstream(arity_path) << "net arity\n"
                               "place P init 1\n"
                               "trans t in P out P do \"x = irand[1]\"\n";
  EXPECT_EQ(run_cli({"validate", arity_path}).code, 0);
  const Result r = run_cli({"check", arity_path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("transition 't' action: irand expects 2 arguments, got 1"),
            std::string::npos)
      << r.out;
}

TEST_F(CliTest, ArityMistakeRaisesOnlyWhenItsHookRuns) {
  // The broken predicate sits on a transition whose input place is never
  // marked: check reports it, but simulate and analyze never evaluate it.
  const std::string lazy_path = (dir_ / "lazy.pn").string();
  std::ofstream(lazy_path) << "net lazy\n"
                              "place p init 1\n"
                              "place q\n"
                              "trans never in q out q when \"min(1) > 0\"\n"
                              "trans t in p out p firing 1\n";
  const Result check = run_cli({"check", lazy_path});
  EXPECT_EQ(check.code, 1);
  EXPECT_NE(check.out.find("transition 'never' predicate: min expects 2 arguments, got 1"),
            std::string::npos)
      << check.out;
  EXPECT_EQ(run_cli({"simulate", lazy_path, "--until", "10"}).code, 0);
  EXPECT_EQ(run_cli({"analyze", lazy_path}).code, 0);

  // Once the transition can fire, evaluating the predicate raises the
  // evaluator's error.
  const std::string eager_path = (dir_ / "eager.pn").string();
  std::ofstream(eager_path) << "net eager\n"
                               "place p init 1\n"
                               "trans broken in p out p when \"min(1) > 0\" firing 1\n";
  const Result simulate = run_cli({"simulate", eager_path, "--until", "10"});
  EXPECT_EQ(simulate.code, 2);
  EXPECT_EQ(simulate.err, "pnut simulate: min expects 2 arguments, got 1\n");
  const Result analyze = run_cli({"analyze", eager_path});
  EXPECT_EQ(analyze.code, 2);
  EXPECT_EQ(analyze.err, "pnut analyze: min expects 2 arguments, got 1\n");
}

TEST_F(CliTest, OverBudgetNestingIsADiagnosticNotACrash) {
  // 30,000 nested parentheses or 200,000 unary operators used to overflow
  // the stack (exit 139). Now: the parser's nesting budget, reported like
  // any other embedded-expression syntax error.
  const auto write_model = [&](const std::string& name, const std::string& predicate) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path) << "net deep\n"
                           "place p init 1\n"
                           "trans t in p out p when \"" << predicate << "\"\n";
    return path;
  };
  // The caret sits under the first token past the budget: the 257th '('
  // (each group is one level, as is the whole predicate), or the 256th '-'
  // (columns pinned in expr_parser_test). The predicate is one long line,
  // so the snippet is the window centred on that column.
  const std::string parens = write_model(
      "parens.pn", std::string(30000, '(') + "1" + std::string(30000, ')') + " > 0");
  const std::string negs = write_model("negs.pn", std::string(200000, '-') + "1 < 0");
  for (const auto& [path, fill] : {std::pair{parens, '('}, std::pair{negs, '-'}}) {
    const Result check = run_cli({"check", path});
    EXPECT_EQ(check.code, 1) << path;
    EXPECT_NE(check.out.find("line 3: bad predicate: nested more than 256 levels deep"),
              std::string::npos)
        << path;
    EXPECT_NE(check.out.find("\n..." + std::string(expr::kMaxCaretLine, fill) + "...\n" +
                             std::string(3 + expr::kMaxCaretLine / 2, ' ') + "^\n"),
              std::string::npos)
        << path;
    EXPECT_EQ(run_cli({"simulate", path}).code, 2) << path;
  }
  // The query parser shares the budget: a 60 KB nested query is a usage
  // error too.
  const Result query = run_cli({"query", "--reach", model_path_,
                                "forall s in S [ " + std::string(30000, '(') + "true" +
                                    std::string(30000, ')') + " ]"});
  EXPECT_EQ(query.code, 2);
  EXPECT_EQ(query.err, "pnut query: query nested more than 256 levels deep\n");
}

TEST_F(CliTest, CheckDiagnosticOfAHugeOneLinePredicateStaysSmall) {
  // A 200 KB one-line predicate with a syntax error near its end: the caret
  // snippet is a window around the column, not a copy of the whole line.
  std::string predicate;
  while (predicate.size() < 200000) predicate += "p + 1 > 0 && ";
  predicate += "p $ 1";
  const std::string path = (dir_ / "huge.pn").string();
  std::ofstream(path) << "net huge\n"
                         "place p init 1\n"
                         "trans t in p out p when \"" << predicate << "\"\n";
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run({"check", path}, out, err), 1);
  EXPECT_LT(err.str().size(), 1024U);
  EXPECT_LT(out.str().size(), 1024U);
  EXPECT_NE(out.str().find("line 3: bad predicate: "), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("unexpected character '$'"), std::string::npos) << out.str();
  // The window is the line's last kMaxCaretLine bytes after "..."; the '$'
  // is the third byte from the end.
  EXPECT_NE(out.str().find("&& p $ 1\n" + std::string(expr::kMaxCaretLine, ' ') + "^\n"),
            std::string::npos)
      << out.str();
}

TEST_F(CliTest, CheckMissingFile) {
  const Result r = run_cli({"check", (dir_ / "absent.pn").string()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("cannot open"), std::string::npos);
}

TEST_F(CliTest, PrintRoundTrips) {
  const Result r = run_cli({"print", model_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string reprinted_path = (dir_ / "reprinted.pn").string();
  std::ofstream(reprinted_path) << r.out;
  const Result again = run_cli({"print", reprinted_path});
  EXPECT_EQ(again.code, 0);
  EXPECT_EQ(again.out, r.out);
}

TEST_F(CliTest, ReplicateSummarizesAcrossSeeds) {
  const Result r = run_cli({"replicate", model_path_, "--replications", "4",
                            "--horizon", "500", "--seed", "9"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("4 replications to t=500"), std::string::npos);
  EXPECT_NE(r.out.find("seeds 9..12"), std::string::npos);
  EXPECT_NE(r.out.find("throughput(finish)"), std::string::npos);
  EXPECT_NE(r.out.find("tokens(Bus_busy)"), std::string::npos);
  EXPECT_NE(r.out.find("(n=4)"), std::string::npos);
}

TEST_F(CliTest, ReplicateThreadCountDoesNotChangeOutput) {
  auto run_with = [&](const char* threads) {
    return run_cli({"replicate", model_path_, "--replications", "6", "--horizon", "400",
                    "--threads", threads});
  };
  const Result one = run_with("1");
  ASSERT_EQ(one.code, 0) << one.err;
  for (const char* threads : {"2", "4", "0"}) {
    const Result r = run_with(threads);
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_EQ(r.out, one.out) << "--threads " << threads;
  }
}

TEST_F(CliTest, ReplicateRejectsBadFlags) {
  // Same parsing rules as the analysis commands: integers only, sane ranges.
  EXPECT_EQ(run_cli({"replicate", model_path_, "--replications", "0"}).code, 2);
  EXPECT_EQ(run_cli({"replicate", model_path_, "--replications", "2.5"}).code, 2);
  EXPECT_EQ(run_cli({"replicate", model_path_, "--horizon", "0"}).code, 2);
  EXPECT_EQ(run_cli({"replicate", model_path_, "--threads", "-1"}).code, 2);
  EXPECT_EQ(run_cli({"replicate", model_path_, "--threads", "1.5"}).code, 2);
  EXPECT_EQ(run_cli({"replicate"}).code, 2);  // missing model file
}

TEST_F(CliTest, SimulatePrintsStatsByDefault) {
  const Result r = run_cli({"simulate", model_path_, "--until", "1000", "--seed", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("simulated to t=1000"), std::string::npos);
  EXPECT_NE(r.out.find("EVENT STATISTICS"), std::string::npos);
  EXPECT_NE(r.out.find("Bus_busy"), std::string::npos);
}

TEST_F(CliTest, SimulateTblOutput) {
  const Result r =
      run_cli({"simulate", model_path_, "--until", "100", "--seed", "3", "--tbl"});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find(".TS"), std::string::npos);
}

TEST_F(CliTest, SimulateWritesTraceFile) {
  const std::string trace_path = make_trace_file();
  std::ifstream in(trace_path);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "pnut-trace 1");
}

TEST_F(CliTest, StatReadsTraceBack) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"stat", trace_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("PLACE STATISTICS"), std::string::npos);
  EXPECT_NE(r.out.find("finish"), std::string::npos);
}

TEST_F(CliTest, SimulateWithKeepFilterShrinksTrace) {
  const std::string full_path = (dir_ / "full.trace").string();
  const std::string small_path = (dir_ / "small.trace").string();
  ASSERT_EQ(run_cli({"simulate", model_path_, "--until", "500", "--seed", "2", "--trace",
                     full_path})
                .code,
            0);
  ASSERT_EQ(run_cli({"simulate", model_path_, "--until", "500", "--seed", "2", "--trace",
                     small_path, "--keep", "Done"})
                .code,
            0);
  EXPECT_LT(std::filesystem::file_size(small_path), std::filesystem::file_size(full_path));
}

TEST_F(CliTest, QueryOnTraceExitCodeReflectsVerdict) {
  const std::string trace_path = make_trace_file();
  const Result good =
      run_cli({"query", trace_path, "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"});
  EXPECT_EQ(good.code, 0) << good.err;
  EXPECT_NE(good.out.find("holds"), std::string::npos);

  const Result bad = run_cli({"query", trace_path, "forall s in S [ Bus_busy(s) = 1 ]"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.out.find("fails"), std::string::npos);
}

TEST_F(CliTest, QueryOnReachabilityGraph) {
  const Result r = run_cli({"query", "--reach", model_path_,
                            "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("holds"), std::string::npos);
}

TEST_F(CliTest, QueryReachTakesThreads) {
  // The reachability graph behind --reach is byte-identical for every
  // --threads value, so the query answer (and the whole report line) is
  // too. 0 means "all hardware threads".
  const Result sequential = run_cli({"query", "--reach", model_path_,
                                     "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"});
  ASSERT_EQ(sequential.code, 0) << sequential.err;
  for (const char* threads : {"0", "2", "4"}) {
    const Result parallel =
        run_cli({"query", "--reach", model_path_,
                 "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]", "--threads", threads});
    EXPECT_EQ(parallel.code, 0) << parallel.err;
    EXPECT_EQ(parallel.out, sequential.out) << "--threads " << threads;
  }
}

TEST_F(CliTest, ThreadsFlagRejectsNegativeAndFractional) {
  // One rule across every command that explores: integers in [0, 4096]
  // only, rejected up front with a usage error (a four-billion-thread
  // request must not reach std::thread).
  for (const char* bad : {"-1", "-3", "1.5", "nope", "999999999", "4294967296"}) {
    const Result query = run_cli({"query", "--reach", model_path_,
                                  "exists s in S [ Bus_free(s) = 1 ]", "--threads", bad});
    EXPECT_EQ(query.code, 2) << "query --threads " << bad;
    const Result analyze = run_cli({"analyze", model_path_, "--threads", bad});
    EXPECT_EQ(analyze.code, 2) << "analyze --threads " << bad;
    EXPECT_NE(analyze.err.find("--threads"), std::string::npos) << bad;
  }
}

TEST_F(CliTest, ThreadsZeroMeansHardwareConcurrency) {
  const Result r = run_cli({"analyze", model_path_, "--threads", "0"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("reachability:"), std::string::npos);
}

TEST_F(CliTest, QuerySyntaxErrorIsUsageError) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"query", trace_path, "forall s in ["});
  EXPECT_EQ(r.code, 2);
}

TEST_F(CliTest, RenderWaveforms) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"render", trace_path, "--signals",
                            "Bus_busy,Done,load=Bus_busy+Jobs", "--columns", "40",
                            "--marker", "O=20", "--marker", "X=60"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Bus_busy"), std::string::npos);
  EXPECT_NE(r.out.find("load"), std::string::npos);
  EXPECT_NE(r.out.find("O <-> X: 40"), std::string::npos);
}

TEST_F(CliTest, RenderUnknownSignalFails) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"render", trace_path, "--signals", "NoSuchThing"});
  EXPECT_EQ(r.code, 2);
}

TEST_F(CliTest, AnimateShowsTokenFlow) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"animate", trace_path, "--steps", "4"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("==(1)==>"), std::string::npos);
  EXPECT_NE(r.out.find("t="), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsInvariantsAndReachability) {
  const Result r = run_cli({"analyze", model_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("place invariants"), std::string::npos);
  EXPECT_NE(r.out.find("Bus_free + Bus_busy = 1"), std::string::npos);
  EXPECT_NE(r.out.find("structurally bounded"), std::string::npos);
  EXPECT_NE(r.out.find("transition invariants"), std::string::npos);
  EXPECT_NE(r.out.find("reachability:"), std::string::npos);
  EXPECT_NE(r.out.find("place invariants verified over"), std::string::npos);
  EXPECT_NE(r.out.find("deadlock states: 0"), std::string::npos);
  EXPECT_NE(r.out.find("reversible: yes"), std::string::npos);
  EXPECT_NE(r.out.find("timed reachability:"), std::string::npos);
  EXPECT_NE(r.out.find("timed deadlocks: 0"), std::string::npos);
}

TEST_F(CliTest, AnalyzeThreadsFlagIsOutputInvariant) {
  // Parallel exploration is canonically renumbered, so the whole analyze
  // report — state ids, deadlock counts, place bounds, reversibility —
  // must be character-identical for any --threads value. The one line
  // exempted is the "state storage:" memory estimate: memory_bytes() is a
  // capacity-based footprint, and the parallel builder's canonical store
  // genuinely retains less (its intern table never grows past bootstrap).
  const auto strip_storage_line = [](const std::string& report) {
    std::string out;
    std::size_t pos = 0;
    while (pos < report.size()) {
      const std::size_t eol = report.find('\n', pos);
      const std::string line = report.substr(pos, eol - pos);
      if (line.find("state storage:") == std::string::npos) out += line + '\n';
      if (eol == std::string::npos) break;
      pos = eol + 1;
    }
    return out;
  };
  const Result sequential = run_cli({"analyze", model_path_});
  ASSERT_EQ(sequential.code, 0) << sequential.err;
  for (const char* threads : {"2", "4", "8"}) {
    const Result parallel = run_cli({"analyze", model_path_, "--threads", threads});
    ASSERT_EQ(parallel.code, 0) << parallel.err;
    EXPECT_EQ(strip_storage_line(parallel.out), strip_storage_line(sequential.out))
        << "--threads " << threads;
  }
  EXPECT_EQ(run_cli({"analyze", model_path_, "--threads", "-1"}).code, 2);
}

TEST_F(CliTest, AnalyzeSkipsTimedSectionForStochasticDelays) {
  const std::string stochastic_path = (dir_ / "stochastic.pn").string();
  std::ofstream(stochastic_path) << "place P init 1\ntrans t in P out P firing uniform 1 3\n";
  const Result r = run_cli({"analyze", stochastic_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("timed reachability: skipped"), std::string::npos);
}

TEST_F(CliTest, SpillFlagsGiveIdenticalAnswersAndCleanUpSegments) {
  // A 1K residency budget on this model forces real spilling, the query
  // answer matches the in-RAM build exactly, and the uniquely named
  // segment subdirectory inside --spill-dir is gone when the command
  // returns — the spill dir itself is left alone.
  const std::string query = "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]";
  const Result flat = run_cli({"query", "--reach", model_path_, query});
  ASSERT_EQ(flat.code, 0) << flat.err;
  const std::filesystem::path spill_root = dir_ / "segments";
  std::filesystem::create_directories(spill_root);
  for (const char* threads : {"1", "4"}) {
    const Result spilled = run_cli({"query", "--reach", model_path_, query,
                                    "--max-resident-bytes", "1K", "--spill-dir",
                                    spill_root.string(), "--threads", threads});
    EXPECT_EQ(spilled.code, 0) << spilled.err;
    EXPECT_EQ(spilled.out, flat.out) << "--threads " << threads;
    EXPECT_TRUE(std::filesystem::is_empty(spill_root)) << "--threads " << threads;
  }
}

TEST_F(CliTest, AnalyzeTakesSpillBudgetWithSuffixes) {
  const Result flat = run_cli({"analyze", model_path_});
  ASSERT_EQ(flat.code, 0) << flat.err;
  for (const char* budget : {"1024", "1K", "1M", "1G"}) {
    const Result spilled =
        run_cli({"analyze", model_path_, "--max-resident-bytes", budget});
    ASSERT_EQ(spilled.code, 0) << "--max-resident-bytes " << budget << ": "
                               << spilled.err;
    // Identical analysis modulo the storage/out-of-core reporting lines.
    EXPECT_NE(spilled.out.find("reachability:"), std::string::npos) << budget;
    EXPECT_EQ(spilled.out.find("TRUNCATED"), std::string::npos) << budget;
  }
  // The demo net is too small to fill a single segment; a 1716-state
  // token ring against a 1 KB budget genuinely spills, and the report
  // says so.
  const std::string ring_path = (dir_ / "ring.pn").string();
  {
    std::ofstream ring(ring_path);
    ring << "net ring\n";
    for (int i = 0; i < 8; ++i) {
      ring << "place P" << i << (i == 0 ? " init 6" : "") << '\n';
    }
    for (int i = 0; i < 8; ++i) {
      ring << "trans t" << i << " in P" << i << " out P" << (i + 1) % 8 << '\n';
    }
  }
  const Result engaged =
      run_cli({"analyze", ring_path, "--max-resident-bytes", "1024"});
  ASSERT_EQ(engaged.code, 0) << engaged.err;
  EXPECT_NE(engaged.out.find("out-of-core:"), std::string::npos);
}

TEST_F(CliTest, SpillFlagValidation) {
  // One rule for both commands: the budget must be a positive byte count
  // (optional K/M/G suffix), and --spill-dir alone is meaningless.
  const std::string query = "exists s in S [ Bus_free(s) = 1 ]";
  for (const char* bad : {"0", "-1", "abc", "1X", "K", "1.5M", "", "10KB"}) {
    const Result r = run_cli({"query", "--reach", model_path_, query,
                              "--max-resident-bytes", bad});
    EXPECT_EQ(r.code, 2) << "--max-resident-bytes '" << bad << "'";
    EXPECT_NE(r.err.find("--max-resident-bytes"), std::string::npos) << bad;
    EXPECT_EQ(run_cli({"analyze", model_path_, "--max-resident-bytes", bad}).code, 2)
        << "analyze --max-resident-bytes '" << bad << "'";
  }
  const Result orphan =
      run_cli({"analyze", model_path_, "--spill-dir", dir_.string()});
  EXPECT_EQ(orphan.code, 2);
  EXPECT_NE(orphan.err.find("--spill-dir"), std::string::npos);
  // A spill root that doesn't exist is a reported error, not a crash.
  const Result missing =
      run_cli({"query", "--reach", model_path_, query, "--max-resident-bytes", "1K",
               "--spill-dir", (dir_ / "no" / "such" / "dir").string()});
  EXPECT_EQ(missing.code, 2);
}

TEST_F(CliTest, FlagErrors) {
  EXPECT_EQ(run_cli({"simulate", model_path_, "--until"}).code, 2);
  EXPECT_EQ(run_cli({"simulate", model_path_, "--until", "abc"}).code, 2);
  EXPECT_EQ(run_cli({"render", make_trace_file()}).code, 2);  // missing --signals
  EXPECT_EQ(run_cli({"simulate"}).code, 2);                   // missing model
}

TEST_F(CliTest, SeedParsesFull64BitRange) {
  // Seeds are uint64 streams; parsing them through double would round
  // 2^53+1 to 2^53 and 2^64-1 out of range entirely. The report line
  // echoes the seed, so an exact match proves the exact parse.
  for (const char* seed : {"9007199254740993", "18446744073709551615"}) {
    const Result sim =
        run_cli({"simulate", model_path_, "--until", "50", "--seed", seed});
    ASSERT_EQ(sim.code, 0) << sim.err;
    EXPECT_NE(sim.out.find(std::string("seed ") + seed), std::string::npos) << seed;
  }
  // replicate prints "seeds S..S+N-1"; the base must survive exactly too.
  const Result rep = run_cli({"replicate", model_path_, "--replications", "2",
                              "--horizon", "100", "--seed", "9007199254740993"});
  ASSERT_EQ(rep.code, 0) << rep.err;
  EXPECT_NE(rep.out.find("seeds 9007199254740993..9007199254740994"),
            std::string::npos);
}

TEST_F(CliTest, SeedRejectsFractionSignAndOverflow) {
  // `--seed 1.5` used to silently truncate to 1; now every non-integer
  // form is a usage error naming the flag.
  for (const char* bad : {"1.5", "-1", "1e6", "18446744073709551616", "abc", ""}) {
    const Result sim =
        run_cli({"simulate", model_path_, "--until", "10", "--seed", bad});
    EXPECT_EQ(sim.code, 2) << "simulate --seed '" << bad << "'";
    EXPECT_NE(sim.err.find("--seed"), std::string::npos) << bad;
    EXPECT_EQ(run_cli({"replicate", model_path_, "--seed", bad}).code, 2)
        << "replicate --seed '" << bad << "'";
  }
}

TEST_F(CliTest, MaxStatesRejectsFractionAndSign) {
  const std::string query = "exists s in S [ Bus_free(s) = 1 ]";
  for (const char* bad : {"1.5", "-1", "1e5"}) {
    const Result q = run_cli({"query", "--reach", model_path_, query,
                              "--max-states", bad});
    EXPECT_EQ(q.code, 2) << "query --max-states '" << bad << "'";
    EXPECT_NE(q.err.find("--max-states"), std::string::npos) << bad;
    EXPECT_EQ(run_cli({"analyze", model_path_, "--max-states", bad}).code, 2)
        << "analyze --max-states '" << bad << "'";
  }
}

TEST_F(CliTest, UnknownFlagsAreUsageErrors) {
  // `--thread 4` or `--horizen 100` typos must fail loudly, not silently
  // run with defaults. The error lists the command's real vocabulary.
  const Result thread = run_cli({"simulate", model_path_, "--thread", "4"});
  EXPECT_EQ(thread.code, 2);
  EXPECT_NE(thread.err.find("unknown flag --thread"), std::string::npos);
  EXPECT_NE(thread.err.find("--seed"), std::string::npos);  // suggests the real set

  const Result horizen = run_cli({"replicate", model_path_, "--horizen", "100"});
  EXPECT_EQ(horizen.code, 2);
  EXPECT_NE(horizen.err.find("unknown flag --horizen"), std::string::npos);

  EXPECT_EQ(run_cli({"analyze", model_path_, "--frobnicate", "1"}).code, 2);
  // The retired expression-VM opt-out is just another unknown flag.
  for (std::vector<std::string> args :
       {std::vector<std::string>{"simulate", model_path_},
        std::vector<std::string>{"analyze", model_path_},
        std::vector<std::string>{"query", "--reach", model_path_, "exists s in S [ 1 = 1 ]"}}) {
    args.push_back("--no-expr-vm");
    const Result r = run_cli(args);
    EXPECT_EQ(r.code, 2) << args[0];
    EXPECT_NE(r.err.find("unknown flag --no-expr-vm"), std::string::npos) << args[0];
  }
  EXPECT_EQ(run_cli({"query", "--reach", model_path_, "exists s in S [ 1 = 1 ]",
                     "--marker", "O=1"})
                .code,
            2);  // --marker belongs to render only

  // Flagless commands advertise that.
  const Result validate = run_cli({"validate", model_path_, "--verbose"});
  EXPECT_EQ(validate.code, 2);
  EXPECT_NE(validate.err.find("takes no flags"), std::string::npos);
}

TEST_F(CliTest, SpillBudgetOverflowIsRejectedNotWrapped) {
  // value * scale near SIZE_MAX used to wrap silently to a tiny budget —
  // spilling everything instead of failing. Now it is the same usage error
  // as any other malformed budget.
  const std::string query = "exists s in S [ Bus_free(s) = 1 ]";
  for (const char* bad :
       {"99999999999999999G", "18446744073709551615K", "18446744073709551615M"}) {
    const Result q = run_cli({"query", "--reach", model_path_, query,
                              "--max-resident-bytes", bad});
    EXPECT_EQ(q.code, 2) << "--max-resident-bytes '" << bad << "'";
    EXPECT_NE(q.err.find("--max-resident-bytes"), std::string::npos) << bad;
    EXPECT_EQ(run_cli({"analyze", model_path_, "--max-resident-bytes", bad}).code, 2)
        << "analyze --max-resident-bytes '" << bad << "'";
  }
  // The largest representable budgets still parse.
  const Result fits = run_cli({"analyze", model_path_, "--max-resident-bytes",
                               "17179869183G"});  // (2^34 - 1) GiB < 2^64
  EXPECT_EQ(fits.code, 0) << fits.err;
}

TEST_F(CliTest, NegativeHorizonsAreRejected) {
  // simulate used to accept --until -5 silently (zero events, "success").
  const Result sim = run_cli({"simulate", model_path_, "--until", "-5"});
  EXPECT_EQ(sim.code, 2);
  EXPECT_NE(sim.err.find("--until"), std::string::npos);
  const Result rep = run_cli({"replicate", model_path_, "--horizon", "-5"});
  EXPECT_EQ(rep.code, 2);
  EXPECT_NE(rep.err.find("--horizon"), std::string::npos);
  // t=0 stays valid for simulate: report the initial state and stop.
  EXPECT_EQ(run_cli({"simulate", model_path_, "--until", "0"}).code, 0);
}

TEST_F(CliTest, TimeoutFlagSemantics) {
  // A pre-expired deadline: simulate/replicate/query fail cleanly with exit
  // code 1 and no partial verdict...
  const Result sim = run_cli({"simulate", model_path_, "--until", "1000", "--timeout", "0"});
  EXPECT_EQ(sim.code, 1);
  EXPECT_NE(sim.err.find("deadline exceeded"), std::string::npos) << sim.err;
  const Result query =
      run_cli({"query", "--reach", model_path_, "forall s in S [ 1 = 1 ]",
               "--timeout", "0"});
  EXPECT_EQ(query.code, 1);
  EXPECT_NE(query.err.find("deadline exceeded"), std::string::npos) << query.err;
  // ...while analyze reports the deterministic truncated prefix, honestly
  // labeled, as a successful (exit 0) report.
  const Result analyze = run_cli({"analyze", model_path_, "--timeout", "0"});
  EXPECT_EQ(analyze.code, 0) << analyze.err;
  EXPECT_NE(analyze.out.find("STOPPED at deadline"), std::string::npos) << analyze.out;
  // Malformed values are usage errors.
  const Result bad = run_cli({"simulate", model_path_, "--timeout", "-3"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("--timeout"), std::string::npos) << bad.err;
  const Result nan = run_cli({"simulate", model_path_, "--timeout", "banana"});
  EXPECT_EQ(nan.code, 2);
  // A generous timeout changes nothing about a fast command's output.
  const Result plain = run_cli({"simulate", model_path_, "--until", "100", "--seed", "3"});
  const Result timed =
      run_cli({"simulate", model_path_, "--until", "100", "--seed", "3",
               "--timeout", "3600"});
  EXPECT_EQ(timed.code, plain.code);
  EXPECT_EQ(timed.out, plain.out);
}

}  // namespace
}  // namespace pnut::cli
