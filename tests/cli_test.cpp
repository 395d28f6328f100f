// Tests for the pnut command-line utility tools (src/cli).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "expr/lexer.h"
#include "pipeline/interpreted.h"
#include "sim/simulator.h"
#include "support/golden_hash.h"
#include "trace/trace_text.h"

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

TEST_F(CliTest, QueryArithmeticOverflowIsAnErrorNotACrash) {
  // INT64_MIN / -1 used to kill the process with SIGFPE (exit 136), on a
  // reachability graph and on a trace alike. Now it is an evaluation error,
  // with the exit code of division by zero.
  const std::string query = "exists s in S [ (0-9223372036854775807-1) / (0-1) == 0 ]";
  const Result reach = run_cli({"query", "--reach", model_path_, query});
  EXPECT_EQ(reach.code, 2);
  EXPECT_EQ(reach.out, "");
  EXPECT_EQ(reach.err, "pnut query: query evaluation: division overflow\n");
  const Result trace = run_cli(
      {"query", make_trace_file(), "exists s in S [ (0-9223372036854775807-1) % (0-1) == 0 ]"});
  EXPECT_EQ(trace.code, 2);
  EXPECT_EQ(trace.out, "");
  EXPECT_EQ(trace.err, "pnut query: query evaluation: modulo overflow\n");
  const Result by_zero = run_cli({"query", "--reach", model_path_, "1 / 0 = 0"});
  EXPECT_EQ(by_zero.code, reach.code);
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
  // --threads is accepted and validated, and the graph behind --reach has
  // one builder, so the answer is byte-identical for every value.
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
  // One rule across every command that takes the flag: integers in [0, 4096]
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
  // The untimed graph has one builder, so the whole analyze report — the
  // "state storage:" line included — is character-identical for any
  // --threads value.
  const Result sequential = run_cli({"analyze", model_path_});
  ASSERT_EQ(sequential.code, 0) << sequential.err;
  for (const char* threads : {"2", "4", "8"}) {
    const Result parallel = run_cli({"analyze", model_path_, "--threads", threads});
    ASSERT_EQ(parallel.code, 0) << parallel.err;
    EXPECT_EQ(parallel.out, sequential.out) << "--threads " << threads;
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

TEST_F(CliTest, AnalyzeSkipsTimedDelaysThatDoNotFitAState) {
  // Two firing delays of 2^31 cycles used to wrap the timed state's width
  // and crash analyze (SIGSEGV), and a delay of 1e20 was cast to a word
  // and analyzed as a 2-state graph. Each cycle of a firing delay is a
  // word of every timed state, so past the word budget (or past a word's
  // range) the timed section is skipped with the reason, and the untimed
  // sections still print.
  const auto analyze = [&](const std::string& name, const std::string& transitions,
                           const std::vector<std::string>& flags = {}) {
    const std::string path = (dir_ / (name + ".pn")).string();
    std::ofstream(path) << "net " << name << "\nplace P init 1\nplace Q\n" << transitions;
    std::vector<std::string> args{"analyze", path};
    args.insert(args.end(), flags.begin(), flags.end());
    return run_cli(args);
  };
  const Result wide = analyze("wide",
                              "trans a in P out Q firing 2147483648\n"
                              "trans b in Q out P firing 2147483648\n");
  EXPECT_EQ(wide.code, 0);
  EXPECT_EQ(wide.err, "");
  EXPECT_EQ(wide.out,
            "net: wide \xE2\x80\x94 2 places, 2 transitions\n\n"
            "place invariants (1):\n"
            "  P + Q = 1\n"
            "  every place covered: net is structurally bounded\n"
            "transition invariants (1):\n"
            "  a + b\n\n"
            "reachability: 2 states, 2 edges (complete)\n"
            "  state storage: 2080 bytes/state (5 KiB)\n"
            "  place invariants verified over 2 reachable states\n"
            "  deadlock states: 0\n"
            "  dead transitions: none\n"
            "  reversible: yes\n"
            "  place bounds: P=1 Q=1\n"
            "timed reachability: skipped (TimedReachabilityGraph: transition 'a' (firing "
            "2147483648) makes a timed state wider than 65536 words)\n"
            "marked graph cycle time: 4.29497e+09\n");

  const Result huge = analyze("huge", "trans a in P out Q firing 99999999999999999999\n");
  EXPECT_EQ(huge.code, 0);
  EXPECT_NE(huge.out.find("reachability: 2 states, 1 edges (complete)\n"), std::string::npos);
  EXPECT_NE(huge.out.find("timed reachability: skipped (TimedReachabilityGraph: the firing "
                          "time of transition 'a' is past 4294967295 cycles)\n"),
            std::string::npos);

  // An enabling delay is one timer word: UINT32_MAX fits, and the
  // countdown is cut at --max-states.
  const Result capped =
      analyze("longest", "trans a in P out Q enabling 4294967295\n", {"--max-states", "10"});
  EXPECT_EQ(capped.code, 0);
  EXPECT_NE(capped.out.find("timed reachability: 11 states (TRUNCATED), timed deadlocks: 0\n"),
            std::string::npos);
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

TEST_F(CliTest, NumericFlagsAreStrict) {
  // Trailing text, hex, infinities, negative counts and fractional counts
  // used to be accepted (std::stod stopped at the first bad character and
  // counts were cast from double). Each is now a usage error naming its flag.
  const auto rejects = [&](std::vector<std::string> args, const std::string& flag) {
    const Result r = run_cli(args);
    EXPECT_EQ(r.code, 2) << args[0] << " " << flag << ": " << r.out;
    EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
  };
  for (const char* bad : {"100abc", "0x20", "inf", "-inf", "nan", "1e400", " 5", "+5", ""}) {
    rejects({"simulate", model_path_, "--until", bad}, "--until");
    rejects({"replicate", model_path_, "--horizon", bad}, "--horizon");
    rejects({"simulate", model_path_, "--timeout", bad}, "--timeout");
  }
  rejects({"replicate", model_path_, "--horizon", "50xyz"}, "--horizon");
  rejects({"replicate", model_path_, "--threads", "4abc"}, "--threads");
  const std::string trace = make_trace_file();
  for (const char* bad : {"-1", "2.9", "1e3", "12cols"}) {
    rejects({"render", trace, "--signals", "Done", "--columns", bad}, "--columns");
    rejects({"animate", trace, "--steps", bad}, "--steps");
  }
  rejects({"render", trace, "--signals", "Done", "--columns", "100001"}, "--columns");
  rejects({"render", trace, "--signals", "Done", "--from", "1x"}, "--from");
  rejects({"render", trace, "--signals", "Done", "--to", "inf"}, "--to");
  for (const char* bad : {"A=5abc", "A=inf", "A=", "A5", "AB=5"}) {
    rejects({"render", trace, "--signals", "Done", "--marker", bad}, "--marker");
  }

  // Well-formed values keep their exact output.
  const Result plain = run_cli({"simulate", model_path_, "--until", "100", "--seed", "3"});
  ASSERT_EQ(plain.code, 0) << plain.err;
  for (const char* same : {"1e2", "100.0", "0100"}) {
    const Result r = run_cli({"simulate", model_path_, "--until", same, "--seed", "3"});
    EXPECT_EQ(r.code, 0) << same << ": " << r.err;
    EXPECT_EQ(r.out, plain.out) << same;
  }
  const Result marked = run_cli({"render", trace, "--signals", "Done", "--marker", "A=50.5",
                                 "--columns", "40", "--from", "-1", "--to", "150"});
  EXPECT_EQ(marked.code, 0) << marked.err;
  const Result narrow = run_cli({"render", trace, "--signals", "Done", "--columns", "0"});
  EXPECT_EQ(narrow.code, 0) << narrow.err;  // the tracer widens it to 8
  const Result steps = run_cli({"animate", trace, "--steps", "2"});
  EXPECT_EQ(steps.code, 0) << steps.err;
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

// --- simulate golden pins ----------------------------------------------------
//
// FNV fingerprints of simulate's output bytes (stdout, trace files, error
// texts and exit codes), recorded while simulate still drove a scalar
// Simulator through a StatCollector sink. They hold unchanged on the batch
// lane kernel simulate runs on now.

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::uint64_t hash_text(std::string_view text) {
  test_support::Fingerprint f;
  f.str(text);
  return f.value();
}

TEST_F(CliTest, SimulateOutputIsPinnedOnTheShippedModels) {
  struct Pin {
    const char* model;
    std::uint64_t stats, tbl, trace, keep;
  };
  constexpr Pin kPins[] = {
      {"pipeline_nocache.pn", 3979798262254472985u, 13157158957295072358u,
       16902019995834015109u, 8355753390704255586u},
      {"ext_cache_icache.pn", 15262359338173314836u, 10309079009102376709u,
       7161324234719657627u, 3483267626819451498u},
      {"ext_cache_dcache.pn", 15388281548136988483u, 7576093354570950011u,
       133224329786946983u, 11778606519865626044u},
      {"ext_cache_unified.pn", 16862017565297820171u, 3754956795820644274u,
       2703224842621795403u, 13696926383351373203u},
  };
  const std::string trace_path = (dir_ / "pin.trace").string();
  for (const Pin& pin : kPins) {
    const std::string model = std::string(PNUT_MODELS_DIR) + "/" + pin.model;
    test_support::Fingerprint stats, tbl, trace, keep;
    for (const char* seed : {"1", "7", "1000003"}) {
      const auto simulate = [&](std::vector<std::string> extra) {
        std::vector<std::string> args = {"simulate", model, "--seed", seed};
        args.insert(args.end(), extra.begin(), extra.end());
        const Result r = run_cli(args);
        EXPECT_EQ(r.code, 0) << pin.model << " seed " << seed << ": " << r.err;
        EXPECT_EQ(r.err, "");
        return r.out;
      };
      stats.str(simulate({"--stats"}));
      tbl.str(simulate({"--until", "5000", "--tbl"}));
      trace.str(simulate({"--until", "2000", "--trace", trace_path}));
      trace.str(read_bytes(trace_path));
      keep.str(simulate(
          {"--until", "2000", "--trace", trace_path, "--keep", "Bus_busy,Decode", "--stats"}));
      keep.str(read_bytes(trace_path));
    }
    EXPECT_EQ(stats.value(), pin.stats) << pin.model << " --stats";
    EXPECT_EQ(tbl.value(), pin.tbl) << pin.model << " --tbl";
    EXPECT_EQ(trace.value(), pin.trace) << pin.model << " --trace";
    EXPECT_EQ(keep.value(), pin.keep) << pin.model << " --trace --keep";
  }
}

TEST_F(CliTest, SimulateEdgeCasesArePinned) {
  // --until 0: the initial instant only.
  const Result zero = run_cli({"simulate", model_path_, "--until", "0", "--seed", "5"});
  EXPECT_EQ(zero.code, 0) << zero.err;
  EXPECT_EQ(hash_text(zero.out), 15286328746634276109u) << zero.out;

  // A net that deadlocks part-way: the report says so and the statistics
  // integrate over the full window.
  const std::string dead_path = (dir_ / "dead.pn").string();
  std::ofstream(dead_path) << "net dead\n"
                              "place p init 2\n"
                              "place q\n"
                              "trans t in p out q firing 3\n";
  const Result dead = run_cli({"simulate", dead_path, "--until", "50"});
  EXPECT_EQ(dead.code, 0) << dead.err;
  EXPECT_NE(dead.out.find("simulated to t=50 (seed 1, deadlocked)"), std::string::npos)
      << dead.out;
  EXPECT_EQ(hash_text(dead.out), 5499384117632456075u) << dead.out;

  // A zero-delay livelock is an engine error with its budget in the text.
  const std::string loop_path = (dir_ / "loop.pn").string();
  std::ofstream(loop_path) << "net loop\nplace p init 1\ntrans t in p out p\n";
  const Result loop = run_cli({"simulate", loop_path, "--until", "10"});
  EXPECT_EQ(loop.code, 2);
  EXPECT_EQ(loop.out, "");
  EXPECT_EQ(loop.err,
            "pnut simulate: Simulator: more than 1000000 firings at time 0.000000 "
            "— the net has a zero-delay livelock\n");

  // A builtin arity mistake raises the evaluator's text once its hook runs.
  const std::string arity_path = (dir_ / "arity.pn").string();
  std::ofstream(arity_path) << "net eager\n"
                               "place p init 1\n"
                               "trans broken in p out p when \"min(1) > 0\" firing 1\n";
  const std::string arity_trace = (dir_ / "arity.trace").string();
  const Result arity =
      run_cli({"simulate", arity_path, "--until", "10", "--trace", arity_trace});
  EXPECT_EQ(arity.code, 2);
  EXPECT_EQ(arity.out, "");
  EXPECT_EQ(arity.err, "pnut simulate: min expects 2 arguments, got 1\n");
  // The failed run's trace keeps what was written before the hook raised:
  // the header, and no end line. (A run failing at the initial instant left
  // an empty file while simulate built a scalar Simulator, which evaluated
  // the initial instant before its sink was attached.)
  EXPECT_EQ(read_bytes(arity_trace),
            "pnut-trace 1\nnet eager\nplace 0 p 1\ntransition 0 broken\nstart 0\n");

  // --timeout 0: the trace file gets its header (and the initial instant's
  // starts) before the first stop poll fails the command with exit code 1.
  const std::string timeout_trace = (dir_ / "timeout.trace").string();
  const std::string model = std::string(PNUT_MODELS_DIR) + "/pipeline_nocache.pn";
  const Result timeout = run_cli(
      {"simulate", model, "--timeout", "0", "--trace", timeout_trace, "--stats"});
  EXPECT_EQ(timeout.code, 1);
  EXPECT_EQ(timeout.out, "");
  EXPECT_EQ(timeout.err, "pnut simulate: deadline exceeded\n");
  const std::string partial = read_bytes(timeout_trace);
  EXPECT_EQ(partial.rfind("pnut-trace 1\n", 0), 0u) << partial;
  EXPECT_EQ(partial.find("\nend "), std::string::npos) << partial;
  EXPECT_EQ(hash_text(partial), 13344765137949136868u) << partial;

  // The lane polls the stop token before each event, so a run with no event
  // inside its window never polls and completes, as replicate's lanes do.
  const Result idle = run_cli({"simulate", model_path_, "--until", "0", "--timeout", "0"});
  EXPECT_EQ(idle.code, 0) << idle.err;
  EXPECT_EQ(idle.out.rfind("simulated to t=0 (seed 1, time limit)\n", 0), 0u) << idle.out;
}


// --- render golden pins ------------------------------------------------------
//
// FNV fingerprints of render's stdout on traces of the shipped models and of
// Figure 4's interpreted pipeline, with place, transition, variable and
// function signals, plus the exact exit codes and error texts of failing
// function signals. Recorded while function signals ran on the AST
// tree-walking evaluator; they hold unchanged on the bytecode VM.

TEST_F(CliTest, RenderOutputIsPinnedOnTheShippedModels) {
  struct Pin {
    const char* model;
    std::uint64_t render;
  };
  constexpr Pin kPins[] = {
      {"pipeline_nocache.pn", 25004546811527652u},
      {"ext_cache_icache.pn", 14993635012033710137u},
      {"ext_cache_dcache.pn", 17164213573384318899u},
      {"ext_cache_unified.pn", 2318189118377221372u},
  };
  const std::string trace_path = (dir_ / "pin.trace").string();
  for (const Pin& pin : kPins) {
    const std::string model = std::string(PNUT_MODELS_DIR) + "/" + pin.model;
    const Result sim = run_cli({"simulate", model, "--until", "400", "--seed", "11",
                                "--trace", trace_path});
    ASSERT_EQ(sim.code, 0) << pin.model << ": " << sim.err;
    test_support::Fingerprint f;
    for (const char* signals :
         {"Bus_busy,Decode,memory_cycles",
          "load=Bus_busy+Decode*2+memory_cycles,ratio=Empty_I_buffers*7/3%4",
          "cmp=(Bus_busy>0)&&(memory_cycles==5),skip=(Bus_busy<0)&&nope",
          "any=(Full_I_buffers>=0)||(1/0),neg=abs(0-Empty_I_buffers)-!Bus_busy"}) {
      const Result r = run_cli({"render", trace_path, "--signals", signals, "--columns", "60"});
      EXPECT_EQ(r.code, 0) << pin.model << " " << signals << ": " << r.err;
      EXPECT_EQ(r.err, "");
      f.str(r.out);
    }
    EXPECT_EQ(f.value(), pin.render) << pin.model;
  }
}

TEST_F(CliTest, RenderOutputIsPinnedOnTheInterpretedPipeline) {
  // Figure 4's table-driven processor: its variables change every decode.
  const std::string trace_path = (dir_ / "fig4.trace").string();
  {
    std::ofstream out(trace_path);
    TextTraceWriter writer(out);
    Simulator sim(pipeline::build_interpreted_pipeline());
    sim.set_sink(&writer);
    sim.reset(1988);
    sim.run_until(300);
    sim.finish();
  }
  test_support::Fingerprint f;
  for (const char* signals :
       {"Bus_busy,Decode,type,number_of_operands_needed",
        "work=number_of_operands_needed*10+type+fetching,"
        "slow=(exec_cycles_current>1)&&(store_needed==0)"}) {
    const Result r = run_cli({"render", trace_path, "--signals", signals, "--unicode"});
    EXPECT_EQ(r.code, 0) << signals << ": " << r.err;
    EXPECT_EQ(r.err, "");
    f.str(r.out);
  }
  EXPECT_EQ(f.value(), 4468229169599175501u);

  // Tables are not trace signals: a table call is an unknown function.
  const Result table = run_cli({"render", trace_path, "--signals", "f=operands[1]"});
  EXPECT_EQ(table.code, 2);
  EXPECT_EQ(table.out, "");
  EXPECT_EQ(table.err,
            "pnut render: unknown function or table 'operands' with 1 argument(s)\n");
}

TEST_F(CliTest, RenderSignalErrorsArePinned) {
  const std::string trace_path = make_trace_file();
  struct Case {
    const char* signals;
    int code;
    const char* err;
  };
  const Case kCases[] = {
      {"f=nope+1", 2, "pnut render: unknown identifier 'nope'\n"},
      {"f=x[0]", 2, "pnut render: unknown function or table 'x' with 1 argument(s)\n"},
      {"f=min(1)", 2, "pnut render: min expects 2 arguments, got 1\n"},
      // --signals splits only at top-level commas, so a two-argument call
      // reaches the VM, which rejects irand as it does in a predicate.
      {"f=irand(1,2)", 2,
       "pnut render: irand is not allowed here (no random source; predicates must be "
       "deterministic)\n"},
      {"f=1/0", 2, "pnut render: division by zero\n"},
      {"f=(0-9223372036854775807-1)/(0-1)", 2, "pnut render: division overflow\n"},
      {"f=(0-9223372036854775807-1)%(0-1)", 2, "pnut render: modulo overflow\n"},
  };
  for (const Case& c : kCases) {
    const Result r = run_cli({"render", trace_path, "--signals", c.signals});
    EXPECT_EQ(r.code, c.code) << c.signals;
    EXPECT_EQ(r.out, "") << c.signals;
    EXPECT_EQ(r.err, c.err) << c.signals;
  }

  // A variable an action creates is absent in the states before it runs: a
  // function signal over it fails at the first such state, a bare probe
  // rejects it by name.
  const std::string late_model = (dir_ / "late.pn").string();
  std::ofstream(late_model) << "net late\n"
                               "place p init 1\n"
                               "trans t in p out p firing 3 do \"late = late_seed + 1\"\n"
                               "param late_seed 4\n";
  const std::string late_trace = (dir_ / "late.trace").string();
  ASSERT_EQ(run_cli({"simulate", late_model, "--until", "20", "--trace", late_trace}).code, 0);
  for (const Case& c : {Case{"f=late*2", 2, "pnut render: unknown identifier 'late'\n"},
                        Case{"late", 2, "pnut render: Tracer: no data variable named 'late'\n"}}) {
    const Result r = run_cli({"render", late_trace, "--signals", c.signals});
    EXPECT_EQ(r.code, c.code) << c.signals;
    EXPECT_EQ(r.out, "") << c.signals;
    EXPECT_EQ(r.err, c.err) << c.signals;
  }
  // Behind a false && the absent variable is never read.
  const Result guarded = run_cli({"render", late_trace, "--signals", "f=(p<0)&&late"});
  EXPECT_EQ(guarded.code, 0) << guarded.err;
  EXPECT_EQ(hash_text(guarded.out), 526673238108124967u) << guarded.out;
}

TEST_F(CliTest, QueryAndRenderOnAScalarCreatedMidTrace) {
  // `made` does not exist until t's first Start event (state #1) assigns it:
  // a query or probe of an earlier state finds no such variable, a later
  // one reads it.
  const std::string model = (dir_ / "made.pn").string();
  std::ofstream(model) << "net made\n"
                          "place p init 1\n"
                          "place q\n"
                          "trans t in p out q firing 2 do \"made = seed * 3\"\n"
                          "trans u in q out p\n"
                          "param seed 5\n";
  const std::string trace = (dir_ / "made.trace").string();
  ASSERT_EQ(run_cli({"simulate", model, "--until", "10", "--trace", trace}).code, 0);
  struct Case {
    std::vector<std::string> args;
    int code;
    const char* out;
    const char* err;
  };
  const char* kAbsent =
      "pnut query: query evaluation: 'made' is not a place, transition or data variable\n";
  const Case kCases[] = {
      {{"query", trace, "made(#0)"}, 2, "", kAbsent},
      {{"query", trace, "forall s in S [ made(s) = 15 ]"}, 2, "", kAbsent},
      {{"query", trace, "made(#3)"}, 0, "holds over 17 trace states (formula evaluates true)\n",
       ""},
      {{"query", trace, "made(#3) = seed(#0) * 3"}, 0,
       "holds over 17 trace states (formula evaluates true)\n", ""},
      {{"render", trace, "--signals", "made"}, 2, "",
       "pnut render: Tracer: no data variable named 'made'\n"},
      {{"render", trace, "--signals", "m=made"}, 2, "", "pnut render: unknown identifier 'made'\n"},
  };
  for (const Case& c : kCases) {
    const Result r = run_cli(c.args);
    EXPECT_EQ(r.code, c.code) << c.args.back();
    EXPECT_EQ(r.out, c.out) << c.args.back();
    EXPECT_EQ(r.err, c.err) << c.args.back();
  }
}


// --- strict numbers in .pn documents and traces -----------------------------
//
// Every integer field is read whole and range-checked against the type it
// lands in: a token count or arc weight past UINT32_MAX (or negative) and a
// frequency that is not a finite positive number are line diagnostics with
// exit code 2, never a silently wrapped value.

TEST_F(CliTest, PnNumbersOutOfRangeAreLineDiagnostics) {
  struct Case {
    const char* body;
    const char* err;
  };
  const Case kCases[] = {
      {"place a init -1\n",
       "pnut validate: .pn format, line 2: expected integer initial token count in "
       "[0, 4294967295], got '-1'\n"},
      {"place a init 5000000000\n",
       "pnut validate: .pn format, line 2: expected integer initial token count in "
       "[0, 4294967295], got '5000000000'\n"},
      {"place a capacity 4294967296\n",
       "pnut validate: .pn format, line 2: expected integer capacity in "
       "[0, 4294967295], got '4294967296'\n"},
      {"place a init 1\ntrans t in a*4294967297 out a\n",
       "pnut validate: .pn format, line 3: bad arc weight in 'a*4294967297' (expected an "
       "integer in [0, 4294967295])\n"},
      {"place a init 1\ntrans t in a*-1 out a\n",
       "pnut validate: .pn format, line 3: bad arc weight in 'a*-1' (expected an integer "
       "in [0, 4294967295])\n"},
      {"place a init 1\ntrans t in a out a freq nan\n",
       "pnut validate: .pn format, line 3: expected a finite positive frequency, got "
       "'nan'\n"},
      {"place a init 1\ntrans t in a out a freq inf\n",
       "pnut validate: .pn format, line 3: expected a finite positive frequency, got "
       "'inf'\n"},
      {"place a init 1\ntrans t in a out a freq 0\n",
       "pnut validate: .pn format, line 3: expected a finite positive frequency, got "
       "'0'\n"},
  };
  const std::string path = (dir_ / "numbers.pn").string();
  for (const Case& c : kCases) {
    std::ofstream(path) << "net numbers\n" << c.body;
    const Result r = run_cli({"validate", path});
    EXPECT_EQ(r.code, 2) << c.body;
    EXPECT_EQ(r.out, "") << c.body;
    EXPECT_EQ(r.err, c.err) << c.body;
  }
}

TEST_F(CliTest, PnNumbersAtTheTokenCountEdgeAreAccepted) {
  const std::string path = (dir_ / "edge.pn").string();
  std::ofstream(path) << "net edge\n"
                         "place a init 4294967295\n"
                         "place b capacity 4294967295\n"
                         "trans t in a*4294967295 out b*4294967295 freq 0.5\n";
  const Result valid = run_cli({"validate", path});
  EXPECT_EQ(valid.code, 0) << valid.err;
  EXPECT_EQ(valid.out, "ok: 2 places, 1 transitions\n");
  const Result printed = run_cli({"print", path});
  EXPECT_EQ(printed.code, 0) << printed.err;
  EXPECT_NE(printed.out.find("place a init 4294967295"), std::string::npos) << printed.out;
  EXPECT_NE(printed.out.find("capacity 4294967295"), std::string::npos) << printed.out;
  EXPECT_NE(printed.out.find("in a*4294967295"), std::string::npos) << printed.out;
  EXPECT_NE(printed.out.find("out b*4294967295"), std::string::npos) << printed.out;
}

TEST_F(CliTest, PnDelaysAreReadStrictly) {
  // A constant delay and both halves of a discrete value:weight are read
  // whole as finite non-negative numbers, and uniform bounds are checked
  // where they are written: each bad one is a line diagnostic, exit code 2.
  struct Case {
    const char* delay;
    const char* err;
  };
  const Case kCases[] = {
      {"firing nan", "pnut validate: .pn format, line 3: bad delay 'nan'\n"},
      {"firing inf", "pnut validate: .pn format, line 3: bad delay 'inf'\n"},
      {"firing +5", "pnut validate: .pn format, line 3: bad delay '+5'\n"},
      {"firing discrete 1x:2 3:1",
       "pnut validate: .pn format, line 3: bad discrete delay entry '1x:2' (expected "
       "value:weight, both finite and non-negative)\n"},
      {"firing discrete 1:nan 3:1",
       "pnut validate: .pn format, line 3: bad discrete delay entry '1:nan' (expected "
       "value:weight, both finite and non-negative)\n"},
      {"firing discrete 1:-1 3:1",
       "pnut validate: .pn format, line 3: bad discrete delay entry '1:-1' (expected "
       "value:weight, both finite and non-negative)\n"},
      {"firing discrete 1:0 3:0",
       "pnut validate: .pn format, line 3: discrete delay weights sum to zero\n"},
      {"enabling uniform 5 2",
       "pnut validate: .pn format, line 3: uniform delay bounds must satisfy 0 <= lo <= hi, "
       "got 5 2\n"},
      {"enabling uniform -1 2",
       "pnut validate: .pn format, line 3: uniform delay bounds must satisfy 0 <= lo <= hi, "
       "got -1 2\n"},
  };
  const std::string path = (dir_ / "delays.pn").string();
  for (const Case& c : kCases) {
    std::ofstream(path) << "net delays\nplace a init 1\ntrans t in a out a " << c.delay
                        << '\n';
    const Result r = run_cli({"validate", path});
    EXPECT_EQ(r.code, 2) << c.delay;
    EXPECT_EQ(r.out, "") << c.delay;
    EXPECT_EQ(r.err, c.err) << c.delay;
  }
  // Well-formed delays in every spelling still load and print back.
  std::ofstream(path) << "net delays\nplace a init 1\n"
                         "trans t in a out a firing discrete 1.5:2 3e0:1 enabling uniform 2 2\n"
                         "trans u in a out a firing 2.5e1\n";
  const Result valid = run_cli({"print", path});
  EXPECT_EQ(valid.code, 0) << valid.err;
  EXPECT_NE(valid.out.find("discrete 1.5:2 3:1"), std::string::npos) << valid.out;
  EXPECT_NE(valid.out.find("firing 25"), std::string::npos) << valid.out;
}

TEST_F(CliTest, TraceNumbersOutOfRangeAreLineDiagnostics) {
  const std::string trace_path = make_trace_file();
  std::string text;
  {
    std::ifstream in(trace_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  // Line 11 is the trace's first event line, "A 0 0 0 p0:1 p2:1 q1:1".
  const std::string first_event = "A 0 0 0 p0:1 p2:1 q1:1\n";
  ASSERT_NE(text.find("start 0\n" + first_event), std::string::npos) << text;
  struct Case {
    const char* field;
    const char* err;
  };
  const Case kCases[] = {
      {"p0:5000000000",
       "pnut stat: trace text, line 11: bad token count in 'p0:5000000000' (expected an "
       "integer in [0, 4294967295])\n"},
      {"q1:-1",
       "pnut stat: trace text, line 11: bad token count in 'q1:-1' (expected an integer "
       "in [0, 4294967295])\n"},
      {"p99999999999:1",
       "pnut stat: trace text, line 11: bad place index in 'p99999999999:1'\n"},
      {"p4:1", "pnut stat: trace text, line 11: token delta references unknown place index 4\n"},
      {"v:x=9223372036854775808",
       "pnut stat: trace text, line 11: malformed var update 'v:x=9223372036854775808'\n"},
      {"t:x[1x]=2", "pnut stat: trace text, line 11: malformed table update 't:x[1x]=2'\n"},
  };
  const std::string bad_path = (dir_ / "bad.trace").string();
  for (const Case& c : kCases) {
    std::string broken = text;
    broken.replace(broken.find(first_event), first_event.size(),
                   std::string("A 0 0 0 ") + c.field + " p2:1 q1:1\n");
    std::ofstream(bad_path) << broken;
    const Result r = run_cli({"stat", bad_path});
    EXPECT_EQ(r.code, 2) << c.field;
    EXPECT_EQ(r.out, "") << c.field;
    EXPECT_EQ(r.err, c.err) << c.field;
  }
}

TEST_F(CliTest, TraceHeaderAndEventNumbersAreReadStrictly) {
  // Indices, times, ids, var and table values are read whole and
  // range-checked: a negative index is no longer wrapped to a huge one.
  const std::string trace_path = make_trace_file();
  std::string text;
  {
    std::ifstream in(trace_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  struct Case {
    const char* from;
    const char* to;
    const char* err;
  };
  const Case kCases[] = {
      {"A 0 0 0 p0:1", "A 0 -1 0 p0:1",
       "pnut stat: trace text, line 11: bad transition index '-1'\n"},
      {"A 0 0 0 p0:1", "A 0 4294967296 0 p0:1",
       "pnut stat: trace text, line 11: bad transition index '4294967296'\n"},
      {"A 0 0 0 p0:1", "A nan 0 0 p0:1", "pnut stat: trace text, line 11: bad event time 'nan'\n"},
      {"A 0 0 0 p0:1", "A 0 0 -1 p0:1", "pnut stat: trace text, line 11: bad firing id '-1'\n"},
      {"place 0 Bus_free 1\n", "place -1 Bus_free 1\n",
       "pnut stat: trace text, line 3: bad place index '-1'\n"},
      {"transition 0 start\n", "transition -1 start\n",
       "pnut stat: trace text, line 7: bad transition index '-1'\n"},
      {"start 0\n", "var x 9223372036854775808\nstart 0\n",
       "pnut stat: trace text, line 10: bad var value '9223372036854775808'\n"},
      {"start 0\n", "table T 99999999999999999999 1\nstart 0\n",
       "pnut stat: trace text, line 10: bad table size '99999999999999999999'\n"},
      {"start 0\n", "table T 2 1 -9223372036854775809\nstart 0\n",
       "pnut stat: trace text, line 10: bad table value '-9223372036854775809'\n"},
      {"start 0\n", "start nan\n", "pnut stat: trace text, line 10: bad start time 'nan'\n"},
  };
  const std::string bad_path = (dir_ / "bad.trace").string();
  for (const Case& c : kCases) {
    std::string broken = text;
    const auto at = broken.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    broken.replace(at, std::string(c.from).size(), c.to);
    std::ofstream(bad_path) << broken;
    const Result r = run_cli({"stat", bad_path});
    EXPECT_EQ(r.code, 2) << c.to;
    EXPECT_EQ(r.out, "") << c.to;
    EXPECT_EQ(r.err, c.err) << c.to;
  }
  // The end line is the file's last.
  const auto end_at = text.rfind("\nend ") + 1;
  const auto end_line = std::count(text.begin(), text.begin() + end_at, '\n') + 1;
  std::ofstream(bad_path) << text.substr(0, end_at) << "end -inf\n";
  const Result r = run_cli({"stat", bad_path});
  EXPECT_EQ(r.code, 2);
  EXPECT_EQ(r.err, "pnut stat: trace text, line " + std::to_string(end_line) +
                       ": bad end time '-inf'\n");
}

TEST_F(CliTest, InconsistentTracesAreRejectedByEveryTraceCommand) {
  // The loader replays every event through a TraceCursor, so stat, which
  // steps no cursor of its own, rejects the same traces as animate, render
  // and query, with the same line-numbered text and exit code 2.
  const std::string trace_path = make_trace_file();
  std::string text;
  {
    std::ifstream in(trace_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  // Line 11, the first event, fires `start` (transition 0) on Bus_free
  // (place 0), which holds 1 token.
  const std::string first_event = "A 0 0 0 p0:1 p2:1 q1:1\n";
  ASSERT_NE(text.find("start 0\n" + first_event), std::string::npos) << text;
  struct Case {
    const char* event;
    const char* err;
  };
  const Case kCases[] = {
      {"A 0 0 0 p0:7 p2:1 q1:1\n",
       "trace text, line 11: Marking::remove: removing 7 tokens from place 0 which holds "
       "only 1\n"},
      {"E 0 1 0 q0:1\n",
       "trace text, line 11: TraceCursor: End event for transition 'finish' with no firing "
       "in flight\n"},
      {"A 0 0 0 q0:4294967295\n",
       "trace text, line 11: Marking::add: token count overflow on place 0\n"},
      // A Start's consumption counts too, and an End may close it.
      {"S 0 0 0 p0:2\n",
       "trace text, line 11: Marking::remove: removing 2 tokens from place 0 which holds "
       "only 1\n"},
      // Data updates replay too: the net has no tables.
      {"A 0 0 0 p0:1 p2:1 q1:1 t:nosuch[0]=1\n",
       "trace text, line 11: DataContext: unknown table 'nosuch'\n"},
      // Line 12's event is at t=5.
      {"A 9 0 0 p0:1 p2:1 q1:1\n",
       "trace text, line 12: RecordedTrace: events out of time order\n"},
  };
  const std::string bad_path = (dir_ / "bad.trace").string();
  for (const Case& c : kCases) {
    std::string broken = text;
    broken.replace(broken.find(first_event), first_event.size(), c.event);
    std::ofstream(bad_path) << broken;
    const std::vector<std::vector<std::string>> commands = {
        {"stat", bad_path},
        {"animate", bad_path},
        {"render", bad_path, "--signals", "Bus_busy"},
        {"query", bad_path, "forall s in S [ Bus_busy(s) <= 1 ]"},
    };
    for (const auto& argv : commands) {
      const Result r = run_cli(argv);
      EXPECT_EQ(r.code, 2) << argv[0] << ' ' << c.event;
      EXPECT_EQ(r.out, "") << argv[0] << ' ' << c.event;
      EXPECT_EQ(r.err, "pnut " + argv[0] + ": " + c.err) << c.event;
    }
  }
  // The end time may not precede the last event (t=200).
  {
    const auto end_at = text.rfind("\nend ") + 1;
    const auto end_line = std::count(text.begin(), text.begin() + end_at, '\n') + 1;
    std::ofstream(bad_path) << text.substr(0, end_at) << "end 3\n";
    for (const char* command : {"stat", "animate"}) {
      const Result r = run_cli({command, bad_path});
      EXPECT_EQ(r.code, 2) << command;
      EXPECT_EQ(r.err, std::string("pnut ") + command + ": trace text, line " +
                           std::to_string(end_line) +
                           ": end time is earlier than the last event or the start time\n");
    }
  }
  // A Start then its End replays cleanly.
  std::string paired = text;
  paired.replace(paired.find(first_event), first_event.size(),
                 "S 0 0 0 p0:1 p2:1\nE 0 0 0 q1:1\n");
  std::ofstream(bad_path) << paired;
  const Result ok = run_cli({"stat", bad_path});
  EXPECT_EQ(ok.code, 0) << ok.err;
}

TEST_F(CliTest, RenderSignalsSplitOnlyAtTopLevelCommas) {
  // A function signal may call a two-argument builtin: the comma inside
  // min(...) belongs to the expression, not to the signal list.
  const std::string trace_path = make_trace_file();
  const auto render = [&](const char* signals) {
    const Result r = run_cli(
        {"render", trace_path, "--signals", signals, "--columns", "40", "--to", "40"});
    EXPECT_EQ(r.code, 0) << signals << ": " << r.err;
    EXPECT_EQ(r.err, "") << signals;
    return r.out;
  };
  const std::string out =
      render("Jobs,x=min(Bus_busy,Jobs),y=max(Jobs,Done)+min(Jobs,Bus_busy)");
  // The same waveforms as the comma-free spellings of min and max.
  EXPECT_EQ(out, render("Jobs,x=(Bus_busy<Jobs)*Bus_busy+(Bus_busy>=Jobs)*Jobs,"
                        "y=(Jobs>=Done)*Jobs+(Jobs<Done)*Done+(Jobs<Bus_busy)*Jobs+"
                        "(Jobs>=Bus_busy)*Bus_busy"));
  EXPECT_EQ(hash_text(out), 3330900515685161878u) << out;
}

}  // namespace
}  // namespace pnut::cli
