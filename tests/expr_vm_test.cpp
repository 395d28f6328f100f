// The expression bytecode VM (expr/vm.h + expr/program.h) against its
// oracle, the tree-walking evaluator in tests/support/ast_eval.h: unit pins for the opcode set,
// boundary pins for the integer-overflow error cases (both evaluators),
// builtin arity errors (raised at evaluation time by both, after the
// arguments), and the randomized differential fuzzers pinning values,
// error messages, rng streams, created variables and final data states
// over hundreds of generated expressions and action programs. A last group
// pins the Simulator's traces on the paper's interpreted models to
// fingerprints recorded when its AST/DataContext path still ran beside the
// bytecode one (tests/support/golden_hash.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "expr/ast.h"
#include "expr/compile.h"
#include "expr/parser.h"
#include "expr/program.h"
#include "expr/vm.h"
#include "petri/data_frame.h"
#include "pipeline/interpreted.h"
#include "sim/simulator.h"
#include "support/ast_eval.h"
#include "support/expr_fuzz.h"
#include "support/golden_hash.h"
#include "trace/trace.h"

namespace pnut {
namespace {

using expr::Code;
using expr::EvalError;
using expr::VmScratch;
using test_support::ExprFuzzer;
using test_support::ExprFuzzOptions;

/// Outcome of one evaluation: a value or an error message.
struct Outcome {
  std::optional<std::int64_t> value;
  std::string error;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome eval_ast(const std::string& source, const DataContext& data) {
  try {
    const expr::NodePtr ast = expr::parse_expression(source);
    test_support::AstEnv env;
    env.data = &data;
    return {test_support::ast_eval(*ast, env), ""};
  } catch (const EvalError& e) {
    return {std::nullopt, e.what()};
  }
}

Outcome eval_vm(const std::string& source, const DataContext& data) {
  const expr::NodePtr ast = expr::parse_expression(source);
  const DataSchema schema = DataSchema::build(data, {});
  const DataFrame frame = schema.make_frame(data);
  const Code code = expr::compile_expression(*ast, schema);
  VmScratch scratch;
  try {
    return {expr::vm_eval(code, frame, nullptr, scratch), ""};
  } catch (const EvalError& e) {
    return {std::nullopt, e.what()};
  }
}

DataContext base_data() {
  DataContext data;
  data.set("x", 7);
  data.set("y", -3);
  data.set_table("tbl", {10, 20, 30});
  return data;
}

// --- opcode unit pins ----------------------------------------------------------

TEST(ExprVm, ArithmeticComparisonsAndLogic) {
  const DataContext data = base_data();
  for (const char* source :
       {"1 + 2 * 3", "x - y", "x / 2", "x % 3", "(x > 0) && (y < 0)",
        "(x == 7) || nosuch", "!(x != 7)", "-x + abs(y)", "min[x, y]", "max[x, 0 - y]",
        "tbl[1] + tbl[x - 5]", "x * 100 - tbl[0]"}) {
    const Outcome ast = eval_ast(source, data);
    ASSERT_TRUE(ast.value.has_value()) << source << ": " << ast.error;
    EXPECT_EQ(eval_vm(source, data), ast) << source;
  }
}

TEST(ExprVm, ShortCircuitSkipsRhsErrors) {
  const DataContext data = base_data();
  // The rhs would throw (unknown name / division by zero): && and || must
  // not evaluate it, exactly like the AST walker.
  EXPECT_EQ(eval_vm("(x == 0) && nosuch", data), (Outcome{0, ""}));
  EXPECT_EQ(eval_vm("(x == 7) || (1 / 0)", data), (Outcome{1, ""}));
  // And when the lhs does not decide, the rhs error surfaces.
  EXPECT_FALSE(eval_vm("(x == 7) && nosuch", data).value.has_value());
}

TEST(ExprVm, ErrorMessagesMatchAstEvaluator) {
  const DataContext data = base_data();
  for (const char* source :
       {"nosuch", "x / (y + 3)", "x % (y + 3)", "tbl[99]", "tbl[0 - 1]",
        "phantom(x, y)", "tbl[1, 2]", "irand[1, 2]"}) {
    const Outcome ast = eval_ast(source, data);
    ASSERT_FALSE(ast.value.has_value()) << source;
    EXPECT_EQ(eval_vm(source, data), ast) << source;
  }
}

TEST(ExprVm, ZeroSizeTableDoesNotAliasItsNeighbor) {
  // An empty table shares its base slot with the next table in the
  // schema layout; the compiler must not conflate the two.
  DataContext data;
  data.set_table("aempty", {});
  data.set_table("btbl", {5, 6});
  // The second source compiles aempty's table ref first (behind a
  // short-circuit, so it never evaluates), then reads btbl — a compiler
  // that conflates the two by base slot would fail the read.
  for (const char* source : {"btbl[0] + btbl[1]", "(0 && aempty[0]) || btbl[1]"}) {
    const Outcome ast = eval_ast(source, data);
    ASSERT_TRUE(ast.value.has_value()) << source << ": " << ast.error;
    EXPECT_EQ(eval_vm(source, data), ast) << source;
  }
  EXPECT_EQ(eval_vm("btbl[0]", data).value, 5);
  EXPECT_FALSE(eval_vm("aempty[0]", data).value.has_value());
  EXPECT_EQ(eval_vm("aempty[0]", data), eval_ast("aempty[0]", data));
}

TEST(ExprVm, CreatedVariableAbsentUntilAssigned) {
  DataContext data = base_data();
  const DataSchema schema = DataSchema::build(data, std::vector<std::string>{"late"});
  DataFrame frame = schema.make_frame(data);
  VmScratch scratch;

  const expr::NodePtr read = expr::parse_expression("late");
  const Code read_code = expr::compile_expression(*read, schema);
  EXPECT_THROW((void)expr::vm_eval(read_code, frame, nullptr, scratch), EvalError);

  const expr::Program program = expr::parse_program("late = x * 2");
  const Code write_code = expr::compile_program(program, schema);
  expr::vm_exec(write_code, frame, nullptr, scratch);
  EXPECT_EQ(expr::vm_eval(read_code, frame, nullptr, scratch), 14);

  const DataContext out = schema.to_context(frame);
  EXPECT_TRUE(out.has("late"));
  EXPECT_EQ(out.get("late"), 14);
}

TEST(ExprVm, IrandDrawsTheAstRngStream) {
  DataContext ast_data = base_data();
  const std::string source = "x = irand[1, 6]; y = irand[0, 100]; w = irand[0 - 5, 5]";
  const expr::Program program = expr::parse_program(source);

  Rng ast_rng(42);
  test_support::AstEnv env;
  env.data = &ast_data;
  env.mutable_data = &ast_data;
  env.rng = &ast_rng;
  test_support::ast_execute(program, env);

  const DataContext initial = base_data();
  const DataSchema schema = DataSchema::build(initial, std::vector<std::string>{"w"});
  DataFrame frame = schema.make_frame(initial);
  Rng vm_rng(42);
  VmScratch scratch;
  expr::vm_exec(expr::compile_program(program, schema), frame, &vm_rng, scratch);

  EXPECT_EQ(schema.to_context(frame), ast_data);
  EXPECT_EQ(ast_rng.next_u64(), vm_rng.next_u64());  // streams stayed in step
}

// --- satellite: integer-overflow boundary cases (both evaluators) --------------

TEST(ExprVm, DivisionAndModuloOverflowRaiseEvalError) {
  DataContext data;
  data.set("big", INT64_MIN);
  for (const char* source : {"big / (0 - 1)", "big % (0 - 1)"}) {
    const Outcome ast = eval_ast(source, data);
    ASSERT_FALSE(ast.value.has_value()) << source;
    EXPECT_NE(ast.error.find("overflow"), std::string::npos) << ast.error;
    EXPECT_EQ(eval_vm(source, data), ast) << source;
  }
  // Plain division by the same operands' magnitude still works.
  EXPECT_EQ(eval_vm("big / 2", data).value, INT64_MIN / 2);
}

TEST(ExprVm, WrappingArithmeticMatchesBetweenEvaluators) {
  DataContext data;
  data.set("big", INT64_MAX);
  data.set("small", INT64_MIN);
  for (const char* source :
       {"big + 1", "small - 1", "big * 2", "-small", "abs(small)", "big + big"}) {
    const Outcome ast = eval_ast(source, data);
    ASSERT_TRUE(ast.value.has_value()) << source;  // wraps, never UB-traps
    EXPECT_EQ(eval_vm(source, data), ast) << source;
  }
  EXPECT_EQ(eval_ast("big + 1", data).value, INT64_MIN);
  EXPECT_EQ(eval_ast("-small", data).value, INT64_MIN);  // two's complement wrap
}

// --- satellite: builtin arity -------------------------------------------------

TEST(ExprVm, AstBuiltinArityMistakesRaiseArityErrors) {
  const DataContext data = base_data();
  // Previously min/max/abs with the wrong arity fell through to table
  // lookup and surfaced as "unknown table"; now it is a proper arity error.
  for (const auto& [source, expected] :
       {std::pair{"min[1]", "min expects 2 arguments, got 1"},
        std::pair{"min[1, 2, 3]", "min expects 2 arguments, got 3"},
        std::pair{"max[1]", "max expects 2 arguments, got 1"},
        std::pair{"abs(1, 2)", "abs expects 1 argument, got 2"},
        std::pair{"irand[1]", "irand expects 2 arguments, got 1"}}) {
    const Outcome ast = eval_ast(source, data);
    ASSERT_FALSE(ast.value.has_value()) << source;
    EXPECT_EQ(ast.error, expected) << source;
  }
}

TEST(ExprVm, ArityMistakesCompileToLazyThrows) {
  // The mistake compiles (a throw instruction) and raises the AST's exact
  // error only when evaluated — after its arguments, like the AST; the
  // compiler also reports it through the diagnostic sink.
  const DataContext data = base_data();
  const DataSchema schema = DataSchema::build(data, {});
  for (const char* source :
       {"min[1]", "max[1, 2, 3]", "abs(1, 2)", "irand[1]", "min[1 / 0]",
        "(x == 0) && min[1]"}) {
    EXPECT_EQ(eval_vm(source, data), eval_ast(source, data)) << source;
  }
  const expr::NodePtr ast = expr::parse_expression("x + max[1, 2, 3]");
  std::string diagnostic;
  (void)expr::compile_expression(*ast, schema, &diagnostic);
  EXPECT_EQ(diagnostic, "max expects 2 arguments, got 3");
}

// --- script constructs: fn / let / array / for --------------------------------

/// Created globals: kAssign targets outside the schema without an index,
/// anywhere in the statement tree (loop bodies included). Locals (slot >= 0)
/// never enter the schema.
void collect_created(const std::vector<expr::Statement>& statements,
                     std::vector<std::string>& out) {
  for (const expr::Statement& stmt : statements) {
    if (stmt.kind == expr::Statement::Kind::kAssign && stmt.slot < 0 && !stmt.index) {
      out.push_back(stmt.target);
    }
    collect_created(stmt.body, out);
  }
}

/// Run one program through both evaluators from the same initial data and
/// seed; require identical error text, final data state and rng position.
void expect_program_equivalence(const std::string& source, const DataContext& initial,
                                std::uint64_t seed, const std::string& label) {
  const expr::Program program = expr::parse_program(source);

  DataContext ast_data = initial;
  Rng ast_rng(seed);
  std::string ast_error;
  try {
    test_support::AstEnv env;
    env.data = &ast_data;
    env.mutable_data = &ast_data;
    env.rng = &ast_rng;
    test_support::ast_execute(program, env);
  } catch (const EvalError& e) {
    ast_error = e.what();
  }

  std::vector<std::string> targets;
  collect_created(program.statements, targets);
  const DataSchema schema = DataSchema::build(initial, targets);
  DataFrame frame = schema.make_frame(initial);
  Rng vm_rng(seed);
  VmScratch scratch;
  std::string vm_error;
  try {
    expr::vm_exec(expr::compile_program(program, schema), frame, &vm_rng, scratch);
  } catch (const EvalError& e) {
    vm_error = e.what();
  }

  EXPECT_EQ(vm_error, ast_error) << label << ": " << source;
  EXPECT_EQ(schema.to_context(frame), ast_data) << label << ": " << source;
  EXPECT_EQ(vm_rng.next_u64(), ast_rng.next_u64())
      << label << ": rng streams diverged: " << source;
}

TEST(ExprVmScript, ArityErrorFollowsTheArgumentDraws) {
  // The arguments (and their rng draws) run before the arity error, in
  // both evaluators: same error, same data state, same rng stream after.
  expect_program_equivalence("x = min[irand[1, 6]]", base_data(), 5, "arity");
  expect_program_equivalence("x = irand[1, 6]; y = abs(irand[1, 6], 2)", base_data(), 9,
                             "arity");
}

std::int64_t run_script(const std::string& source, const char* result_name) {
  const DataContext initial = base_data();
  const expr::Program program = expr::parse_program(source);
  std::vector<std::string> targets;
  collect_created(program.statements, targets);
  const DataSchema schema = DataSchema::build(initial, targets);
  DataFrame frame = schema.make_frame(initial);
  Rng rng(99);
  VmScratch scratch;
  expr::vm_exec(expr::compile_program(program, schema), frame, &rng, scratch);
  return schema.to_context(frame).get(result_name);
}

TEST(ExprVmScript, FunctionsLetsArraysAndLoops) {
  // One script using every construct; cross-checked against the AST walker
  // and pinned to the hand-computed value.
  const std::string source =
      "fn double(v) { return v + v; }\n"
      "fn weigh(a, b) { let s = a + b; return double(s) + 1; }\n"
      "let acc = 0;\n"
      "let grid[3];\n"
      "for i = 0 to 2 { grid[i] = weigh(i, x); }\n"
      "for i = 0 to 2 { acc = acc + grid[i]; }\n"
      "out = acc";
  expect_program_equivalence(source, base_data(), 5, "script");
  // x = 7: weigh(i, 7) = 2*(i+7)+1 -> 15, 17, 19; sum 51.
  EXPECT_EQ(run_script(source, "out"), 51);
}

TEST(ExprVmScript, NestedLoopsAndShadowing) {
  // Loop bounds are compile-time literals; nesting and shadowing are not.
  const std::string source =
      "let total = 0;\n"
      "for i = 1 to 3 {\n"
      "  let stride = i * 10;\n"
      "  for j = 1 to 2 { total = total + stride + j; }\n"
      "}\n"
      "out = total";
  expect_program_equivalence(source, base_data(), 5, "nested");
  // Per i: 2 * 10i + (1 + 2); i = 1..3 -> 23 + 43 + 63 = 129.
  EXPECT_EQ(run_script(source, "out"), 129);
}

TEST(ExprVmScript, EmptyRangeLoopBodyNeverRuns) {
  const std::string source = "x = 0; for i = 5 to 2 { x = x + 1; }; out = x";
  expect_program_equivalence(source, base_data(), 5, "empty-range");
  EXPECT_EQ(run_script(source, "out"), 0);
}

TEST(ExprVmScript, LoopAtInt64EdgeDoesNotWrap) {
  // hi == INT64_MAX: a naive `counter > hi` compare would wrap and loop
  // forever; the trip-count encoding runs exactly two iterations.
  const std::string source =
      "let n = 0;\n"
      "for i = 9223372036854775806 to 9223372036854775807 { n = n + 1; }\n"
      "out = n";
  expect_program_equivalence(source, base_data(), 5, "int64-edge");
  EXPECT_EQ(run_script(source, "out"), 2);
}

TEST(ExprVmScript, ArrayOutOfBoundsMessagesMatch) {
  for (const char* source :
       {"let a[2]; x = a[2]", "let a[2]; x = a[0 - 1]", "let a[3]; a[y] = 1"}) {
    expect_program_equivalence(source, base_data(), 5, "array-oob");
  }
  // And the exact wording both evaluators share.
  const expr::Program program = expr::parse_program("let a[2]; x = a[5]");
  const DataContext initial = base_data();
  const DataSchema schema = DataSchema::build(initial, {});
  DataFrame frame = schema.make_frame(initial);
  VmScratch scratch;
  try {
    expr::vm_exec(expr::compile_program(program, schema), frame, nullptr, scratch);
    FAIL() << "expected EvalError";
  } catch (const EvalError& e) {
    EXPECT_STREQ(e.what(), "index 5 out of bounds for array 'a' of extent 2");
  }
}

TEST(ExprVmScript, IrandInLoopKeepsRngStreamsInStep) {
  const std::string source =
      "fn jitter(v) { return v + irand(0, 3); }\n"
      "let sum = 0;\n"
      "for i = 1 to 8 { sum = sum + jitter(i); }\n"
      "out = sum";
  for (std::uint64_t seed : {1ULL, 7ULL, 1988ULL}) {
    expect_program_equivalence(source, base_data(), seed, "loop-rng");
  }
}

TEST(ExprVmScript, FunctionsSeeDataButLocalsStayOutOfIt) {
  // A fn body reads the data scalar x and the table; the script's locals
  // never appear in the resulting data context.
  const std::string source =
      "fn probe(k) { return tbl[k] + x; }\n"
      "let hidden = 41;\n"
      "out = probe(1) + hidden";
  const DataContext initial = base_data();  // x = 7, tbl = {10, 20, 30}
  expect_program_equivalence(source, initial, 5, "fn-data");
  EXPECT_EQ(run_script(source, "out"), 20 + 7 + 41);
  const expr::Program program = expr::parse_program(source);
  std::vector<std::string> targets;
  collect_created(program.statements, targets);
  const DataSchema schema = DataSchema::build(initial, targets);
  EXPECT_FALSE(schema.scalar_slot("hidden").has_value());
  EXPECT_TRUE(schema.scalar_slot("out").has_value());
}

TEST(ExprVmScript, DataSchemaSlotBudgetBoundary) {
  // Exactly at the budget: one scalar plus a table filling the rest lays
  // out every slot.
  {
    DataContext data;
    data.set("s", 1);
    data.set_table("big",
                   std::vector<std::int64_t>(DataSchema::kMaxSlots - 1, 0));
    const DataSchema schema = DataSchema::build(data, {});
    EXPECT_EQ(schema.num_values(), DataSchema::kMaxSlots);
  }
  // One value over: build must throw, naming the table, before any uint32
  // narrowing can wrap a later base. (The scalar-count branch is
  // unreachable in tests — it would need 2^28 named scalars.)
  {
    DataContext data;
    data.set("s", 1);
    data.set_table("big", std::vector<std::int64_t>(DataSchema::kMaxSlots, 0));
    try {
      (void)DataSchema::build(data, {});
      FAIL() << "over-budget schema must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "DataSchema: table 'big' of size 268435456 exceeds the "
                   "slot budget (268435456)");
    }
  }
}

// --- differential fuzz --------------------------------------------------------

TEST(ExprVmFuzz, ExpressionsMatchAstEvaluator) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    ExprFuzzer fuzzer(seed);
    const DataContext data = fuzzer.environment();
    const std::string source = fuzzer.expression();
    EXPECT_EQ(eval_vm(source, data), eval_ast(source, data))
        << "seed " << seed << ": " << source;
  }
}

TEST(ExprVmFuzz, ProgramsMatchAstEvaluator) {
  ExprFuzzOptions options;
  options.allow_irand = true;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    ExprFuzzer fuzzer(seed ^ 0xf00dULL, options);
    const DataContext initial = fuzzer.environment();
    const std::string source = fuzzer.program();
    expect_program_equivalence(source, initial, seed * 977 + 1,
                               "seed " + std::to_string(seed));
  }
}

TEST(ExprVmFuzz, ScriptedProgramsMatchAstEvaluator) {
  ExprFuzzOptions options;
  options.allow_irand = true;
  options.script_constructs = true;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    ExprFuzzer fuzzer(seed ^ 0xbeefULL, options);
    const DataContext initial = fuzzer.environment();
    const std::string source = fuzzer.program();
    expect_program_equivalence(source, initial, seed * 31 + 17,
                               "script seed " + std::to_string(seed));
  }
}

// --- whole-net compilation ----------------------------------------------------

TEST(NetProgram, CompilesTheInterpretedPipeline) {
  const Net net = pipeline::build_interpreted_pipeline();
  const auto program = expr::NetProgram::compile(net);
  ASSERT_NE(program, nullptr);
  // All instruction-set tables and working variables got slots.
  EXPECT_EQ(program->schema().num_scalars(), 6u);
  EXPECT_EQ(program->schema().tables().size(), 4u);
  EXPECT_TRUE(program->schema().scalar_slot("number_of_operands_needed").has_value());
  EXPECT_TRUE(program->schema().table_index("operands").has_value());
  // The computed execute delay compiled too.
  const TransitionId execute = net.transition_named("execute");
  EXPECT_NE(program->firing_delay(execute), nullptr);
}

TEST(NetProgram, BuiltinArityMistakeRaisesOnlyWhenEvaluated) {
  Net net("arity");
  const PlaceId p = net.add_place("p", 1);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.set_predicate(t, expr::compile_predicate("min[1] > 0"));
  // Compiling never fails: the mistake becomes a throw instruction, and the
  // error sink (what `pnut check` prints) names the hook.
  std::string error;
  const auto program = expr::NetProgram::compile(net, &error);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(error, "transition 't' predicate: min expects 2 arguments, got 1");
  VmScratch scratch;
  try {
    (void)expr::vm_eval(*program->predicate(t), program->initial_frame(), nullptr, scratch);
    FAIL() << "the predicate must raise when evaluated";
  } catch (const EvalError& e) {
    EXPECT_STREQ(e.what(), "min expects 2 arguments, got 1");
  }
}

// --- simulator traces, frozen from the AST oracle ------------------------------

RecordedTrace run_trace(const Net& net, Time horizon) {
  Simulator sim(net);
  RecordedTrace trace;
  sim.set_sink(&trace);
  sim.reset(1234);
  sim.run_until(horizon);
  sim.finish();
  return trace;
}

TEST(SimulatorVm, TracesMatchFrozenAstTraces) {
  const RecordedTrace operand_fetch =
      run_trace(pipeline::build_interpreted_operand_fetch(), 5000);
  EXPECT_EQ(operand_fetch.events().size(), 4184u);
  EXPECT_EQ(test_support::hash_trace(operand_fetch), 0x77212ac367abc59eULL);
  const RecordedTrace full = run_trace(pipeline::build_interpreted_pipeline(), 5000);
  EXPECT_EQ(full.events().size(), 6319u);
  EXPECT_EQ(test_support::hash_trace(full), 0xa3219d1f696ff3f7ULL);
}

TEST(SimulatorVm, DataAccessorMaterializesTheFrame) {
  Simulator sim(pipeline::build_interpreted_pipeline());
  sim.reset(7);
  sim.run_until(500);
  EXPECT_EQ(sim.data().to_string(),
            "exec_cycles_current=1 extra_words_needed=0 max_type=3 "
            "number_of_operands_needed=2 store_needed=0 type=3 exec_cycles=[0,1,2,5] "
            "extra_words=[0,0,0,1] operands=[0,0,1,2] store_per_mille=[0,200,200,200]");
  EXPECT_EQ(test_support::hash_data(sim.data()), 0x290f129eb61fe0eaULL);
}

}  // namespace
}  // namespace pnut
