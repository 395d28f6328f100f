// Unit tests for expression evaluation, action execution and the compile_*
// bridges into petri predicates/actions/delays, run on the tree-walking
// oracle (tests/support/ast_eval.h) that expr_vm_test pins the VM to.
#include <gtest/gtest.h>

#include "expr/ast.h"
#include "expr/compile.h"
#include "expr/parser.h"
#include "support/ast_eval.h"

namespace pnut::expr {
namespace {

using test_support::ast_eval;
using test_support::ast_execute;
using test_support::AstEnv;

std::int64_t eval_with(std::string_view src, const DataContext& data, Rng* rng = nullptr) {
  AstEnv env;
  env.data = &data;
  env.rng = rng;
  return ast_eval(*parse_expression(src), env);
}

std::int64_t eval(std::string_view src) {
  const DataContext empty;
  return eval_with(src, empty);
}

TEST(Eval, Arithmetic) {
  EXPECT_EQ(eval("1 + 2 * 3"), 7);
  EXPECT_EQ(eval("(1 + 2) * 3"), 9);
  EXPECT_EQ(eval("10 - 3 - 2"), 5);
  EXPECT_EQ(eval("7 / 2"), 3);
  EXPECT_EQ(eval("7 % 3"), 1);
  EXPECT_EQ(eval("-5 + 2"), -3);
}

TEST(Eval, Comparisons) {
  EXPECT_EQ(eval("1 < 2"), 1);
  EXPECT_EQ(eval("2 < 1"), 0);
  EXPECT_EQ(eval("2 <= 2"), 1);
  EXPECT_EQ(eval("3 = 3"), 1);
  EXPECT_EQ(eval("3 != 3"), 0);
  EXPECT_EQ(eval("4 >= 5"), 0);
}

TEST(Eval, BooleanLogicAndTruthiness) {
  EXPECT_EQ(eval("1 and 2"), 1);
  EXPECT_EQ(eval("0 or 3"), 1);
  EXPECT_EQ(eval("not 0"), 1);
  EXPECT_EQ(eval("not 7"), 0);
  EXPECT_EQ(eval("1 and 0 or 1"), 1);
}

TEST(Eval, ShortCircuit) {
  // RHS would divide by zero; short-circuit must avoid evaluating it.
  EXPECT_EQ(eval("0 and 1 / 0"), 0);
  EXPECT_EQ(eval("1 or 1 / 0"), 1);
}

TEST(Eval, DivisionByZeroThrows) {
  EXPECT_THROW(eval("1 / 0"), EvalError);
  EXPECT_THROW(eval("1 % 0"), EvalError);
}

TEST(Eval, VariablesFromData) {
  DataContext d;
  d.set("x", 5);
  EXPECT_EQ(eval_with("x * 2", d), 10);
}

TEST(Eval, UnknownIdentifierThrows) {
  EXPECT_THROW(eval("mystery"), EvalError);
}

TEST(Eval, TableLookup) {
  DataContext d;
  d.set_table("operands", {0, 0, 1, 2});
  d.set("type", 3);
  EXPECT_EQ(eval_with("operands[type]", d), 2);
}

TEST(Eval, TableOutOfBoundsThrows) {
  DataContext d;
  d.set_table("t", {1});
  EXPECT_THROW(eval_with("t[5]", d), EvalError);
}

TEST(Eval, Builtins) {
  EXPECT_EQ(eval("min(3, 5)"), 3);
  EXPECT_EQ(eval("max(3, 5)"), 5);
  EXPECT_EQ(eval("abs(-4)"), 4);
  EXPECT_EQ(eval("abs(4)"), 4);
}

TEST(Eval, IrandNeedsRng) {
  DataContext d;
  EXPECT_THROW(eval_with("irand[1, 5]", d), EvalError);
}

TEST(Eval, IrandInRange) {
  DataContext d;
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = eval_with("irand[1, 3]", d, &rng);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 3);
  }
}

TEST(Eval, IrandArityAndRangeChecked) {
  DataContext d;
  Rng rng(1);
  EXPECT_THROW(eval_with("irand[1]", d, &rng), EvalError);
  EXPECT_THROW(eval_with("irand[5, 1]", d, &rng), EvalError);
}

TEST(Program, ExecutesStatementsInOrder) {
  DataContext d;
  d.set("x", 0);
  const Program p = parse_program("x = 3; x = x * x");
  AstEnv env;
  env.data = &d;
  env.mutable_data = &d;
  ast_execute(p, env);
  EXPECT_EQ(d.get("x"), 9);
}

TEST(Program, TableAssignment) {
  DataContext d;
  d.set_table("t", {0, 0, 0});
  d.set("i", 1);
  const Program p = parse_program("t[i + 1] = 7");
  AstEnv env;
  env.data = &d;
  env.mutable_data = &d;
  ast_execute(p, env);
  EXPECT_EQ(d.get_table("t", 2), 7);
}

TEST(Program, RequiresMutableContext) {
  const Program p = parse_program("x = 1");
  DataContext d;
  AstEnv env;
  env.data = &d;
  EXPECT_THROW(ast_execute(p, env), EvalError);
}

// The hooks compile_* returns carry the parsed AST; these helpers evaluate
// it with the tree-walking oracle (the engines run the same ASTs as
// bytecode, pinned equivalent by expr_vm_test).
bool holds(const Predicate& predicate, const DataContext& d) {
  AstEnv env;
  env.data = &d;
  return ast_eval(*predicate.ast, env) != 0;
}

void run(const Action& action, DataContext& d, Rng& rng) {
  AstEnv env;
  env.data = &d;
  env.mutable_data = &d;
  env.rng = &rng;
  ast_execute(*action.program, env);
}

std::int64_t delay_value(const DelaySpec& delay, const DataContext& d) {
  AstEnv env;
  env.data = &d;
  return ast_eval(*delay.computed_delay().ast, env);
}

TEST(Compile, PredicateEvaluatesAgainstData) {
  const Predicate pred = compile_predicate("number-of-operands-needed > 0");
  DataContext d;
  d.set("number-of-operands-needed", 2);
  EXPECT_TRUE(holds(pred, d));
  d.set("number-of-operands-needed", 0);
  EXPECT_FALSE(holds(pred, d));
}

TEST(Compile, PredicateRejectsIrandAtEvalTime) {
  const Predicate pred = compile_predicate("irand[1, 2] = 1");
  DataContext d;
  EXPECT_THROW(holds(pred, d), EvalError);
}

TEST(Compile, ActionPaperFigure4) {
  // The paper's Decode action, with the operand table of Section 2's mix.
  const Action action = compile_action(
      "type = irand[1, max-type];"
      "number-of-operands-needed = operands[type]");
  DataContext d;
  d.set("max-type", 3);
  d.set("type", 0);
  d.set("number-of-operands-needed", 0);
  d.set_table("operands", {0, 0, 1, 2});
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    run(action, d, rng);
    const std::int64_t type = d.get("type");
    ASSERT_GE(type, 1);
    ASSERT_LE(type, 3);
    ASSERT_EQ(d.get("number-of-operands-needed"), d.get_table("operands", type));
  }
}

TEST(Compile, ActionDecrement) {
  const Action action =
      compile_action("number-of-operands-needed = number-of-operands-needed - 1");
  DataContext d;
  d.set("number-of-operands-needed", 2);
  Rng rng(1);
  run(action, d, rng);
  EXPECT_EQ(d.get("number-of-operands-needed"), 1);
  run(action, d, rng);
  EXPECT_EQ(d.get("number-of-operands-needed"), 0);
}

TEST(Compile, DelayEvaluatesPerCall) {
  const DelaySpec delay = compile_delay("exec_cycles[type]");
  DataContext d;
  d.set("type", 1);
  d.set_table("exec_cycles", {0, 10, 20});
  EXPECT_EQ(delay_value(delay, d), 10);
  d.set("type", 2);
  EXPECT_EQ(delay_value(delay, d), 20);
}

TEST(Compile, HooksKeepTheirSource) {
  EXPECT_EQ(compile_predicate("x > 0").source, "x > 0");
  EXPECT_EQ(compile_action("x = x + 1").source, "x = x + 1");
  EXPECT_EQ(compile_delay("0 - 5").computed_delay().source, "0 - 5");
}

TEST(Compile, BadSyntaxThrowsParseError) {
  EXPECT_THROW(compile_predicate("1 +"), ParseError);
  EXPECT_THROW(compile_action("x = "), ParseError);
  EXPECT_THROW(compile_delay(""), ParseError);
}

}  // namespace
}  // namespace pnut::expr
