// Unit tests for the expression parser: precedence, associativity, the
// paper's bracket call syntax, statements, and error reporting.
#include "expr/parser.h"

#include <gtest/gtest.h>

#include "expr/lexer.h"

#include <string>
#include <string_view>

namespace pnut::expr {
namespace {

std::string parsed(std::string_view src) { return parse_expression(src)->to_string(); }

TEST(Parser, PrecedenceMulOverAdd) {
  EXPECT_EQ(parsed("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(parsed("(1 + 2) * 3"), "((1 + 2) * 3)");
}

TEST(Parser, LeftAssociativity) {
  EXPECT_EQ(parsed("10 - 3 - 2"), "((10 - 3) - 2)");
  EXPECT_EQ(parsed("24 / 4 / 2"), "((24 / 4) / 2)");
}

TEST(Parser, RelationalBindsLooserThanArithmetic) {
  EXPECT_EQ(parsed("a + 1 > b * 2"), "((a + 1) > (b * 2))");
}

TEST(Parser, SingleEqualsIsEqualityInExpressions) {
  // The paper: Bus_busy(s) + Bus_free(s) = 1.
  EXPECT_EQ(parsed("x + y = 1"), "((x + y) == 1)");
}

TEST(Parser, BooleanPrecedence) {
  EXPECT_EQ(parsed("a > 1 and b < 2 or c = 3"), "(((a > 1) && (b < 2)) || (c == 3))");
}

TEST(Parser, UnaryOperators) {
  EXPECT_EQ(parsed("-x"), "-(x)");
  EXPECT_EQ(parsed("not x"), "!(x)");
  EXPECT_EQ(parsed("- - 3"), "-(-(3))");
}

TEST(Parser, PaperBracketCallSyntax) {
  // irand[1, max-type] — the paper's square-bracket call form.
  EXPECT_EQ(parsed("irand[1, max-type]"), "irand[1, max-type]");
}

TEST(Parser, ParenCallSyntaxNormalizesToBrackets) {
  EXPECT_EQ(parsed("irand(1, 5)"), "irand[1, 5]");
}

TEST(Parser, TableIndexing) {
  EXPECT_EQ(parsed("operands[type]"), "operands[type]");
  EXPECT_EQ(parsed("operands[type + 1]"), "operands[(type + 1)]");
}

TEST(Parser, NullaryCall) {
  EXPECT_EQ(parsed("f()"), "f[]");
}

TEST(Parser, RejectsTrailingGarbage) {
  EXPECT_THROW(parse_expression("1 + 2 extra"), ParseError);
}

TEST(Parser, RejectsMissingOperand) {
  EXPECT_THROW(parse_expression("1 +"), ParseError);
  EXPECT_THROW(parse_expression("* 2"), ParseError);
}

TEST(Parser, RejectsUnbalancedParens) {
  EXPECT_THROW(parse_expression("(1 + 2"), ParseError);
  EXPECT_THROW(parse_expression("f[1, 2"), ParseError);
}

TEST(Parser, ProgramSingleAssignment) {
  const Program p = parse_program("x = 1 + 2");
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0].target, "x");
  EXPECT_EQ(p.statements[0].index, nullptr);
  EXPECT_EQ(p.statements[0].value->to_string(), "(1 + 2)");
}

TEST(Parser, ProgramPaperFigure4Action) {
  const Program p = parse_program(
      "type = irand[1, max-type];\n"
      "number-of-operands-needed = operands[type];");
  ASSERT_EQ(p.statements.size(), 2u);
  EXPECT_EQ(p.statements[0].target, "type");
  EXPECT_EQ(p.statements[1].target, "number-of-operands-needed");
}

TEST(Parser, ProgramTableAssignment) {
  const Program p = parse_program("t[i + 1] = 9");
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0].target, "t");
  ASSERT_NE(p.statements[0].index, nullptr);
  EXPECT_EQ(p.statements[0].index->to_string(), "(i + 1)");
}

TEST(Parser, ProgramTrailingSemicolonOptional) {
  EXPECT_EQ(parse_program("x = 1").statements.size(), 1u);
  EXPECT_EQ(parse_program("x = 1;").statements.size(), 1u);
  EXPECT_EQ(parse_program("x = 1; y = 2").statements.size(), 2u);
}

TEST(Parser, ProgramEmptyIsValid) {
  EXPECT_TRUE(parse_program("").statements.empty());
}

TEST(Parser, ProgramRejectsExpressionStatement) {
  EXPECT_THROW(parse_program("1 + 2"), ParseError);
}

TEST(Parser, ProgramRejectsDoubleEquals) {
  // `x == 1` is a comparison, not an assignment.
  EXPECT_THROW(parse_program("x == 1"), ParseError);
}

TEST(Parser, ProgramToStringRoundTrips) {
  const Program p = parse_program("a = 1; t[2] = b + 1");
  const Program p2 = parse_program(p.to_string());
  EXPECT_EQ(p2.to_string(), p.to_string());
}

TEST(Parser, ExpressionToStringRoundTrips) {
  for (const char* src : {"1 + 2 * 3", "irand[1, 5] > 2 and x = 1", "operands[type] - 1",
                          "not (a or b)", "max(a, b) + min(1, 2)"}) {
    const std::string once = parse_expression(src)->to_string();
    const std::string twice = parse_expression(once)->to_string();
    EXPECT_EQ(once, twice) << "source: " << src;
  }
}

// --- script constructs: let / arrays / for / fn -------------------------------

/// Parse `source` expecting failure; returns "line:col: message" so tests
/// pin the position along with the text.
std::string failure(std::string_view source) {
  try {
    (void)parse_program(source);
    return "<parsed>";
  } catch (const ParseError& e) {
    return std::to_string(e.line()) + ":" + std::to_string(e.col()) + ": " + e.what();
  }
}

TEST(Parser, LetBindingGetsFrameSlot) {
  const Program p = parse_program("let a = 1; let b = a + 1; x = b");
  ASSERT_EQ(p.statements.size(), 3u);
  EXPECT_EQ(p.statements[0].kind, Statement::Kind::kLet);
  EXPECT_EQ(p.statements[0].slot, 0);
  EXPECT_EQ(p.statements[1].slot, 1);
  EXPECT_EQ(p.statements[2].kind, Statement::Kind::kAssign);
  EXPECT_EQ(p.statements[2].slot, -1);  // x is data, not a local
  EXPECT_EQ(p.frame_slots, 2u);
}

TEST(Parser, LetInitializerSeesTheOuterName) {
  // In `let x = x + 1` the right-hand x is the data context's x: the
  // binding only becomes visible after its initializer.
  const Program p = parse_program("let x = x + 1; y = x");
  EXPECT_EQ(p.statements[0].value->to_string(), "(x + 1)");
  EXPECT_EQ(p.statements[0].slot, 0);
}

TEST(Parser, LetArrayDeclaration) {
  const Program p = parse_program("let a[4]; a[2] = 9; x = a[0]");
  ASSERT_EQ(p.statements.size(), 3u);
  EXPECT_EQ(p.statements[0].kind, Statement::Kind::kLetArray);
  EXPECT_EQ(p.statements[0].extent, 4);
  EXPECT_EQ(p.statements[1].slot, 0);
  EXPECT_EQ(p.statements[1].extent, 4);
  EXPECT_EQ(p.frame_slots, 4u);
}

TEST(Parser, ArrayMisuseIsAParseError) {
  EXPECT_EQ(failure("let a[2]; x = a"),
            "1:15: array 'a' cannot be read without an index");
  EXPECT_EQ(failure("let a[2]; a = 1"),
            "1:11: array 'a' cannot be assigned without an index");
  EXPECT_EQ(failure("let a[2]; x = a[0, 1]"),
            "1:15: array 'a' expects 1 index, got 2");
  EXPECT_EQ(failure("let s = 1; x = s[0]"),
            "1:16: local 's' is not an array or function");
  EXPECT_EQ(failure("let s = 1; s[0] = 2"), "1:12: local 's' is not an array");
}

TEST(Parser, DuplicateLocalInScopeRejectedButShadowingAllowed) {
  EXPECT_EQ(failure("let x = 1; let x = 2"),
            "1:16: duplicate local 'x' in this scope");
  // A for body is an inner scope: shadowing the outer local is fine, and
  // the binding disappears with the scope.
  const Program p =
      parse_program("let x = 1; for i = 0 to 1 { let x = 2; }; let i = 9");
  EXPECT_EQ(p.statements.size(), 3u);
}

TEST(Parser, ForLoopBoundsAndTripCount) {
  const Program p = parse_program("for i = 2 to 5 { x = i; }");
  ASSERT_EQ(p.statements.size(), 1u);
  const Statement& loop = p.statements[0];
  EXPECT_EQ(loop.kind, Statement::Kind::kFor);
  EXPECT_EQ(loop.lo, 2);
  EXPECT_EQ(loop.hi, 5);
  EXPECT_EQ(loop.trip_count, 4u);
  ASSERT_EQ(loop.body.size(), 1u);
  EXPECT_EQ(loop.body[0].target, "x");
  // Loop variable and hidden trip counter both live in the frame.
  EXPECT_EQ(p.frame_slots, 2u);
}

TEST(Parser, ForLoopAcceptsNegativeAndEmptyRanges) {
  EXPECT_EQ(parse_program("for i = -2 to 2 { x = i; }").statements[0].trip_count, 5u);
  EXPECT_EQ(parse_program("for i = 5 to 2 { x = i; }").statements[0].trip_count, 0u);
}

TEST(Parser, LoopVariableIsReadOnly) {
  EXPECT_EQ(failure("for i = 0 to 3 { i = 9; }"),
            "1:18: cannot assign to loop variable 'i'");
}

TEST(Parser, FnDefinitionAndResolvedCall) {
  const Program p = parse_program(
      "fn double(v) { return v * 2; }\n"
      "x = double(3)");
  ASSERT_EQ(p.local_fns.size(), 1u);
  EXPECT_EQ(p.local_fns[0]->name, "double");
  EXPECT_EQ(p.local_fns[0]->params.size(), 1u);
  EXPECT_EQ(p.local_fns[0]->frame_slots, 1u);
  EXPECT_EQ(p.local_fns[0]->index, 0u);
  ASSERT_EQ(p.statements.size(), 1u);
}

TEST(Parser, FnArityCheckedAtParseTime) {
  EXPECT_EQ(failure("fn double(v) { return v * 2; }\nx = double(1, 2)"),
            "2:5: double expects 1 argument, got 2");
  EXPECT_EQ(failure("fn pair(a, b) { return a + b; }\nx = pair(1)"),
            "2:5: pair expects 2 arguments, got 1");
}

TEST(Parser, RecursionAndForwardReferencesRejected) {
  EXPECT_EQ(failure("fn f(v) { return f(v); }"),
            "1:18: recursive call to 'f' (functions may only call earlier "
            "definitions)");
  // Later definitions are unknown at the call site, so g stays a dynamic
  // call — which a whole-script compile then rejects, keeping the function
  // graph a DAG by construction. Parse alone accepts it (it could be a
  // table read).
  EXPECT_EQ(parse_program("fn f(v) { return g(v); }\nfn g(v) { return v; }")
                .local_fns.size(),
            2u);
}

TEST(Parser, FnScopingErrors) {
  EXPECT_EQ(failure("fn f(v) { x = v; }"),
            "1:11: fn bodies may only assign locals ('x' is not a parameter or "
            "let)");
  EXPECT_EQ(failure("fn irand(v) { return v; }"),
            "1:4: cannot redefine builtin 'irand'");
  EXPECT_EQ(failure("fn f(min) { return min; }"), "1:6: cannot shadow builtin 'min'");
  EXPECT_EQ(failure("fn f(a, a) { return a; }"), "1:9: duplicate parameter 'a'");
  EXPECT_EQ(failure("fn f(v) { return v; }\nfn f(v) { return v; }"),
            "2:4: duplicate function 'f'");
  EXPECT_EQ(failure("for i = 0 to 1 { fn f(v) { return v; } }"),
            "1:18: fn definitions are only allowed at the top level of a script");
  EXPECT_EQ(failure("return 1"), "1:1: 'return' outside a function body");
}

TEST(Parser, ParseFunctionAcceptsKeywordlessForm) {
  // .pn documents write `fn "name(args) { ... }"` — the string omits the
  // keyword; the standalone form with the keyword parses identically.
  const auto bare = parse_function("triple(v) { return v * 3; }");
  const auto keyworded = parse_function("fn triple(v) { return v * 3; }");
  EXPECT_EQ(bare->name, "triple");
  EXPECT_EQ(bare->to_string(), keyworded->to_string());
}

TEST(Parser, FunctionLibraryResolvesCallsWithArityChecks) {
  FunctionLibrary library;
  library.functions.push_back(parse_function("twice(v) { return v + v; }"));
  EXPECT_EQ(parse_expression("twice(21)", &library)->to_string(), "twice[21]");
  try {
    (void)parse_expression("twice(1, 2)", &library);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "twice expects 1 argument, got 2");
  }
  // Library functions may call earlier library functions.
  library.functions.push_back(
      parse_function("quad(v) { return twice(twice(v)); }", &library));
  EXPECT_EQ(library.functions[1]->index, 1u);
}

TEST(Parser, ScriptToStringRoundTrips) {
  const Program p = parse_program(
      "fn acc(hit) { return hit * 2; }\n"
      "let a[3];\n"
      "for i = 0 to 2 { a[i] = acc(i); };\n"
      "x = a[1]");
  const Program p2 = parse_program(p.to_string());
  EXPECT_EQ(p2.to_string(), p.to_string());
  EXPECT_EQ(p2.frame_slots, p.frame_slots);
}

// --- satellite: slot budgets are compile-time errors --------------------------

TEST(Parser, ArrayExtentBudget) {
  EXPECT_EQ(failure("let a[0]"), "1:7: array extent must be at least 1, got 0");
  EXPECT_EQ(failure("let a[65537]"),
            "1:7: array extent 65537 exceeds the bound (65536)");
  // The boundary itself is fine.
  EXPECT_EQ(parse_program("let a[65536]").frame_slots, 65536u);
}

TEST(Parser, LoopTripBudget) {
  EXPECT_EQ(failure("for i = 0 to 65536 { x = i; }"),
            "1:1: loop from 0 to 65536 runs 65537 iterations, exceeding the "
            "bound (65536)");
  // The boundary itself is fine, as is a range straddling int64 extremes
  // (trip counting cannot wrap — it is not a compare against hi).
  EXPECT_EQ(parse_program("for i = 1 to 65536 { x = i; }").statements[0].trip_count,
            65536u);
  EXPECT_EQ(failure("for i = -9223372036854775807 to 9223372036854775807 "
                    "{ x = i; }"),
            "1:1: loop from -9223372036854775807 to 9223372036854775807 runs "
            "18446744073709551615 iterations, exceeding the bound (65536)");
}

TEST(Parser, FrameSlotBudget) {
  // 16 arrays of the max extent fit (2^20 slots exactly); a 17th single
  // scalar overflows the frame budget.
  std::string source;
  for (int i = 0; i < 16; ++i) {
    source += "let a" + std::to_string(i) + "[65536]; ";
  }
  EXPECT_EQ(parse_program(source).frame_slots, std::uint32_t{1} << 20);
  EXPECT_EQ(failure(source + "let b = 1"),
            "1:" + std::to_string(source.size() + 5) +
                ": local frame exceeds the slot budget (1048576 slots)");
}

// --- nesting budget -------------------------------------------------------------

std::string repeated(std::string_view unit, std::size_t n) {
  std::string out;
  out.reserve(unit.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += unit;
  return out;
}

TEST(Parser, NestingBudgetRejectsStackBreakingInput) {
  // Every level recurses in the parser, the evaluator, the bytecode
  // compiler and AST teardown; these inputs used to overflow the stack.
  const std::string deep = "nested more than 256 levels deep";
  EXPECT_EQ(failure("x = " + repeated("(", 30000) + "1" + repeated(")", 30000)),
            "1:261: " + deep);  // the 257th '(' (the rhs itself is level 1)
  EXPECT_EQ(failure("x = " + repeated("-", 200000) + "1"), "1:260: " + deep);
  EXPECT_EQ(failure("x = " + repeated("!", 200000) + "0"), "1:260: " + deep);
  // Left-deep operator chains and nested calls and loops count too.
  EXPECT_EQ(failure("x = 1" + repeated(" + 1", 100000)), "1:1027: " + deep);
  EXPECT_EQ(failure("x = " + repeated("abs(", 300) + "1" + repeated(")", 300)),
            "1:1029: " + deep);
  EXPECT_EQ(failure(repeated("for i = 0 to 1 { ", 300) + "x = i;" + repeated(" }", 300)),
            "1:4353: " + deep);
  EXPECT_THROW(parse_expression(repeated("(", 30000) + "1" + repeated(")", 30000)),
               ParseError);
}

TEST(Parser, NestingBudgetBoundary) {
  // A bare expression is level 1, so 255 groups inside it reach exactly
  // the budget; one more group is over it.
  const std::string at_budget = repeated("(", 255) + "7" + repeated(")", 255);
  EXPECT_EQ(parse_expression(at_budget)->to_string(), "7");
  EXPECT_THROW(parse_expression("(" + at_budget + ")"), ParseError);
  EXPECT_NO_THROW(parse_expression(repeated("-", 255) + "1"));
  EXPECT_THROW(parse_expression(repeated("-", 256) + "1"), ParseError);
}


// --- caret diagnostics ------------------------------------------------------------

/// format_diagnostic for the ParseError `source` raises.
std::string diagnostic(std::string_view source) {
  try {
    (void)parse_program(source);
    return "<parsed>";
  } catch (const ParseError& e) {
    return format_diagnostic(source, e);
  }
}

TEST(Parser, CaretSnippetShowsAShortLineWhole) {
  // A line of exactly kMaxCaretLine bytes renders whole, as always.
  const std::string line = "x = " + repeated("1 + ", 38) + "+";
  ASSERT_EQ(line.size(), kMaxCaretLine - 3);
  const std::string at_limit = line + "   ";
  EXPECT_EQ(diagnostic(at_limit),
            "1:157: expected an expression\n" + at_limit + "\n" +
                std::string(156, ' ') + "^\n");
  EXPECT_EQ(diagnostic("y = 2;\nx = (1 +\n"),
            "3:1: expected an expression\n\n^\n");
  EXPECT_EQ(diagnostic("x = 1 $ 2"), "1:7: unexpected character '$'\nx = 1 $ 2\n      ^\n");
}

TEST(Parser, CaretSnippetWindowsALongLine) {
  // A 200 KB one-line program with the error in the middle: the snippet is
  // a 160-byte window centred on the column, cut at both ends.
  const std::string head = repeated("x = 1; ", 15000) + "x = 1 ";
  const std::string source = head + "$ 2; " + repeated("x = 1; ", 15000);
  ASSERT_GT(source.size(), 200000U);
  const std::string window = source.substr(head.size() - 80, kMaxCaretLine);
  EXPECT_EQ(window[80], '$');
  EXPECT_EQ(diagnostic(source), "1:" + std::to_string(head.size() + 1) +
                                    ": unexpected character '$'\n..." + window + "...\n" +
                                    std::string(83, ' ') + "^\n");

  // Near the start only the tail is cut; near the end only the head.
  const std::string early = "x = 1 $ " + repeated("1 + ", 100) + "1";
  EXPECT_EQ(diagnostic(early), "1:7: unexpected character '$'\n" +
                                   early.substr(0, kMaxCaretLine) + "...\n" +
                                   std::string(6, ' ') + "^\n");
  const std::string late = "x = " + repeated("1 + ", 100) + "1 $";
  EXPECT_EQ(diagnostic(late), "1:" + std::to_string(late.size()) +
                                  ": unexpected character '$'\n..." +
                                  late.substr(late.size() - kMaxCaretLine) + "\n" +
                                  std::string(3 + kMaxCaretLine - 1, ' ') + "^\n");
  // An error at the end of a long line points one past its last byte.
  const std::string open = "x = " + repeated("1 + ", 100);
  EXPECT_EQ(diagnostic(open), "1:" + std::to_string(open.size() + 1) +
                                  ": expected an expression\n..." +
                                  open.substr(open.size() - kMaxCaretLine) + "\n" +
                                  std::string(3 + kMaxCaretLine, ' ') + "^\n");
}

}  // namespace
}  // namespace pnut::expr
