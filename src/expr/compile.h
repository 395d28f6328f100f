// Bridges from expression-language source text to the hooks a pnut::Net
// accepts: predicates, actions, and computed delays.
//
// This is how the paper's Figure 4 net is written:
//
//   net.set_action(decode, compile_action(
//       "type = irand[1, max_type]; number_of_operands_needed = operands[type]"));
//   net.set_predicate(fetch_operand, compile_predicate("number_of_operands_needed > 0"));
//   net.set_predicate(done, compile_predicate("number_of_operands_needed == 0"));
//   net.set_action(end_fetch, compile_action(
//       "number_of_operands_needed = number_of_operands_needed - 1"));
//
// Every hook is an expression: the returned Predicate / Action /
// ComputedDelay (petri/net.h) carries the parsed AST and its source text.
// The engines lower a finished Net's hooks to slot-addressed bytecode with
// expr::NetProgram::compile (expr/program.h); textio::print_net writes the
// source text back out.
#pragma once

#include <string_view>

#include "expr/ast.h"
#include "petri/net.h"

namespace pnut::expr {

/// Compile a boolean expression into a transition predicate. A predicate
/// has no random source (irand in a predicate throws at evaluation time)
/// and cannot assign. `library` makes a document's `fn` declarations
/// callable from the source. Throws ParseError on bad syntax.
Predicate compile_predicate(std::string_view source,
                            const FunctionLibrary* library = nullptr);

/// Compile an assignment program into a transition action. Runs against the
/// data state with the engine's Rng (so irand is available).
Action compile_action(std::string_view source,
                      const FunctionLibrary* library = nullptr);

/// Compile an integer expression into a computed DelaySpec, evaluated
/// against the data state each time a delay is needed. Random delays
/// should use DelaySpec distributions or variables set by actions, not
/// irand, so the spec stays deterministic given the data state; irand here
/// throws at evaluation time.
DelaySpec compile_delay(std::string_view source,
                        const FunctionLibrary* library = nullptr);

}  // namespace pnut::expr
