// Reference enablement over a Net description: the paper's firing rule
// with predicates evaluated by the tree-walking AST evaluator against a
// DataContext. The engines run predicates as bytecode (expr/program.h);
// this test-only form spells the rule out for unit tests and serves as the
// oracle the bytecode path is checked against.
#pragma once

#include <vector>

#include "expr/ast.h"
#include "petri/data_context.h"
#include "petri/marking.h"
#include "petri/net.h"

namespace pnut::test_support {

/// Tokens available AND the predicate (if any) holds on `data`.
inline bool is_enabled(const Net& net, const Marking& m, TransitionId t,
                       const DataContext& data) {
  if (!tokens_available(net, m, t)) return false;
  const Predicate& predicate = net.transition(t).predicate;
  if (!predicate) return true;
  expr::EvalContext ctx;
  ctx.data = &data;
  return predicate.ast->eval(ctx) != 0;
}

/// All transitions enabled in `m`, ascending.
inline std::vector<TransitionId> enabled_transitions(const Net& net, const Marking& m,
                                                     const DataContext& data) {
  std::vector<TransitionId> out;
  for (std::uint32_t i = 0; i < net.num_transitions(); ++i) {
    if (is_enabled(net, m, TransitionId(i), data)) out.push_back(TransitionId(i));
  }
  return out;
}

}  // namespace pnut::test_support
