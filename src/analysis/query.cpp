#include "analysis/query.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "expr/ast.h"
#include "expr/lexer.h"
#include "expr/parser.h"
#include "util/stop.h"

namespace pnut::analysis {

namespace {

using expr::BinaryOp;
using expr::ParseError;
using expr::Token;
using expr::TokenKind;
using expr::UnaryOp;

// --- evaluation environment -----------------------------------------------------
//
// Formulas evaluate a block of lanes at a time. A loop (quantifier, set
// builder, temporal cond/guard table) binds its variable to one state per
// lane and runs its body once per block; each node then works through
// tight per-lane loops. A lane that raises keeps its first error and is
// dead for every node after; the loop rethrows it only when it reaches that
// lane before a deciding one.

/// Lanes per block. A loop's blocks start at width 1 and double up to this,
/// so a query decided at its first state evaluates a few lanes.
constexpr std::size_t kMaxLanes = 256;
// Every block start k is 0, a power of two below kMaxLanes or a multiple of
// it, so each stop-poll position (k % kStopCheckStride == 0) opens a block.
static_assert(kStopCheckStride % kMaxLanes == 0);

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

struct Env {
  const StateSpace* space = nullptr;
  std::size_t num_states = 0;  ///< space->num_states(), read once
  /// Bound state variables: one slot per binder, assigned by the parser.
  std::vector<std::int64_t> vars;
  /// The innermost running loop's slot and its block's states, one per
  /// lane. Every enclosing loop runs one lane at a time (a body holding a
  /// loop does), so its variable is the single value in `vars`.
  std::size_t lane_slot = kNoSlot;
  const std::int64_t* lane_states = nullptr;
  /// Cooperative deadline/cancellation, polled in the quantifier and
  /// fixpoint loops; a trip throws StopError out of eval_query.
  StopToken stop;
};

[[nodiscard]] std::exception_ptr eval_error(const std::string& message) {
  return std::make_exception_ptr(std::runtime_error("query evaluation: " + message));
}

[[nodiscard]] std::exception_ptr range_error(std::int64_t value, const std::string& where,
                                             std::size_t num_states) {
  return eval_error("state index " + std::to_string(value) + " out of range in " + where +
                    " (space has " + std::to_string(num_states) + " states)");
}

[[nodiscard]] bool in_range(std::int64_t value, std::size_t num_states) {
  return value >= 0 && static_cast<std::size_t>(value) < num_states;
}

/// One block's lanes: which are dead, and the error of the first dead lane
/// (the only one its loop can reach: it rethrows there).
struct Block {
  std::size_t n = 0;
  std::size_t first_dead = kMaxLanes;
  std::exception_ptr first_error;
  std::array<bool, kMaxLanes> dead{};

  void reset(std::size_t lanes) {
    if (first_dead != kMaxLanes) {
      std::fill_n(dead.begin(), n, false);
      first_dead = kMaxLanes;
      first_error = nullptr;
    }
    n = lanes;
  }
  [[nodiscard]] bool any_dead() const { return first_dead != kMaxLanes; }
};

/// The lanes a node evaluates: its block's lanes that are open (all, when
/// `open` is null; else those the enclosing && or || left undecided) and
/// not dead. A node writes out[l] for every lane of the block; the values
/// mean something only on the lanes still live after it.
struct Lanes {
  Block* block;
  const std::uint8_t* open = nullptr;

  [[nodiscard]] std::size_t size() const { return block->n; }
  [[nodiscard]] bool live(std::size_t l) const {
    return !block->dead[l] && (open == nullptr || open[l] != 0);
  }
  [[nodiscard]] bool all_live() const { return open == nullptr && !block->any_dead(); }
  /// Kills lane l; `make_error()` builds its error, and runs only when l is
  /// the block's first dead lane so far.
  template <typename MakeError>
  void fail(std::size_t l, MakeError&& make_error) const {
    block->dead[l] = true;
    if (l < block->first_dead) {
      block->first_dead = l;
      block->first_error = make_error();
    }
  }
  /// Calls fn(l) for each live lane, in lane order.
  template <typename Fn>
  void for_live(Fn&& fn) const {
    if (all_live()) {
      for (std::size_t l = 0; l < block->n; ++l) fn(l);
      return;
    }
    for (std::size_t l = 0; l < block->n; ++l) {
      if (live(l)) fn(l);
    }
  }
};

/// A node's scratch column of at least `n` lanes.
template <typename T>
T* lanes_of(std::vector<T>& column, std::size_t n) {
  if (column.size() < n) column.resize(n);
  return column.data();
}

// --- AST -------------------------------------------------------------------------

class QNode {
 public:
  virtual ~QNode() = default;
  /// Evaluates the node on `lanes` (see Lanes). Raises nothing: an error
  /// kills its lane instead.
  virtual void eval(Env& env, const Lanes& lanes, std::int64_t* out) = 0;
  /// True if the subtree holds a quantifier or temporal operator. A loop
  /// whose body holds one runs one lane per block, so the inner loop's
  /// polls and errors come in exactly the per-state order.
  [[nodiscard]] bool has_loop() const { return has_loop_; }

 protected:
  explicit QNode(bool has_loop) : has_loop_(has_loop) {}

 private:
  bool has_loop_;
};
using QNodePtr = std::unique_ptr<QNode>;

/// A set's member state indices, ascending: [0, n) when `all`, else `list`.
/// The whole state set costs no allocation.
struct StateSet {
  bool all = false;
  std::size_t n = 0;
  std::vector<std::size_t> list;

  [[nodiscard]] std::size_t size() const { return all ? n : list.size(); }
  [[nodiscard]] std::size_t operator[](std::size_t k) const { return all ? k : list[k]; }
};

class SetNode {
 public:
  virtual ~SetNode() = default;
  [[nodiscard]] virtual StateSet members(Env& env) = 0;
};
using SetNodePtr = std::unique_ptr<SetNode>;

/// The loop of a quantifier, set builder or temporal table: binds a slot
/// to each member of a state set in order, a block of lanes at a time.
class Loop {
 public:
  /// For each block: `eval(lanes)` evaluates the body, then `take(k, l)`
  /// visits lane l (member k) in order until it returns true (a deciding
  /// lane). A dead lane reached first is rethrown. With `poll`, the stop
  /// token is polled before member k whenever k % kStopCheckStride == 0.
  template <typename Eval, typename Take>
  void run(Env& env, const StateSet& states, std::size_t slot, bool one_lane, bool poll,
           Eval&& eval, Take&& take) {
    const std::size_t outer_slot = env.lane_slot;
    const std::int64_t* outer_states = env.lane_states;
    struct Restore {
      Env& env;
      std::size_t slot;
      const std::int64_t* states;
      ~Restore() {
        env.lane_slot = slot;
        env.lane_states = states;
      }
    } restore{env, outer_slot, outer_states};

    for (std::size_t k = 0; k < states.size();) {
      if (poll && k % kStopCheckStride == 0) env.stop.throw_if_stopped();
      const std::size_t width =
          one_lane ? 1 : std::min({std::max<std::size_t>(k, 1), kMaxLanes, states.size() - k});
      std::int64_t* column = lanes_of(column_, width);
      if (states.all) {
        for (std::size_t l = 0; l < width; ++l) column[l] = static_cast<std::int64_t>(k + l);
      } else {
        for (std::size_t l = 0; l < width; ++l) {
          column[l] = static_cast<std::int64_t>(states.list[k + l]);
        }
      }
      env.vars[slot] = column[0];
      env.lane_slot = slot;
      env.lane_states = column;
      block_.reset(width);
      eval(Lanes{&block_});
      const std::size_t reached = std::min(width, block_.first_dead);
      for (std::size_t l = 0; l < reached; ++l) {
        if (take(k + l, l)) return;
      }
      if (reached < width) std::rethrow_exception(block_.first_error);
      k += width;
    }
  }

 private:
  Block block_;
  std::vector<std::int64_t> column_;
};

class NumNode final : public QNode {
 public:
  explicit NumNode(std::int64_t v) : QNode(false), value_(v) {}
  void eval(Env&, const Lanes& lanes, std::int64_t* out) override {
    std::fill_n(out, lanes.size(), value_);
  }

 private:
  std::int64_t value_;
};

/// A bound state variable: its binder's frame slot.
class VarNode final : public QNode {
 public:
  explicit VarNode(std::size_t slot) : QNode(false), slot_(slot) {}
  [[nodiscard]] std::size_t slot() const { return slot_; }
  void eval(Env& env, const Lanes& lanes, std::int64_t* out) override {
    if (env.lane_slot == slot_) {
      std::copy_n(env.lane_states, lanes.size(), out);
    } else {
      std::fill_n(out, lanes.size(), env.vars[slot_]);
    }
  }

 private:
  std::size_t slot_;
};

/// A name no enclosing binder introduces. The error is raised only if the
/// node is evaluated, so `false and x = 1` still holds.
class UnboundNode final : public QNode {
 public:
  explicit UnboundNode(std::string name) : QNode(false), name_(std::move(name)) {}
  void eval(Env&, const Lanes& lanes, std::int64_t* out) override {
    std::fill_n(out, lanes.size(), 0);
    lanes.for_live([&](std::size_t l) {
      lanes.fail(l, [&] {
        return eval_error("unbound variable '" + name_ +
                          "' (state variables must be introduced by a quantifier or "
                          "temporal operator)");
      });
    });
  }

 private:
  std::string name_;
};

[[nodiscard]] bool any_has_loop(const std::vector<QNodePtr>& nodes) {
  return std::any_of(nodes.begin(), nodes.end(),
                     [](const QNodePtr& n) { return n->has_loop(); });
}

/// The arithmetic builtins min(a, b), max(a, b) and abs(a).
class BuiltinNode final : public QNode {
 public:
  enum class Fn : std::uint8_t { kMin, kMax, kAbs };
  BuiltinNode(Fn fn, std::vector<QNodePtr> args)
      : QNode(any_has_loop(args)), fn_(fn), args_(std::move(args)) {}

  void eval(Env& env, const Lanes& lanes, std::int64_t* out) override {
    const std::size_t n = lanes.size();
    args_[0]->eval(env, lanes, out);
    if (fn_ == Fn::kAbs) {
      for (std::size_t l = 0; l < n; ++l) out[l] = out[l] < 0 ? expr::wrap_neg(out[l]) : out[l];
      return;
    }
    std::int64_t* b = lanes_of(second_, n);
    args_[1]->eval(env, lanes, b);
    if (fn_ == Fn::kMin) {
      for (std::size_t l = 0; l < n; ++l) out[l] = std::min(out[l], b[l]);
    } else {
      for (std::size_t l = 0; l < n; ++l) out[l] = std::max(out[l], b[l]);
    }
  }

 private:
  Fn fn_;
  std::vector<QNodePtr> args_;
  std::vector<std::int64_t> second_;
};

/// Name(s): place tokens, transition activity, or data variable in state s.
/// The name is resolved against a space once (a place, else a transition,
/// else a variable slot), not per state. A place reads the whole block in
/// one bulk read; transition activity and variables, state by state.
class StateFnNode final : public QNode {
 public:
  StateFnNode(std::string name, std::vector<QNodePtr> args)
      : QNode(any_has_loop(args)), name_(std::move(name)), where_("'" + name_ + "(...)'"),
        args_(std::move(args)) {
    if (args_.size() == 1) {
      if (const auto* var = dynamic_cast<const VarNode*>(args_[0].get())) arg_slot_ = var->slot();
    }
  }

  void eval(Env& env, const Lanes& lanes, std::int64_t* out) override {
    const std::size_t n = lanes.size();
    if (args_.size() != 1) {
      std::fill_n(out, n, 0);
      lanes.for_live([&](std::size_t l) {
        lanes.fail(l, [&] { return eval_error("'" + name_ + "' expects one state argument"); });
      });
      return;
    }
    const std::int64_t* states = nullptr;
    bool any = false;
    if (arg_slot_ != kNoSlot && arg_slot_ == env.lane_slot) {
      // The running loop's own variable: its members are states of the
      // space, so every lane is in range.
      states = env.lane_states;
      for (std::size_t l = 0; l < n && !any; ++l) any = lanes.live(l);
    } else {
      std::int64_t* checked = lanes_of(states_, n);
      args_[0]->eval(env, lanes, checked);
      // Lanes that read nothing read state 0, which exists whenever a lane
      // survives the range check.
      for (std::size_t l = 0; l < n; ++l) {
        if (lanes.live(l)) {
          if (in_range(checked[l], env.num_states)) {
            any = true;
            continue;
          }
          lanes.fail(l, [&] { return range_error(checked[l], where_, env.num_states); });
        }
        checked[l] = 0;
      }
      states = checked;
    }
    if (!any) {
      std::fill_n(out, n, 0);
      return;
    }
    if (resolved_for_ != env.space) resolve(*env.space);
    const StateSpace& space = *env.space;
    switch (kind_) {
      case Kind::kPlace:
        space.gather_place_tokens({states, n}, PlaceId(id_), out);
        return;
      case Kind::kTransition:
        std::fill_n(out, n, 0);
        lanes.for_live([&](std::size_t l) {
          try {
            out[l] = space.transition_activity(static_cast<std::size_t>(states[l]),
                                               TransitionId(id_));
          } catch (...) {
            lanes.fail(l, [] { return std::current_exception(); });
          }
        });
        return;
      case Kind::kVariable:
      case Kind::kUnknown:
        std::fill_n(out, n, 0);
        lanes.for_live([&](std::size_t l) {
          const auto s = static_cast<std::size_t>(states[l]);
          if (const auto v = kind_ == Kind::kVariable ? space.variable(s, id_) : std::nullopt) {
            out[l] = *v;
            return;
          }
          lanes.fail(l, [&] {
            return eval_error("'" + name_ + "' is not a place, transition or data variable");
          });
        });
        return;
    }
  }

 private:
  enum class Kind : std::uint8_t { kPlace, kTransition, kVariable, kUnknown };

  void resolve(const StateSpace& space) {
    if (auto p = space.find_place(name_)) {
      kind_ = Kind::kPlace;
      id_ = p->value;
    } else if (auto t = space.find_transition(name_)) {
      kind_ = Kind::kTransition;
      id_ = t->value;
    } else if (auto v = space.find_variable(name_)) {
      kind_ = Kind::kVariable;
      id_ = *v;
    } else {
      kind_ = Kind::kUnknown;
    }
    resolved_for_ = &space;
  }

  std::string name_;
  std::string where_;  ///< error-message label, built once
  std::vector<QNodePtr> args_;
  std::size_t arg_slot_ = kNoSlot;  ///< the slot, when the argument is a bound variable
  std::vector<std::int64_t> states_;
  const StateSpace* resolved_for_ = nullptr;
  Kind kind_ = Kind::kVariable;
  std::uint32_t id_ = 0;  ///< place or transition index, or variable slot
};

/// out[l] = a[l] OP b[l] over every lane, for an operator that cannot raise.
template <BinaryOp Op>
void apply_lanes(std::int64_t* a, const std::int64_t* b, std::size_t n) {
  for (std::size_t l = 0; l < n; ++l) a[l] = expr::apply_binary(Op, a[l], b[l]);
}

/// An operator of the expression language, on expr::apply_binary: && and
/// || evaluate their right side only on the lanes the left side left open,
/// and evaluation errors take this engine's prefix.
class QBinNode final : public QNode {
 public:
  QBinNode(BinaryOp op, QNodePtr lhs, QNodePtr rhs)
      : QNode(lhs->has_loop() || rhs->has_loop()), op_(op), lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  void eval(Env& env, const Lanes& lanes, std::int64_t* out) override {
    const std::size_t n = lanes.size();
    lhs_->eval(env, lanes, out);
    std::int64_t* b = lanes_of(rhs_values_, n);
    if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
      const bool and_op = op_ == BinaryOp::kAnd;
      std::uint8_t* open = lanes_of(open_, n);
      bool any = false;
      for (std::size_t l = 0; l < n; ++l) {
        open[l] = lanes.live(l) && (out[l] != 0) == and_op ? 1 : 0;
        any |= open[l] != 0;
      }
      if (any) rhs_->eval(env, Lanes{lanes.block, open}, b);
      for (std::size_t l = 0; l < n; ++l) {
        out[l] = (open[l] != 0 ? b[l] : out[l]) != 0 ? 1 : 0;
      }
      return;
    }
    rhs_->eval(env, lanes, b);
    switch (op_) {
      case BinaryOp::kAdd: apply_lanes<BinaryOp::kAdd>(out, b, n); return;
      case BinaryOp::kSub: apply_lanes<BinaryOp::kSub>(out, b, n); return;
      case BinaryOp::kMul: apply_lanes<BinaryOp::kMul>(out, b, n); return;
      case BinaryOp::kEq: apply_lanes<BinaryOp::kEq>(out, b, n); return;
      case BinaryOp::kNe: apply_lanes<BinaryOp::kNe>(out, b, n); return;
      case BinaryOp::kLt: apply_lanes<BinaryOp::kLt>(out, b, n); return;
      case BinaryOp::kLe: apply_lanes<BinaryOp::kLe>(out, b, n); return;
      case BinaryOp::kGt: apply_lanes<BinaryOp::kGt>(out, b, n); return;
      case BinaryOp::kGe: apply_lanes<BinaryOp::kGe>(out, b, n); return;
      case BinaryOp::kDiv:
      case BinaryOp::kMod:
      case BinaryOp::kAnd:
      case BinaryOp::kOr: break;
    }
    // / and % raise: only on live lanes, each lane on its own.
    for (std::size_t l = 0; l < n; ++l) {
      if (!lanes.live(l)) {
        out[l] = 0;
        continue;
      }
      try {
        out[l] = expr::apply_binary(op_, out[l], b[l]);
      } catch (const expr::EvalError& e) {
        lanes.fail(l, [&] { return eval_error(e.what()); });
        out[l] = 0;
      }
    }
  }

 private:
  BinaryOp op_;
  QNodePtr lhs_;
  QNodePtr rhs_;
  std::vector<std::int64_t> rhs_values_;
  std::vector<std::uint8_t> open_;
};

class QUnaryNode final : public QNode {
 public:
  QUnaryNode(UnaryOp op, QNodePtr inner)
      : QNode(inner->has_loop()), op_(op), inner_(std::move(inner)) {}
  void eval(Env& env, const Lanes& lanes, std::int64_t* out) override {
    inner_->eval(env, lanes, out);
    for (std::size_t l = 0; l < lanes.size(); ++l) out[l] = expr::apply_unary(op_, out[l]);
  }

 private:
  UnaryOp op_;
  QNodePtr inner_;
};

/// forall/exists var in SET [ body ]. Evaluation records a witness
/// (satisfying state for exists, violating state for forall) for
/// QueryResult reporting.
class QuantifierNode final : public QNode {
 public:
  QuantifierNode(bool universal, std::size_t slot, SetNodePtr set, QNodePtr body)
      : QNode(true), universal_(universal), slot_(slot), set_(std::move(set)),
        body_(std::move(body)) {}

  /// A loop node runs one lane at a time (see QNode::has_loop): each live
  /// lane runs the whole loop, and what the loop throws is the lane's error.
  void eval(Env& env, const Lanes& lanes, std::int64_t* out) override {
    std::fill_n(out, lanes.size(), 0);
    lanes.for_live([&](std::size_t l) {
      try {
        out[l] = run(env) ? 1 : 0;
      } catch (...) {
        lanes.fail(l, [] { return std::current_exception(); });
      }
    });
  }

  [[nodiscard]] bool universal() const { return universal_; }
  [[nodiscard]] std::optional<std::size_t> witness() const { return witness_; }

 private:
  bool run(Env& env) {
    witness_.reset();
    const StateSet states = set_->members(env);
    bool result = universal_;
    std::int64_t* holds = nullptr;
    loop_.run(
        env, states, slot_, body_->has_loop(), /*poll=*/true,
        [&](const Lanes& lanes) {
          holds = lanes_of(holds_, lanes.size());
          body_->eval(env, lanes, holds);
        },
        [&](std::size_t k, std::size_t l) {
          if ((holds[l] != 0) == universal_) return false;
          result = !universal_;
          witness_ = states[k];
          return true;
        });
    return result;
  }

  bool universal_;
  std::size_t slot_;  ///< the bound variable (a slot of its own: shadowing is free)
  SetNodePtr set_;
  QNodePtr body_;
  Loop loop_;
  std::vector<std::int64_t> holds_;
  std::optional<std::size_t> witness_;
};

/// inev(s, f, g) = A[g U f]; poss(s, f, g) = E[g U f]. The per-state truth
/// vector is computed once per evaluation pass over the whole space and
/// memoized, so `forall s in S [ inev(s, ...) ]` costs one fixpoint, not
/// |S| of them.
class TemporalNode final : public QNode {
 public:
  TemporalNode(bool universal_paths, QNodePtr state, std::size_t c_slot, QNodePtr cond,
               QNodePtr guard)
      : QNode(true), universal_paths_(universal_paths), state_(std::move(state)),
        c_slot_(c_slot), cond_(std::move(cond)), guard_(std::move(guard)) {}

  void eval(Env& env, const Lanes& lanes, std::int64_t* out) override {
    std::int64_t* states = lanes_of(states_, lanes.size());
    state_->eval(env, lanes, states);
    std::fill_n(out, lanes.size(), 0);
    lanes.for_live([&](std::size_t l) {
      if (!in_range(states[l], env.num_states)) {
        lanes.fail(l, [&] {
          return range_error(states[l], universal_paths_ ? "inev" : "poss", env.num_states);
        });
        return;
      }
      try {
        ensure_table(env);
      } catch (...) {
        lanes.fail(l, [] { return std::current_exception(); });
        return;
      }
      out[l] = (*table_)[static_cast<std::size_t>(states[l])] ? 1 : 0;
    });
  }

 private:
  void ensure_table(Env& env) {
    if (table_ && table_space_ == env.space) return;
    const StateSpace& space = *env.space;
    const std::size_t n = env.num_states;

    // Evaluate cond/guard once per state with C bound.
    std::vector<char> cond_v(n), guard_v(n);
    std::int64_t* cond = nullptr;
    std::int64_t* guard = nullptr;
    loop_.run(
        env, StateSet{.all = true, .n = n, .list = {}}, c_slot_,
        cond_->has_loop() || guard_->has_loop(), /*poll=*/true,
        [&](const Lanes& lanes) {
          cond = lanes_of(cond_values_, lanes.size());
          guard = lanes_of(guard_values_, lanes.size());
          cond_->eval(env, lanes, cond);
          guard_->eval(env, lanes, guard);
        },
        [&](std::size_t i, std::size_t l) {
          cond_v[i] = cond[l] != 0;
          guard_v[i] = guard[l] != 0;
          return false;
        });

    // The successor relation as flat CSR rows, so each fixpoint sweep
    // below is a scan of two flat arrays.
    std::vector<std::size_t> succ_off;
    std::vector<std::uint32_t> succ;
    space.successor_rows(succ_off, succ);

    // Until fixpoint: AU needs all successors satisfied (and at least one),
    // EU needs some successor satisfied.
    //
    // Truncation honesty: a never-expanded frontier state of a truncated
    // graph has an empty successor row that means "unexplored", not
    // "terminal". Reading it as terminal would fabricate counterexamples
    // (inev false because exploration stopped, not because a path
    // escapes). Such states saturate instead — they count as satisfied
    // when the guard still holds there, i.e. the until is "not violated
    // within the explored region" (the same convention time_bounds uses
    // when a path escapes the explored prefix). On complete graphs and
    // traces every state is expanded and this changes nothing.
    std::vector<char> sat(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      sat[i] = cond_v[i] || (!space.state_expanded(i) && guard_v[i]);
    }
    bool changed = true;
    while (changed) {
      // One poll per sweep: a sweep is O(|S| + |E|), so a deadline lands
      // within one pass even when the fixpoint needs many iterations.
      env.stop.throw_if_stopped();
      changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (sat[i] || !guard_v[i]) continue;
        const auto first = succ.begin() + static_cast<std::ptrdiff_t>(succ_off[i]);
        const auto last = succ.begin() + static_cast<std::ptrdiff_t>(succ_off[i + 1]);
        bool next_sat;
        if (universal_paths_) {
          next_sat = first != last &&
                     std::all_of(first, last, [&](std::uint32_t j) { return sat[j] != 0; });
        } else {
          next_sat =
              std::any_of(first, last, [&](std::uint32_t j) { return sat[j] != 0; });
        }
        if (next_sat) {
          sat[i] = 1;
          changed = true;
        }
      }
    }
    table_ = std::move(sat);
    table_space_ = env.space;
  }

  bool universal_paths_;
  QNodePtr state_;
  std::size_t c_slot_;  ///< C, bound for cond and guard
  QNodePtr cond_;
  QNodePtr guard_;
  Loop loop_;
  std::vector<std::int64_t> states_;
  std::vector<std::int64_t> cond_values_;
  std::vector<std::int64_t> guard_values_;
  std::optional<std::vector<char>> table_;
  const StateSpace* table_space_ = nullptr;
};

// --- set nodes -----------------------------------------------------------------

class AllStatesNode final : public SetNode {
 public:
  StateSet members(Env& env) override {
    return {.all = true, .n = env.num_states, .list = {}};
  }
};

class SetDiffNode final : public SetNode {
 public:
  SetDiffNode(SetNodePtr base, std::vector<std::size_t> removed)
      : base_(std::move(base)), removed_(std::move(removed)) {}
  StateSet members(Env& env) override {
    const StateSet base = base_->members(env);
    StateSet out;
    for (std::size_t k = 0; k < base.size(); ++k) {
      const std::size_t s = base[k];
      if (std::find(removed_.begin(), removed_.end(), s) == removed_.end()) {
        out.list.push_back(s);
      }
    }
    return out;
  }

 private:
  SetNodePtr base_;
  std::vector<std::size_t> removed_;
};

class SetBuilderNode final : public SetNode {
 public:
  SetBuilderNode(std::size_t slot, SetNodePtr base, QNodePtr filter)
      : slot_(slot), base_(std::move(base)), filter_(std::move(filter)) {}
  StateSet members(Env& env) override {
    const StateSet base = base_->members(env);
    StateSet out;
    std::int64_t* keep = nullptr;
    loop_.run(
        env, base, slot_, filter_->has_loop(), /*poll=*/false,
        [&](const Lanes& lanes) {
          keep = lanes_of(keep_, lanes.size());
          filter_->eval(env, lanes, keep);
        },
        [&](std::size_t k, std::size_t l) {
          if (keep[l] != 0) out.list.push_back(base[k]);
          return false;
        });
    return out;
  }

 private:
  std::size_t slot_;
  SetNodePtr base_;
  QNodePtr filter_;
  Loop loop_;
  std::vector<std::int64_t> keep_;
};

// --- parser ---------------------------------------------------------------------

std::string lowercase(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

class QueryParser {
 public:
  explicit QueryParser(std::string_view source) : tokens_(expr::tokenize(source)) {}

  QNodePtr parse_query() {
    QNodePtr node = parse_formula();
    expect(TokenKind::kEnd, "after query");
    return node;
  }

  /// The quantifier whose result QueryResult reports (witness and
  /// explanation): the first one whose body closes during the parse — the
  /// outermost for a query with no nested quantifier. Set during parse.
  QuantifierNode* outer_quantifier = nullptr;

  /// Frame slots the parsed query's binders use (Env::vars' size).
  [[nodiscard]] std::size_t num_slots() const { return num_slots_; }

 private:
  [[nodiscard]] const Token& peek(std::size_t k = 0) const {
    const std::size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() {
    const Token& t = peek();
    if (t.kind != TokenKind::kEnd) ++pos_;
    return t;
  }
  bool match(TokenKind kind) {
    if (peek().kind == kind) {
      advance();
      return true;
    }
    return false;
  }
  const Token& expect(TokenKind kind, std::string_view what) {
    if (peek().kind != kind) {
      throw ParseError("expected " + std::string(expr::token_kind_name(kind)) + " " +
                           std::string(what) + ", got " +
                           std::string(expr::token_kind_name(peek().kind)),
                       peek().offset);
    }
    return advance();
  }

  /// One more nesting level: the query AST is evaluated (and torn down)
  /// recursively, so it shares the expression language's depth budget.
  void nest() {
    if (++depth_ > expr::kMaxNestingDepth) {
      throw ParseError("query nested more than " +
                           std::to_string(expr::kMaxNestingDepth) + " levels deep",
                       peek().offset);
    }
  }
  /// Restores the nesting depth when the production holding it returns.
  struct DepthScope {
    explicit DepthScope(QueryParser& p) : parser(p), saved(p.depth_) {}
    ~DepthScope() { parser.depth_ = saved; }
    QueryParser& parser;
    std::size_t saved;
  };

  [[nodiscard]] bool at_quantifier() const {
    if (peek().kind != TokenKind::kIdentifier) return false;
    const std::string kw = lowercase(peek().text);
    return kw == "forall" || kw == "exists";
  }

  QNodePtr parse_formula() {
    const DepthScope scope(*this);
    nest();
    return parse_or();
  }

  QNodePtr parse_quantified() {
    const std::string kw = lowercase(advance().text);
    const bool universal = kw == "forall";
    std::string var = parse_state_var("quantified variable");
    expect_keyword("in");
    SetNodePtr set = parse_set();  // the variable is not in scope in its own set
    const std::size_t slot = bind(std::move(var));
    expect(TokenKind::kLBracket, "to open the quantifier body");
    QNodePtr body = parse_formula();
    expect(TokenKind::kRBracket, "to close the quantifier body");
    unbind();
    auto node = std::make_unique<QuantifierNode>(universal, slot, std::move(set),
                                                 std::move(body));
    if (outer_quantifier == nullptr) outer_quantifier = node.get();
    return node;
  }

  /// State variables may be primed: s' (the paper's set-builder uses s').
  std::string parse_state_var(const char* what) {
    const Token& t = expect(TokenKind::kIdentifier, what);
    std::string name = t.text;
    while (match(TokenKind::kPrime)) name += '\'';
    return name;
  }

  void expect_keyword(const std::string& keyword) {
    const Token& t = expect(TokenKind::kIdentifier, ("'" + keyword + "'").c_str());
    if (lowercase(t.text) != keyword) {
      throw ParseError("expected '" + keyword + "', got '" + t.text + "'", t.offset);
    }
  }

  SetNodePtr parse_set() {
    const DepthScope scope(*this);
    nest();
    SetNodePtr base;
    if (match(TokenKind::kLParen)) {
      base = parse_set();
      expect(TokenKind::kRParen, "to close set expression");
    } else if (peek().kind == TokenKind::kLBrace) {
      advance();
      std::string var = parse_state_var("set-builder variable");
      expect_keyword("in");
      SetNodePtr inner = parse_set();
      const std::size_t slot = bind(std::move(var));
      expect(TokenKind::kPipe, "before the set-builder filter");
      QNodePtr filter = parse_formula();
      expect(TokenKind::kRBrace, "to close set builder");
      unbind();
      base = std::make_unique<SetBuilderNode>(slot, std::move(inner), std::move(filter));
    } else {
      const Token& t = expect(TokenKind::kIdentifier, "set name");
      if (t.text != "S") {
        throw ParseError("unknown state set '" + t.text + "' (only S is defined)",
                         t.offset);
      }
      base = std::make_unique<AllStatesNode>();
    }

    // Set difference with literal state sets: S - {#0, #5}.
    while (peek().kind == TokenKind::kMinus) {
      nest();
      advance();
      expect(TokenKind::kLBrace, "to open the removed-state set");
      std::vector<std::size_t> removed;
      do {
        expect(TokenKind::kHash, "before a state number");
        const Token& num = expect(TokenKind::kNumber, "state number");
        removed.push_back(static_cast<std::size_t>(num.number));
      } while (match(TokenKind::kComma));
      expect(TokenKind::kRBrace, "to close the removed-state set");
      base = std::make_unique<SetDiffNode>(std::move(base), std::move(removed));
    }
    return base;
  }

  QNodePtr parse_or() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_and();
    while (peek().kind == TokenKind::kOr) {
      nest();
      advance();
      lhs = std::make_unique<QBinNode>(BinaryOp::kOr, std::move(lhs), parse_and());
    }
    return lhs;
  }

  QNodePtr parse_and() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_rel();
    while (peek().kind == TokenKind::kAnd) {
      nest();
      advance();
      lhs = std::make_unique<QBinNode>(BinaryOp::kAnd, std::move(lhs), parse_rel());
    }
    return lhs;
  }

  QNodePtr parse_rel() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_add();
    BinaryOp op;
    switch (peek().kind) {
      case TokenKind::kEq:
      case TokenKind::kAssignOrEq: op = BinaryOp::kEq; break;
      case TokenKind::kNe: op = BinaryOp::kNe; break;
      case TokenKind::kLt: op = BinaryOp::kLt; break;
      case TokenKind::kLe: op = BinaryOp::kLe; break;
      case TokenKind::kGt: op = BinaryOp::kGt; break;
      case TokenKind::kGe: op = BinaryOp::kGe; break;
      default: return lhs;
    }
    nest();
    advance();
    return std::make_unique<QBinNode>(op, std::move(lhs), parse_add());
  }

  QNodePtr parse_add() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_mul();
    while (true) {
      BinaryOp op;
      if (peek().kind == TokenKind::kPlus) {
        op = BinaryOp::kAdd;
      } else if (peek().kind == TokenKind::kMinus && peek(1).kind != TokenKind::kLBrace) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      nest();
      advance();
      lhs = std::make_unique<QBinNode>(op, std::move(lhs), parse_mul());
    }
  }

  QNodePtr parse_mul() {
    const DepthScope scope(*this);
    QNodePtr lhs = parse_unary();
    while (true) {
      BinaryOp op;
      switch (peek().kind) {
        case TokenKind::kStar: op = BinaryOp::kMul; break;
        case TokenKind::kSlash: op = BinaryOp::kDiv; break;
        case TokenKind::kPercent: op = BinaryOp::kMod; break;
        default: return lhs;
      }
      nest();
      advance();
      lhs = std::make_unique<QBinNode>(op, std::move(lhs), parse_unary());
    }
  }

  QNodePtr parse_unary() {
    if (peek().kind != TokenKind::kMinus && peek().kind != TokenKind::kNot) {
      return parse_primary();
    }
    const DepthScope scope(*this);
    nest();
    const UnaryOp op =
        advance().kind == TokenKind::kMinus ? UnaryOp::kNeg : UnaryOp::kNot;
    return std::make_unique<QUnaryNode>(op, parse_unary());
  }

  QNodePtr parse_primary() {
    const Token& t = peek();
    if (t.kind == TokenKind::kNumber) {
      advance();
      return std::make_unique<NumNode>(t.number);
    }
    if (t.kind == TokenKind::kHash) {
      advance();
      const Token& num = expect(TokenKind::kNumber, "state number after '#'");
      return std::make_unique<NumNode>(num.number);
    }
    if (t.kind == TokenKind::kLParen) {
      advance();
      QNodePtr inner = parse_formula();
      expect(TokenKind::kRParen, "to close parenthesized formula");
      return inner;
    }
    if (at_quantifier()) return parse_quantified();
    if (t.kind == TokenKind::kIdentifier) {
      const std::string lower = lowercase(t.text);
      if (lower == "true") {
        advance();
        return std::make_unique<NumNode>(1);
      }
      if (lower == "false") {
        advance();
        return std::make_unique<NumNode>(0);
      }
      if (lower == "inev" || lower == "poss") {
        advance();
        expect(TokenKind::kLParen, "to open temporal operator");
        QNodePtr state = parse_formula();
        expect(TokenKind::kComma, "after the temporal operator's state");
        const std::size_t c_slot = bind("C");
        QNodePtr cond = parse_formula();
        QNodePtr guard;
        if (match(TokenKind::kComma)) {
          guard = parse_formula();
        } else {
          guard = std::make_unique<NumNode>(1);
        }
        unbind();
        expect(TokenKind::kRParen, "to close temporal operator");
        return std::make_unique<TemporalNode>(lower == "inev", std::move(state), c_slot,
                                              std::move(cond), std::move(guard));
      }
      // Identifier: either Name(args) state function or a bound variable
      // (possibly primed).
      advance();
      std::string name = t.text;
      while (match(TokenKind::kPrime)) name += '\'';
      if (peek().kind == TokenKind::kLParen || peek().kind == TokenKind::kLBracket) {
        const bool bracket = peek().kind == TokenKind::kLBracket;
        advance();
        const TokenKind closer = bracket ? TokenKind::kRBracket : TokenKind::kRParen;
        std::vector<QNodePtr> args;
        if (peek().kind != closer) {
          args.push_back(parse_formula());
          while (match(TokenKind::kComma)) args.push_back(parse_formula());
        }
        expect(closer, "to close argument list");
        if ((name == "min" || name == "max") && args.size() == 2) {
          return std::make_unique<BuiltinNode>(
              name == "min" ? BuiltinNode::Fn::kMin : BuiltinNode::Fn::kMax, std::move(args));
        }
        if (name == "abs" && args.size() == 1) {
          return std::make_unique<BuiltinNode>(BuiltinNode::Fn::kAbs, std::move(args));
        }
        return std::make_unique<StateFnNode>(std::move(name), std::move(args));
      }
      return variable(std::move(name));
    }
    throw ParseError("expected a formula", t.offset);
  }

  /// Lexical scoping: a binder gets a fresh frame slot and is in scope
  /// until unbind(); a name resolves to its innermost binder.
  std::size_t bind(std::string name) {
    scope_.emplace_back(std::move(name), num_slots_);
    return num_slots_++;
  }
  void unbind() { scope_.pop_back(); }
  QNodePtr variable(std::string name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (it->first == name) return std::make_unique<VarNode>(it->second);
    }
    return std::make_unique<UnboundNode>(std::move(name));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< current nesting level
  std::vector<std::pair<std::string, std::size_t>> scope_;  ///< binders in scope, innermost last
  std::size_t num_slots_ = 0;
};

}  // namespace

QueryResult eval_query(const StateSpace& space, std::string_view query) {
  return eval_query(space, query, StopToken{});
}

QueryResult eval_query(const StateSpace& space, std::string_view query,
                       StopToken stop) {
  QueryParser parser(query);
  const QNodePtr root = parser.parse_query();

  Env env;
  env.space = &space;
  env.num_states = space.num_states();
  env.vars.assign(parser.num_slots(), 0);
  env.stop = std::move(stop);
  Block block;
  block.reset(1);
  std::int64_t value = 0;
  root->eval(env, Lanes{&block}, &value);
  if (block.any_dead()) std::rethrow_exception(block.first_error);
  const bool holds = value != 0;

  QueryResult result;
  result.holds = holds;
  if (parser.outer_quantifier != nullptr) {
    result.witness = parser.outer_quantifier->witness();
    const bool universal = parser.outer_quantifier->universal();
    if (holds) {
      result.explanation = universal
                               ? "holds in all states of the set"
                               : "witness: state #" +
                                     std::to_string(result.witness.value_or(0));
    } else {
      result.explanation = universal
                               ? "violated at state #" +
                                     std::to_string(result.witness.value_or(0))
                               : "no state in the set satisfies the formula";
    }
  } else {
    result.explanation = holds ? "formula evaluates true" : "formula evaluates false";
  }
  return result;
}

void check_query_syntax(std::string_view query) {
  QueryParser parser(query);
  (void)parser.parse_query();
}

}  // namespace pnut::analysis
