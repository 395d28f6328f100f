// Untimed reachability-graph construction ([MR87], Section 4.4).
//
// Explores all markings (and, for interpreted nets, data states) reachable
// from the initial state under atomic firing semantics: a firing consumes
// its inputs, applies its action, and produces its outputs in one step.
// Time is abstracted away — the graph covers every interleaving the timed
// semantics could produce and more, which is what makes it suitable for
// *verifying* invariants like `Bus_busy + Bus_free = 1` rather than testing
// them on one trace.
//
// Storage: states are interned as fixed-width word vectors (marking tokens,
// plus encoded data words for interpreted nets) in a StateStore arena, and
// edges live in one flat CSR pool (see state_store.h / exploration.h) — no
// per-state strings, maps, or vectors. The graph queries below are scans
// over those flat arrays, which is what lets `max_states` in the millions
// fit in memory and cache.
//
// Interpreted nets run their predicates and actions as bytecode
// (expr/program.h); per-state data is the schema-encoded slot words in the
// arena, after the marking. Caveat: an action calling `irand` makes the
// data successor nondeterministic, and the builder does not enumerate
// actions symbolically. It samples each stochastic action
// `irand_fanout_limit` times with distinct deterministic seeds and adds one
// successor per distinct data outcome — exact for deterministic actions,
// high-coverage sampling for small irand ranges (the paper's models draw
// from ranges of size <= 5). The status never claims completeness it does
// not have: nets with actions report kComplete only in the sampled sense
// documented here.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "analysis/exploration.h"
#include "analysis/spill.h"
#include "analysis/state_space.h"
#include "analysis/state_store.h"
#include "expr/program.h"
#include "expr/vm.h"
#include "petri/compiled_net.h"
#include "petri/data_frame.h"
#include "petri/marking.h"
#include "petri/net.h"
#include "util/stop.h"

namespace pnut::analysis {

struct ReachOptions {
  /// Exploration stops (status kTruncated) beyond this many states.
  std::size_t max_states = 200'000;
  /// A place exceeding this token count marks the net unbounded
  /// (status kUnbounded) and stops exploration.
  TokenCount place_bound = 4096;
  /// Treat declared place capacities as hard bounds: a firing that would
  /// overflow a capacity is considered disabled.
  bool respect_capacities = false;
  /// Samples drawn per stochastic action firing (distinct outcomes each
  /// become a successor).
  std::size_t irand_fanout_limit = 64;
  /// Ignored: the untimed graph has one sequential builder. Kept only
  /// because the frozen benchmark harness (pnbench/src/layers.cpp) assigns it.
  unsigned threads = 1;
  /// Out-of-core exploration (spill.h): when max_resident_bytes is set,
  /// sealed BFS levels and edge rows spill to mmap'd segment files once the
  /// exact resident accounting (memory_bytes()) exceeds the budget. The
  /// graph — state ids, edge order, statuses — is byte-identical to the
  /// all-in-RAM build, because only states behind the BFS cursor and
  /// closed edge rows spill. Interpreted nets spill like plain ones: their
  /// encoded width is frozen before the first state is interned.
  SpillOptions spill;
  /// Cooperative deadline/cancellation (util/stop.h). Polled before every
  /// kStopCheckStride-th expanded state, so a stopped build terminates at a
  /// deterministic position: the truncated prefix (status
  /// kTimeout/kCancelled) is byte-identical to the same-options unstopped
  /// run's prefix, exactly like max_states truncation. The default token
  /// never stops anything.
  StopToken stop;
};

/// One untimed edge: the fired transition and the target state.
struct ReachEdge {
  TransitionId transition;
  std::uint32_t target;
};

class ReachabilityGraph final : public StateSpace,
                                public ExploredGraph<ReachabilityGraph, ReachEdge> {
 public:
  using Edge = ReachEdge;

  /// Build the graph by breadth-first exploration from the initial state.
  /// Compiles the net internally; see the CompiledNet overload to share an
  /// already-compiled net across tools.
  explicit ReachabilityGraph(const Net& net, ReachOptions options = {});
  explicit ReachabilityGraph(std::shared_ptr<const CompiledNet> net,
                             ReachOptions options = {});

  // --- StateSpace interface ----------------------------------------------------
  [[nodiscard]] std::size_t num_states() const override {
    return ExploredGraph::num_states();
  }
  [[nodiscard]] std::int64_t place_tokens(std::size_t state, PlaceId p) const override {
    return store_.state(state)[p.value];
  }
  void gather_place_tokens(std::span<const std::int64_t> states, PlaceId p,
                           std::int64_t* out) const override {
    store_.arena().gather_word(states, p.value, out);
  }
  /// 1 if `t` is enabled in the state, else 0.
  [[nodiscard]] std::int64_t transition_activity(std::size_t state,
                                                 TransitionId t) const override;
  [[nodiscard]] std::optional<std::int64_t> variable(std::size_t state,
                                                     std::string_view name) const override;
  /// Copies the edge pool's targets row by row.
  void successor_rows(std::vector<std::size_t>& offsets,
                      std::vector<std::uint32_t>& targets) const override;
  [[nodiscard]] std::optional<PlaceId> find_place(std::string_view name) const override {
    return net_->find_place(name);  // hashed index of the compiled net
  }
  [[nodiscard]] std::optional<TransitionId> find_transition(
      std::string_view name) const override {
    return net_->find_transition(name);
  }

  // --- graph-specific queries ---------------------------------------------------

  /// True if `state` was fully expanded (its edge row is complete). BFS
  /// expansion order is canonical id order, so the expanded states are the
  /// prefix [0, num_expanded()). On a truncated or unbounded graph the
  /// states past that prefix are frontier leftovers whose empty (or, for
  /// the stopping state, partial) edge rows mean "unexplored", not "stuck".
  [[nodiscard]] bool state_expanded(std::size_t state) const override {
    return state < num_expanded_;
  }

  /// Max tokens observed on `p` across all reachable states (the place's
  /// bound, exact when status() == kComplete). A flat strided arena scan.
  [[nodiscard]] TokenCount place_bound(PlaceId p) const;

  /// Transitions that never appear on any edge (dead transitions). One scan
  /// of the flat edge pool. On a truncated graph this over-approximates:
  /// a listed transition may still fire beyond the explored prefix.
  [[nodiscard]] std::vector<TransitionId> dead_transitions() const;

  /// True if from every *expanded* state the initial state is reachable
  /// again (the net is reversible / cyclic) — a proof when status() ==
  /// kComplete; on a truncated graph never-expanded leftovers are not
  /// counted against reversibility (their onward edges are unknown), so
  /// "false" means "not provable on this prefix". Uses one backward BFS
  /// over a counting-sorted reverse CSR.
  [[nodiscard]] bool is_reversible() const;

 private:
  /// The builder: breadth-first expansion from the initial state.
  void explore(const ReachOptions& options);

  /// Data words join each state only when an action can change them;
  /// action-free nets read the initial data.
  bool track_data_ = false;

  /// Bytecode runtime (null for nets without predicates or actions);
  /// query-time scratch for decoding per-state frames out of the arena. The scratch is the one
  /// piece of shared mutable state on the const query surface, so it is
  /// mutex-guarded: a sealed graph behind shared_ptr<const ...> (the serve
  /// graph cache) takes transition_activity() calls from many client
  /// threads at once. Every other const read — successor iteration, arena
  /// scans, place bounds — touches only sealed flat arrays.
  std::shared_ptr<const expr::NetProgram> program_;
  mutable std::mutex query_mutex_;
  mutable DataFrame query_frame_;
  mutable expr::VmScratch query_scratch_;
};

}  // namespace pnut::analysis
