// Unit tests for structural P/T-invariant analysis.
#include <gtest/gtest.h>

#include "analysis/invariants.h"
#include "analysis/reachability.h"
#include "pipeline/model.h"

namespace pnut::analysis {
namespace {

/// Finds an invariant whose support (by place/transition name) matches
/// exactly; returns nullptr if absent.
const Invariant* find_by_support(const Net& net, const std::vector<Invariant>& invs,
                                 std::vector<std::string> names, bool places) {
  std::sort(names.begin(), names.end());
  for (const Invariant& inv : invs) {
    std::vector<std::string> support;
    for (std::size_t i : inv.support()) {
      support.push_back(places ? net.place(PlaceId(static_cast<std::uint32_t>(i))).name
                               : net.transition(TransitionId(static_cast<std::uint32_t>(i)))
                                     .name);
    }
    std::sort(support.begin(), support.end());
    if (support == names) return &inv;
  }
  return nullptr;
}

TEST(PlaceInvariants, SimpleRing) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t1 = net.add_transition("t1");
  net.add_input(t1, a);
  net.add_output(t1, b);
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t2, b);
  net.add_output(t2, a);

  const auto invs = place_invariants(net);
  ASSERT_EQ(invs.size(), 1u);
  EXPECT_EQ(invs[0].weights, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(format_place_invariant(net, invs[0]), "A + B = 1");
  EXPECT_TRUE(covered_by_place_invariants(net, invs));
}

TEST(PlaceInvariants, WeightedConservation) {
  // t converts two A-tokens into one B-token: invariant A + 2*B.
  Net net;
  const PlaceId a = net.add_place("A", 6);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, a, 2);
  net.add_output(t, b, 1);
  const TransitionId back = net.add_transition("back");
  net.add_input(back, b, 1);
  net.add_output(back, a, 2);

  const auto invs = place_invariants(net);
  ASSERT_EQ(invs.size(), 1u);
  EXPECT_EQ(invs[0].weights, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(format_place_invariant(net, invs[0]), "A + 2*B = 6");
}

TEST(PlaceInvariants, TwoIndependentRings) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const PlaceId c = net.add_place("C", 2);
  const PlaceId d = net.add_place("D");
  auto ring = [&](PlaceId x, PlaceId y, const char* n1, const char* n2) {
    const TransitionId t1 = net.add_transition(n1);
    net.add_input(t1, x);
    net.add_output(t1, y);
    const TransitionId t2 = net.add_transition(n2);
    net.add_input(t2, y);
    net.add_output(t2, x);
  };
  ring(a, b, "t1", "t2");
  ring(c, d, "u1", "u2");

  const auto invs = place_invariants(net);
  ASSERT_EQ(invs.size(), 2u);
  EXPECT_NE(find_by_support(net, invs, {"A", "B"}, true), nullptr);
  EXPECT_NE(find_by_support(net, invs, {"C", "D"}, true), nullptr);
}

TEST(PlaceInvariants, UnboundedNetHasNoCover) {
  Net net;
  const PlaceId p = net.add_place("P");
  const TransitionId src = net.add_transition("src");
  net.add_output(src, p);
  const auto invs = place_invariants(net);
  EXPECT_TRUE(invs.empty());
  EXPECT_FALSE(covered_by_place_invariants(net, invs));
}

TEST(PlaceInvariants, PipelineModelStructuralInvariants) {
  // The paper's informal invariants, derived structurally.
  const Net net = pipeline::build_full_model();
  const auto invs = place_invariants(net);
  ASSERT_FALSE(invs.empty());

  // Bus mutual exclusion.
  const Invariant* bus = find_by_support(
      net, invs, {pipeline::names::kBusFree, pipeline::names::kBusBusy}, true);
  ASSERT_NE(bus, nullptr);
  EXPECT_EQ(invariant_value(*bus, Marking::initial(net)), 1u);

  // Every invariant is genuinely invariant across the reachability graph of
  // a scaled-down configuration (atomic semantics).
  pipeline::PipelineConfig small;
  small.ibuffer_words = 2;
  small.exec_classes = {{0, 1.0}};  // zero-delay execution -> atomic firings
  const Net small_net = pipeline::build_full_model(small);
  const auto small_invs = place_invariants(small_net);
  ASSERT_FALSE(small_invs.empty());
  const ReachabilityGraph graph(small_net);
  ASSERT_EQ(graph.status(), ReachStatus::kComplete);
  for (const Invariant& inv : small_invs) {
    const std::uint64_t expected = invariant_value(inv, graph.marking(0));
    for (std::size_t s = 1; s < graph.num_states(); ++s) {
      ASSERT_EQ(invariant_value(inv, graph.marking(s)), expected)
          << format_place_invariant(small_net, inv) << " violated in state " << s;
    }
  }
}

TEST(PlaceInvariants, FormatOmitsUnitWeightsAndShowsConstant) {
  Net net;
  net.add_place("X", 3);
  net.add_place("Y", 1);
  const TransitionId t = net.add_transition("t");
  net.add_input(t, net.place_named("X"), 1);
  net.add_output(t, net.place_named("Y"), 1);
  const TransitionId u = net.add_transition("u");
  net.add_input(u, net.place_named("Y"), 1);
  net.add_output(u, net.place_named("X"), 1);
  const auto invs = place_invariants(net);
  ASSERT_EQ(invs.size(), 1u);
  EXPECT_EQ(format_place_invariant(net, invs[0]), "X + Y = 4");
}

TEST(TransitionInvariants, RingCycle) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t1 = net.add_transition("t1");
  net.add_input(t1, a);
  net.add_output(t1, b);
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t2, b);
  net.add_output(t2, a);

  const auto invs = transition_invariants(net);
  ASSERT_EQ(invs.size(), 1u);
  EXPECT_EQ(invs[0].weights, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(format_transition_invariant(net, invs[0]), "t1 + t2");
}

TEST(TransitionInvariants, AcyclicNetHasNone) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, a);
  net.add_output(t, b);
  EXPECT_TRUE(transition_invariants(net).empty());
}

TEST(TransitionInvariants, WeightedCycleScalesCounts) {
  // t: 1 A -> 2 B; u: 2 B -> 1 A. Cycle needs t twice per... no: t once
  // produces 2 B, u once consumes 2 B and restores 1 A. Net effect on A:
  // -1 + 1 = 0. So x = (1, 1).
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, a, 1);
  net.add_output(t, b, 2);
  const TransitionId u = net.add_transition("u");
  net.add_input(u, b, 2);
  net.add_output(u, a, 1);
  const auto invs = transition_invariants(net);
  ASSERT_EQ(invs.size(), 1u);
  EXPECT_EQ(invs[0].weights, (std::vector<std::uint64_t>{1, 1}));

  // Asymmetric weights: t produces 3 B, u consumes 2 B -> 2*t with 3*u.
  Net net2;
  const PlaceId a2 = net2.add_place("A", 2);
  const PlaceId b2 = net2.add_place("B");
  const TransitionId t2 = net2.add_transition("t");
  net2.add_input(t2, a2, 1);
  net2.add_output(t2, b2, 3);
  const TransitionId u2 = net2.add_transition("u");
  net2.add_input(u2, b2, 2);
  net2.add_output(u2, a2, 1);
  // Cx = 0: A: -x_t + x_u = 0 is wrong (u restores 1 A but consumes 2 B...)
  // A: -x_t + x_u = 0; B: 3 x_t - 2 x_u = 0 -> x_t = x_u and 3x = 2x -> only 0.
  EXPECT_TRUE(transition_invariants(net2).empty());
}

TEST(TransitionInvariants, PipelineHasPerClassCycles) {
  const Net net = pipeline::build_full_model();
  const auto invs = transition_invariants(net);
  ASSERT_FALSE(invs.empty());
  // A type-1 instruction that executes in class 1 and stores nothing is the
  // smallest cycle through the machine; it includes Decode, Type_1, Issue,
  // exec_type_1, no_store and a prefetch pair (buffer words must be
  // replenished: 1 decode consumes 1 word, prefetch delivers 2 -> the
  // minimal integer cycle runs Decode twice per prefetch).
  bool found_instruction_cycle = false;
  for (const Invariant& inv : invs) {
    const std::string text = format_transition_invariant(net, inv);
    if (text.find("Issue") != std::string::npos &&
        text.find("Start_prefetch") != std::string::npos) {
      found_instruction_cycle = true;
      // Decode appears with weight 2 per Start_prefetch.
      const std::uint64_t decode_w =
          inv.weights[net.transition_named(pipeline::names::kDecode).value];
      const std::uint64_t prefetch_w =
          inv.weights[net.transition_named(pipeline::names::kStartPrefetch).value];
      EXPECT_EQ(decode_w, 2 * prefetch_w) << text;
    }
  }
  EXPECT_TRUE(found_instruction_cycle);
}

TEST(Invariants, SupportAndValueHelpers) {
  Invariant inv{{0, 2, 0, 1}};
  EXPECT_EQ(inv.support(), (std::vector<std::size_t>{1, 3}));
  Marking m(4);
  m[PlaceId(1)] = 3;
  m[PlaceId(3)] = 5;
  EXPECT_EQ(invariant_value(inv, m), 2 * 3 + 1 * 5);
}

TEST(Invariants, ReachabilityPassConfirmsStructuralInvariants) {
  // The invariant engine's reachability pass: every structurally derived
  // P-invariant must hold exactly on every explored marking of the full
  // pipeline model.
  const Net net = pipeline::build_full_model();
  const auto invs = place_invariants(net);
  ASSERT_FALSE(invs.empty());
  const ReachabilityGraph graph(net);
  EXPECT_TRUE(check_place_invariants_on_graph(graph, invs).empty());
}

TEST(Invariants, ReachabilityPassFlagsDeviations) {
  // A fabricated non-invariant (weight 1 on a single exchange place) must
  // deviate on some reachable marking, with the deviation pinned to a
  // concrete state and value.
  Net net;
  const PlaceId a = net.add_place("A", 2);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, a);
  net.add_output(t, b);

  const ReachabilityGraph graph(net);
  const Invariant bogus{{1, 0}};  // "A alone is conserved" — it is not
  const auto violations = check_place_invariants_on_graph(graph, {bogus});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, 0u);
  EXPECT_EQ(violations[0].expected, 2u);
  EXPECT_LT(violations[0].value, 2u);
  EXPECT_GT(violations[0].state, 0u);

  const Invariant real{{1, 1}};  // A + B = 2 genuinely holds
  EXPECT_TRUE(check_place_invariants_on_graph(graph, {real}).empty());
}

}  // namespace
}  // namespace pnut::analysis
