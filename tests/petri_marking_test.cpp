// Unit tests for markings and enablement rules (weighted arcs, inhibitor
// thresholds, predicates, enabling degree).
#include "petri/marking.h"

#include <gtest/gtest.h>

#include "expr/compile.h"
#include "support/reference_enablement.h"

namespace pnut {
namespace {

using test_support::enabled_transitions;
using test_support::is_enabled;

Net two_place_net() {
  Net net;
  net.add_place("A", 3);
  net.add_place("B", 0);
  return net;
}

TEST(Marking, InitialFromNet) {
  const Net net = two_place_net();
  const Marking m = Marking::initial(net);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m[net.place_named("A")], 3u);
  EXPECT_EQ(m[net.place_named("B")], 0u);
  EXPECT_EQ(m.total(), 3u);
}

TEST(Marking, AddRemove) {
  const Net net = two_place_net();
  Marking m = Marking::initial(net);
  const PlaceId a = net.place_named("A");
  m.add(a, 2);
  EXPECT_EQ(m[a], 5u);
  m.remove(a, 4);
  EXPECT_EQ(m[a], 1u);
}

TEST(Marking, RemoveUnderflowThrows) {
  const Net net = two_place_net();
  Marking m = Marking::initial(net);
  EXPECT_THROW(m.remove(net.place_named("B"), 1), std::underflow_error);
  EXPECT_THROW(m.remove(net.place_named("A"), 4), std::underflow_error);
}

TEST(Marking, EqualityAndHash) {
  const Net net = two_place_net();
  Marking m1 = Marking::initial(net);
  Marking m2 = Marking::initial(net);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(MarkingHash{}(m1), MarkingHash{}(m2));
  m2.add(net.place_named("B"), 1);
  EXPECT_NE(m1, m2);
}

TEST(Marking, ToStringShowsOnlyMarkedPlaces) {
  const Net net = two_place_net();
  const Marking m = Marking::initial(net);
  EXPECT_EQ(m.to_string(net), "A=3");
  Marking empty(2);
  EXPECT_EQ(empty.to_string(net), "(empty)");
}

TEST(Enablement, RequiresInputWeights) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a, 2);
  const DataContext data;
  Marking m = Marking::initial(net);
  EXPECT_FALSE(is_enabled(net, m, t, data));
  m.add(a, 1);
  EXPECT_TRUE(is_enabled(net, m, t, data));
}

TEST(Enablement, InhibitorBlocksAtThreshold) {
  // Inhibitor with threshold 2: blocked when tokens >= 2.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId guard = net.add_place("G", 0);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_inhibitor(t, guard, 2);
  const DataContext data;
  Marking m = Marking::initial(net);
  EXPECT_TRUE(is_enabled(net, m, t, data));
  m.add(guard, 1);
  EXPECT_TRUE(is_enabled(net, m, t, data));  // below threshold
  m.add(guard, 1);
  EXPECT_FALSE(is_enabled(net, m, t, data));  // at threshold
}

TEST(Enablement, ClassicalInhibitorThresholdOne) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId guard = net.add_place("G", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_inhibitor(t, guard);
  const DataContext data;
  Marking m = Marking::initial(net);
  EXPECT_FALSE(is_enabled(net, m, t, data));
  m.remove(guard, 1);
  EXPECT_TRUE(is_enabled(net, m, t, data));
}

TEST(Enablement, PredicateGates) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.set_predicate(t, expr::compile_predicate("go != 0"));
  DataContext data;
  data.set("go", 0);
  const Marking m = Marking::initial(net);
  EXPECT_TRUE(tokens_available(net, m, t));
  EXPECT_FALSE(is_enabled(net, m, t, data));
  data.set("go", 1);
  EXPECT_TRUE(is_enabled(net, m, t, data));
}

TEST(Enablement, SourceTransitionAlwaysTokenEnabled) {
  Net net;
  const PlaceId a = net.add_place("A", 0);
  const TransitionId t = net.add_transition("src");
  net.add_output(t, a);
  const DataContext data;
  const Marking m = Marking::initial(net);
  EXPECT_TRUE(is_enabled(net, m, t, data));
  EXPECT_EQ(enabling_degree(net, m, t), 1u);
}

TEST(EnablingDegree, BoundedByWeightedInputs) {
  Net net;
  const PlaceId a = net.add_place("A", 7);
  const PlaceId b = net.add_place("B", 3);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a, 2);  // supports 3 concurrent firings
  net.add_input(t, b, 1);  // supports 3
  const Marking m = Marking::initial(net);
  EXPECT_EQ(enabling_degree(net, m, t), 3u);
}

TEST(EnablingDegree, ZeroWhenInhibited) {
  Net net;
  const PlaceId a = net.add_place("A", 5);
  const PlaceId guard = net.add_place("G", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a);
  net.add_inhibitor(t, guard);
  const Marking m = Marking::initial(net);
  EXPECT_EQ(enabling_degree(net, m, t), 0u);
}

TEST(EnabledTransitions, ListsExactlyEnabled) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B", 0);
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t1, a);
  net.add_input(t2, b);
  net.add_output(t1, b);
  net.add_output(t2, a);
  const DataContext data;
  const Marking m = Marking::initial(net);
  const auto enabled = enabled_transitions(net, m, data);
  ASSERT_EQ(enabled.size(), 1u);
  EXPECT_EQ(enabled[0], t1);
}

}  // namespace
}  // namespace pnut
