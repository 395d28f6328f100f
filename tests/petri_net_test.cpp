// Unit tests for net construction, delay specs, structural queries and
// validation.
#include "petri/net.h"

#include <gtest/gtest.h>

#include "expr/compile.h"
#include "petri/rng.h"

namespace pnut {
namespace {

TEST(DelaySpec, DefaultIsImmediateZero) {
  const DelaySpec d;
  EXPECT_TRUE(d.is_statically_zero());
  EXPECT_EQ(d.mean(), 0.0);
  Rng rng(1);
  EXPECT_EQ(d.sample(rng), 0.0);
}

TEST(DelaySpec, ConstantSamplesItself) {
  const DelaySpec d = DelaySpec::constant(5);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), 5.0);
  EXPECT_EQ(d.mean(), 5.0);
  EXPECT_FALSE(d.is_statically_zero());
}

TEST(DelaySpec, ConstantRejectsNegative) {
  EXPECT_THROW(DelaySpec::constant(-1), std::invalid_argument);
}

TEST(DelaySpec, UniformStaysInBounds) {
  const DelaySpec d = DelaySpec::uniform_int(2, 6);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Time t = d.sample(rng);
    ASSERT_GE(t, 2.0);
    ASSERT_LE(t, 6.0);
    ASSERT_EQ(t, static_cast<std::int64_t>(t));
  }
  EXPECT_EQ(d.mean(), 4.0);
}

TEST(DelaySpec, UniformRejectsBadBounds) {
  EXPECT_THROW(DelaySpec::uniform_int(5, 2), std::invalid_argument);
  EXPECT_THROW(DelaySpec::uniform_int(-1, 2), std::invalid_argument);
}

TEST(DelaySpec, DiscreteMatchesWeights) {
  // The paper's execution mix: 1/2/5/10/50 at .5/.3/.1/.05/.05.
  const DelaySpec d = DelaySpec::discrete({{1, .5}, {2, .3}, {5, .1}, {10, .05}, {50, .05}});
  Rng rng(77);
  int ones = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (d.sample(rng) == 1.0) ++ones;
  }
  EXPECT_NEAR(ones / static_cast<double>(draws), 0.5, 0.01);
  EXPECT_NEAR(*d.mean(), 1 * .5 + 2 * .3 + 5 * .1 + 10 * .05 + 50 * .05, 1e-12);
}

TEST(DelaySpec, DiscreteRejectsDegenerate) {
  EXPECT_THROW(DelaySpec::discrete({}), std::invalid_argument);
  EXPECT_THROW(DelaySpec::discrete({{1, 0}}), std::invalid_argument);
  EXPECT_THROW(DelaySpec::discrete({{-1, 1}}), std::invalid_argument);
  EXPECT_THROW(DelaySpec::discrete({{1, -1}}), std::invalid_argument);
}

TEST(DelaySpec, ComputedKeepsItsExpression) {
  const DelaySpec d = expr::compile_delay("n * 3");
  EXPECT_EQ(d.kind(), DelaySpec::Kind::kComputed);
  EXPECT_EQ(d.computed_delay().source, "n * 3");
  ASSERT_NE(d.computed_delay().ast, nullptr);
  EXPECT_FALSE(d.mean().has_value());
  // It reads the data state: only the engines' bytecode evaluates it.
  Rng rng(1);
  EXPECT_THROW((void)d.sample(rng), std::logic_error);
}

TEST(Net, AddAndLookupByName) {
  Net net("n");
  const PlaceId p = net.add_place("P", 2);
  const TransitionId t = net.add_transition("T");
  EXPECT_EQ(net.num_places(), 1u);
  EXPECT_EQ(net.num_transitions(), 1u);
  EXPECT_EQ(net.find_place("P"), p);
  EXPECT_EQ(net.find_transition("T"), t);
  EXPECT_EQ(net.place_named("P"), p);
  EXPECT_EQ(net.transition_named("T"), t);
  EXPECT_FALSE(net.find_place("T").has_value());
  EXPECT_THROW((void)net.place_named("nope"), std::invalid_argument);
  EXPECT_THROW((void)net.transition_named("nope"), std::invalid_argument);
  EXPECT_EQ(net.place(p).initial_tokens, 2u);
}

TEST(Net, ArcConstructionAndWeights) {
  Net net;
  const PlaceId a = net.add_place("A", 6);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("T");
  net.add_input(t, a, 2);
  net.add_output(t, b, 3);
  net.add_inhibitor(t, b, 1);
  EXPECT_EQ(net.input_weight(t, a), 2u);
  EXPECT_EQ(net.input_weight(t, b), 0u);
  EXPECT_EQ(net.output_weight(t, b), 3u);
  EXPECT_EQ(net.transition(t).inhibitors.size(), 1u);
}

TEST(Net, InvalidIdsThrow) {
  Net net;
  const TransitionId t = net.add_transition("T");
  EXPECT_THROW(net.add_input(t, PlaceId(5)), std::out_of_range);
  EXPECT_THROW(net.add_input(TransitionId(9), PlaceId(0)), std::out_of_range);
  EXPECT_THROW(net.set_frequency(TransitionId(9), 1.0), std::out_of_range);
}

TEST(Net, FrequencyMustBePositive) {
  Net net;
  const TransitionId t = net.add_transition("T");
  EXPECT_THROW(net.set_frequency(t, 0), std::invalid_argument);
  EXPECT_THROW(net.set_frequency(t, -2), std::invalid_argument);
  net.set_frequency(t, 0.25);
  EXPECT_EQ(net.transition(t).frequency, 0.25);
}

TEST(Net, StructuralQueries) {
  Net net;
  const PlaceId p = net.add_place("P");
  const TransitionId producer = net.add_transition("producer");
  const TransitionId consumer = net.add_transition("consumer");
  const TransitionId watcher = net.add_transition("watcher");
  const PlaceId q = net.add_place("Q");
  net.add_output(producer, p);
  net.add_input(consumer, p);
  net.add_output(consumer, q);
  net.add_inhibitor(watcher, p);
  net.add_input(watcher, q);
  net.add_output(watcher, q);

  EXPECT_EQ(net.producers_of(p), std::vector<TransitionId>{producer});
  EXPECT_EQ(net.consumers_of(p), std::vector<TransitionId>{consumer});
  EXPECT_EQ(net.inhibited_by(p), std::vector<TransitionId>{watcher});
  EXPECT_TRUE(net.producers_of(q).size() == 2);
}

TEST(Net, IsMarkedGraphPositive) {
  // A simple two-transition ring: each place has one producer/consumer.
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const PlaceId b = net.add_place("B");
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t1, a);
  net.add_output(t1, b);
  net.add_input(t2, b);
  net.add_output(t2, a);
  EXPECT_TRUE(net.is_marked_graph());
}

TEST(Net, IsMarkedGraphRejectsSharedPlace) {
  Net net;
  const PlaceId a = net.add_place("A", 1);
  const TransitionId t1 = net.add_transition("t1");
  const TransitionId t2 = net.add_transition("t2");
  net.add_input(t1, a);
  net.add_output(t1, a);
  net.add_input(t2, a);
  net.add_output(t2, a);
  EXPECT_FALSE(net.is_marked_graph());  // two consumers of A
}

TEST(Net, IsMarkedGraphRejectsWeightsAndInhibitors) {
  Net net;
  const PlaceId a = net.add_place("A", 2);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, a, 2);
  net.add_output(t, b);
  EXPECT_FALSE(net.is_marked_graph());

  Net net2;
  const PlaceId c = net2.add_place("C", 1);
  const PlaceId d = net2.add_place("D");
  const TransitionId u = net2.add_transition("u");
  net2.add_input(u, c);
  net2.add_output(u, d);
  net2.add_inhibitor(u, d);
  EXPECT_FALSE(net2.is_marked_graph());
}

TEST(NetValidate, CleanNetHasNoIssues) {
  Net net("ok");
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  EXPECT_TRUE(net.validate().empty());
  EXPECT_NO_THROW(net.validate_or_throw());
}

TEST(NetValidate, DetectsDuplicateNames) {
  Net net;
  net.add_place("X", 0);
  net.add_place("X", 0);
  const auto issues = net.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("duplicate place name"), std::string::npos);
}

TEST(NetValidate, DetectsPlaceTransitionNameCollision) {
  Net net;
  const PlaceId p = net.add_place("X", 0);
  const TransitionId t = net.add_transition("X");
  net.add_input(t, p);
  bool found = false;
  for (const auto& issue : net.validate()) {
    found |= issue.find("both a place and a transition") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(NetValidate, DetectsIsolatedTransition) {
  Net net;
  net.add_transition("lonely");
  bool found = false;
  for (const auto& issue : net.validate()) {
    found |= issue.find("no input or output arcs") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(NetValidate, DetectsZeroWeightAndDuplicateArcs) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p, 0);
  net.add_input(t, p, 1);
  bool zero = false;
  bool dup = false;
  for (const auto& issue : net.validate()) {
    zero |= issue.find("zero-weight") != std::string::npos;
    dup |= issue.find("duplicate input arcs") != std::string::npos;
  }
  EXPECT_TRUE(zero);
  EXPECT_TRUE(dup);
}

TEST(NetValidate, DetectsInitialTokensAboveCapacity) {
  Net net;
  const PlaceId p = net.add_place("P", 9, 6);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  bool found = false;
  for (const auto& issue : net.validate()) {
    found |= issue.find("above its capacity") != std::string::npos;
  }
  EXPECT_TRUE(found);
  EXPECT_THROW(net.validate_or_throw(), std::invalid_argument);
}

TEST(NetValidate, ThrowListsAllIssues) {
  Net net;
  net.add_place("X", 0);
  net.add_place("X", 0);
  net.add_transition("lonely");
  try {
    net.validate_or_throw();
    FAIL() << "expected validate_or_throw to throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("duplicate place name"), std::string::npos);
    EXPECT_NE(msg.find("no input or output arcs"), std::string::npos);
  }
}

TEST(Net, InitialDataCarriedIntoNet) {
  Net net;
  net.initial_data().set("x", 3);
  net.initial_data().set_table("t", {1, 2});
  EXPECT_EQ(net.initial_data().get("x"), 3);
  EXPECT_EQ(net.initial_data().get_table("t", 1), 2);
}

TEST(Net, PredicateAndActionStored) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  EXPECT_FALSE(net.transition(t).is_interpreted());
  net.set_predicate(t, expr::compile_predicate("1 > 0"));
  EXPECT_TRUE(net.transition(t).is_interpreted());
  net.set_action(t, expr::compile_action("fired = 1"));
  EXPECT_TRUE(net.transition(t).predicate);
  EXPECT_TRUE(net.transition(t).action);
  EXPECT_EQ(net.transition(t).predicate.source, "1 > 0");
  EXPECT_EQ(net.transition(t).action.source, "fired = 1");
}

TEST(Net, ImmediateClassification) {
  Net net;
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.add_output(t, p);
  EXPECT_TRUE(net.transition(t).is_immediate());
  net.set_firing_time(t, DelaySpec::constant(1));
  EXPECT_FALSE(net.transition(t).is_immediate());
  net.set_firing_time(t, DelaySpec::constant(0));
  net.set_enabling_time(t, DelaySpec::constant(2));
  EXPECT_FALSE(net.transition(t).is_immediate());
}

}  // namespace
}  // namespace pnut
