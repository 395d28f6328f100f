// CompiledNet: the CSR arc spans, the inverse place->transition adjacency,
// the flags, and the enablement tests must agree exactly with the Net's own
// (slow, scanning) structural queries — on hand-built nets, on the paper's
// pipeline model, and on randomized nets.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "expr/program.h"
#include "petri/compiled_net.h"
#include "petri/marking.h"
#include "petri/net.h"
#include "petri/rng.h"
#include "pipeline/interpreted.h"
#include "pipeline/model.h"
#include "support/reference_enablement.h"

namespace pnut {
namespace {

std::vector<TransitionId> to_vec(std::span<const TransitionId> s) {
  return {s.begin(), s.end()};
}

/// Random valid net: no duplicate arcs per (transition, kind, place), mixed
/// weights, some inhibitors, some predicates.
Net random_net(Rng& rng, std::size_t num_places, std::size_t num_transitions) {
  Net net("random");
  std::vector<PlaceId> places;
  for (std::size_t i = 0; i < num_places; ++i) {
    places.push_back(net.add_place("p" + std::to_string(i),
                                   static_cast<TokenCount>(rng.next_int(0, 3))));
  }
  for (std::size_t i = 0; i < num_transitions; ++i) {
    const TransitionId t = net.add_transition("t" + std::to_string(i));
    std::set<std::uint32_t> used_in, used_out, used_inh;
    const auto arcs = static_cast<std::size_t>(rng.next_int(1, 3));
    for (std::size_t k = 0; k < arcs; ++k) {
      const auto p = static_cast<std::uint32_t>(rng.next_int(0, num_places - 1));
      if (used_in.insert(p).second) {
        net.add_input(t, places[p], static_cast<TokenCount>(rng.next_int(1, 2)));
      }
      const auto q = static_cast<std::uint32_t>(rng.next_int(0, num_places - 1));
      if (used_out.insert(q).second) {
        net.add_output(t, places[q], static_cast<TokenCount>(rng.next_int(1, 2)));
      }
    }
    if (rng.next_bool(0.3)) {
      const auto p = static_cast<std::uint32_t>(rng.next_int(0, num_places - 1));
      if (used_inh.insert(p).second) {
        net.add_inhibitor(t, places[p], static_cast<TokenCount>(rng.next_int(1, 2)));
      }
    }
    if (rng.next_bool(0.2)) net.set_enabling_time(t, DelaySpec::constant(2));
    if (rng.next_bool(0.2)) net.set_policy(t, FiringPolicy::kInfiniteServer);
  }
  return net;
}

void expect_adjacency_matches(const Net& net, const CompiledNet& compiled) {
  ASSERT_EQ(compiled.num_places(), net.num_places());
  ASSERT_EQ(compiled.num_transitions(), net.num_transitions());
  for (std::uint32_t pi = 0; pi < net.num_places(); ++pi) {
    const PlaceId p(pi);
    EXPECT_EQ(to_vec(compiled.consumers(p)), net.consumers_of(p)) << "place " << pi;
    EXPECT_EQ(to_vec(compiled.producers(p)), net.producers_of(p)) << "place " << pi;
    EXPECT_EQ(to_vec(compiled.inhibitor_testers(p)), net.inhibited_by(p)) << "place " << pi;

    // Watchers = consumers ∪ inhibitor testers, sorted, deduplicated.
    std::set<TransitionId> expected;
    for (TransitionId t : net.consumers_of(p)) expected.insert(t);
    for (TransitionId t : net.inhibited_by(p)) expected.insert(t);
    const auto watchers = to_vec(compiled.eligibility_watchers(p));
    EXPECT_TRUE(std::is_sorted(watchers.begin(), watchers.end()));
    EXPECT_EQ(std::set<TransitionId>(watchers.begin(), watchers.end()), expected)
        << "place " << pi;
    EXPECT_EQ(watchers.size(), expected.size()) << "watchers not deduplicated";
  }
  for (std::uint32_t ti = 0; ti < net.num_transitions(); ++ti) {
    const TransitionId t(ti);
    const Transition& tr = net.transition(t);
    ASSERT_EQ(compiled.inputs(t).size(), tr.inputs.size());
    EXPECT_TRUE(std::equal(compiled.inputs(t).begin(), compiled.inputs(t).end(),
                           tr.inputs.begin()));
    EXPECT_TRUE(std::equal(compiled.outputs(t).begin(), compiled.outputs(t).end(),
                           tr.outputs.begin()));
    EXPECT_TRUE(std::equal(compiled.inhibitors(t).begin(), compiled.inhibitors(t).end(),
                           tr.inhibitors.begin()));
    EXPECT_EQ(compiled.is_immediate(t), tr.is_immediate());
    EXPECT_EQ(compiled.is_interpreted(t), tr.is_interpreted());
    EXPECT_EQ(compiled.has_inhibitors(t), !tr.inhibitors.empty());
    EXPECT_EQ(compiled.is_single_server(t), tr.policy == FiringPolicy::kSingleServer);
    EXPECT_EQ(compiled.frequency(t), tr.frequency);
    EXPECT_EQ(compiled.transition_name(t), tr.name);
    for (std::uint32_t pi = 0; pi < net.num_places(); ++pi) {
      const PlaceId p(pi);
      EXPECT_EQ(compiled.input_weight(t, p), net.input_weight(t, p));
      EXPECT_EQ(compiled.output_weight(t, p), net.output_weight(t, p));
    }
  }
}

void expect_enablement_matches(const Net& net, const CompiledNet& compiled, Rng& rng) {
  // Full enablement on the engines' path (CSR token test + the predicate's
  // bytecode) against the reference rule (AST predicate on a DataContext).
  const DataContext data = net.initial_data();
  const auto program = expr::NetProgram::compile(net);
  expr::VmScratch vm;
  const auto enabled = [&](const Marking& m, TransitionId t) {
    if (!compiled.tokens_available(m, t)) return false;
    const expr::Code* predicate = program->predicate(t);
    return predicate == nullptr ||
           expr::vm_eval(*predicate, program->initial_frame(), nullptr, vm) != 0;
  };
  for (int round = 0; round < 20; ++round) {
    Marking m(net.num_places());
    for (std::uint32_t pi = 0; pi < net.num_places(); ++pi) {
      m[PlaceId(pi)] = static_cast<TokenCount>(rng.next_int(0, 4));
    }
    for (std::uint32_t ti = 0; ti < net.num_transitions(); ++ti) {
      const TransitionId t(ti);
      EXPECT_EQ(compiled.tokens_available(m, t), tokens_available(net, m, t));
      EXPECT_EQ(enabled(m, t), test_support::is_enabled(net, m, t, data));
      EXPECT_EQ(compiled.enabling_degree(m, t), enabling_degree(net, m, t));
    }
  }
}

TEST(CompiledNet, AdjacencyMatchesNetOnPipelineModel) {
  const Net net = pipeline::build_full_model();
  const CompiledNet compiled(net);
  expect_adjacency_matches(net, compiled);
}

TEST(CompiledNet, AdjacencyMatchesNetOnInterpretedModel) {
  const Net net = pipeline::build_interpreted_pipeline();
  const CompiledNet compiled(net);
  expect_adjacency_matches(net, compiled);
}

TEST(CompiledNet, AdjacencyAndEnablementMatchOnRandomizedNets) {
  Rng rng(2024);
  for (int round = 0; round < 25; ++round) {
    const auto places = static_cast<std::size_t>(rng.next_int(2, 12));
    const auto transitions = static_cast<std::size_t>(rng.next_int(1, 15));
    const Net net = random_net(rng, places, transitions);
    if (!net.validate().empty()) continue;  // e.g. transition with no arcs
    const CompiledNet compiled(net);
    expect_adjacency_matches(net, compiled);
    expect_enablement_matches(net, compiled, rng);
    // The two marked-graph implementations must never drift on valid nets.
    EXPECT_EQ(compiled.is_marked_graph(), net.is_marked_graph());
  }
}

TEST(CompiledNet, ValidatesAtCompileTime) {
  Net net("bad");
  net.add_place("p");
  net.add_transition("t");  // no arcs: structural problem
  EXPECT_THROW(CompiledNet{net}, std::invalid_argument);
}

TEST(CompiledNet, NameIndexFindsEveryElement) {
  const Net net = pipeline::build_full_model();
  const CompiledNet compiled(net);
  for (std::uint32_t pi = 0; pi < net.num_places(); ++pi) {
    const auto found = compiled.find_place(net.place(PlaceId(pi)).name);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->value, pi);
  }
  for (std::uint32_t ti = 0; ti < net.num_transitions(); ++ti) {
    const auto found = compiled.find_transition(net.transition(TransitionId(ti)).name);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->value, ti);
  }
  EXPECT_FALSE(compiled.find_place("no_such_place").has_value());
  EXPECT_FALSE(compiled.find_transition("no_such_transition").has_value());
  EXPECT_THROW((void)compiled.place_named("no_such_place"), std::invalid_argument);
}

TEST(CompiledNet, NetNameIndexKeepsFirstDuplicate) {
  // The hashed index must preserve the historical first-match scan order
  // for duplicate names (validate() still reports them as a problem).
  Net net("dups");
  const PlaceId first = net.add_place("same");
  net.add_place("same");
  EXPECT_EQ(net.find_place("same"), first);
  EXPECT_FALSE(net.validate().empty());
}

TEST(CompiledNet, MarkedGraphFlagMatchesNet) {
  // The pipeline model has inhibitors and conflicts: not a marked graph.
  const Net pipeline_net = pipeline::build_full_model();
  EXPECT_EQ(CompiledNet(pipeline_net).is_marked_graph(), pipeline_net.is_marked_graph());
  EXPECT_FALSE(pipeline_net.is_marked_graph());

  // A simple ring is one.
  Net ring("ring");
  const PlaceId a = ring.add_place("a", 1);
  const PlaceId b = ring.add_place("b");
  const TransitionId t1 = ring.add_transition("t1");
  ring.add_input(t1, a);
  ring.add_output(t1, b);
  const TransitionId t2 = ring.add_transition("t2");
  ring.add_input(t2, b);
  ring.add_output(t2, a);
  EXPECT_TRUE(ring.is_marked_graph());
  EXPECT_TRUE(CompiledNet(ring).is_marked_graph());

  // A place with two consumers breaks it, in both implementations.
  const TransitionId t3 = ring.add_transition("t3");
  ring.add_input(t3, b);
  ring.add_output(t3, a);
  EXPECT_FALSE(ring.is_marked_graph());
  EXPECT_FALSE(CompiledNet(ring).is_marked_graph());
}

TEST(CompiledNet, SnapshotIsImmuneToLaterNetMutation) {
  Net net("mutate");
  const PlaceId p = net.add_place("p", 1);
  const PlaceId q = net.add_place("q");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, q);
  const CompiledNet compiled(net);

  net.set_initial_tokens(p, 99);
  net.add_transition("later");  // net no longer matches the snapshot

  EXPECT_EQ(compiled.num_transitions(), 1u);
  EXPECT_EQ(compiled.initial_tokens(p), 1u);
  EXPECT_EQ(to_vec(compiled.consumers(p)), std::vector<TransitionId>{t});
}

TEST(CompiledNet, IncidenceMatchesWeights) {
  const Net net = pipeline::build_full_model();
  const CompiledNet compiled(net);
  for (std::uint32_t ti = 0; ti < net.num_transitions(); ++ti) {
    for (std::uint32_t pi = 0; pi < net.num_places(); ++pi) {
      const TransitionId t(ti);
      const PlaceId p(pi);
      EXPECT_EQ(compiled.incidence(t, p),
                static_cast<std::int64_t>(net.output_weight(t, p)) -
                    static_cast<std::int64_t>(net.input_weight(t, p)));
    }
  }
}

}  // namespace
}  // namespace pnut
