// Frozen pins for the exploration engines' bytecode path. The graphs
// below were recorded when an AST/DataContext execution path still ran
// beside the bytecode one and the two were pinned identical; the bytecode
// path must keep reproducing them — same state numbering, markings,
// per-state variables, transition activity, edge pool, deadlocks, status
// and expanded prefix (tests/support/golden_hash.h) — on the paper's
// interpreted models and on randomized expression-backed nets, including
// truncated prefixes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/reachability.h"
#include "pipeline/interpreted.h"
#include "support/golden_hash.h"
#include "support/net_fuzz.h"
#include "textio/pn_format.h"

namespace pnut::analysis {
namespace {

using test_support::fuzz_net;
using test_support::FuzzOptions;
using test_support::hash_graph;

ReachabilityGraph build(const Net& net, std::size_t max_states = 1'000'000) {
  ReachOptions options;
  options.max_states = max_states;
  return ReachabilityGraph(net, options);
}

/// The graph matches its frozen fingerprint.
void expect_golden(const Net& net, std::uint64_t golden,
                   const std::vector<std::string>& scalars, const std::string& label,
                   std::size_t max_states = 1'000'000) {
  EXPECT_EQ(hash_graph(build(net, max_states), scalars, net.num_transitions()), golden)
      << label;
}

const std::vector<std::string> kPipelineScalars = {
    "type", "number_of_operands_needed", "extra_words_needed",
    "exec_cycles_current", "store_needed", "max_type"};

TEST(VmGraphGolden, InterpretedModels) {
  expect_golden(pipeline::build_interpreted_operand_fetch(), 0x725f66f0013338beULL,
                kPipelineScalars, "operand_fetch");
  expect_golden(pipeline::build_interpreted_pipeline(), 0x29a6f12272533ac7ULL,
                kPipelineScalars, "pipeline");
  EXPECT_EQ(build(pipeline::build_interpreted_pipeline()).status(), ReachStatus::kComplete);
}

TEST(VmGraphGolden, TruncatedPrefixes) {
  const Net net = pipeline::build_interpreted_pipeline();
  EXPECT_EQ(build(net, 100).status(), ReachStatus::kTruncated);
  expect_golden(net, 0xe9864ccaa267030eULL, kPipelineScalars, "truncated@100", 100);
  expect_golden(net, 0xb4c1d9952ddd1a91ULL, kPipelineScalars, "truncated@1000", 1000);
}

// A .pn-sourced model exercising the scripting layer end to end inside the
// exploration engines: document functions (one with a for loop), a tunable
// param, a document array written by actions, and loops in an action.
constexpr const char* kScriptedModel = R"pn(
net scripted_gadget
fn "wrap(v) { return v % 4; }"
fn "accumulate(seed) { let acc = seed; for k = 0 to 3 { acc = acc + scratch[k]; } return wrap(acc); }"
param step 2
var total 0
array scratch 4
place idle init 1 capacity 1
place busy capacity 1
trans begin in idle out busy when "total < 6"
      do "scratch[wrap(total)] = wrap(total + step); total = total + 1"
trans finish in busy out idle do "total = total + accumulate(total)"
trans skip in idle out idle when "total < 6" do "total = total + step"
trans reset in idle out idle when "total >= 6"
      do "total = 0; for k = 0 to 3 { scratch[k] = 0; }"
)pn";

TEST(VmGraphGolden, ScriptedPnModel) {
  const Net net = textio::parse_net(kScriptedModel).net;
  const ReachabilityGraph graph = build(net);
  EXPECT_EQ(graph.status(), ReachStatus::kComplete);
  EXPECT_GE(graph.num_states(), 10u);
  expect_golden(net, 0x212cc0b20bbc94ebULL, {"total", "step"}, "scripted-pn");
}

// One fingerprint per fuzz seed, 1..45 (complete graphs).
constexpr std::uint64_t kFuzzedGolden[] = {
    0x1322ed1873914314ULL, 0x1013f73a87399e71ULL, 0xadb5e6beba2ae02cULL,
    0x4edd0b3a6000f615ULL, 0xaa7f77177d8db405ULL, 0x2538cdee48f977ddULL,
    0x9f205994f917fcebULL, 0x18a4d0a6a9eb8870ULL, 0xb5aedbdb8210cc63ULL,
    0x6d7bb06197737306ULL, 0xc482918eea46ebe2ULL, 0xef77958a2878435eULL,
    0xb294f7006784cc28ULL, 0x85162b6843d59621ULL, 0x8c8a69e008c52239ULL,
    0x6371bb714e140b8cULL, 0xb88068c857c0cfa3ULL, 0x4807e8f95b184d05ULL,
    0x2106512fe9eeb812ULL, 0x6febcf90ce8805feULL, 0x434d5082d5922918ULL,
    0x638ab9000d16360dULL, 0xf0aabd1b0fa43b17ULL, 0x34dd3a670eddab63ULL,
    0xa00a87af37bc989cULL, 0x3763019c5d36be0bULL, 0x0f94f017d678ebeeULL,
    0x3a1de537a69665b5ULL, 0xbda70bcf0603ddeeULL, 0x75a38197c52ebf36ULL,
    0x69f1366ebb590932ULL, 0x6a12d5355d19b126ULL, 0x21b59d4b5bb032c5ULL,
    0x24c05ac9215d30a1ULL, 0x0503f749f748e241ULL, 0xbd4ccf2d2c7793d8ULL,
    0x79b3fb2ef492ae81ULL, 0x6605c8c72083d1fcULL, 0xd00632ff9e235623ULL,
    0xd95150f220bd0ff1ULL, 0xc6bcfecdb86a07aaULL, 0x574541979841fca5ULL,
    0x1003a3be9f2f7f80ULL, 0xf9e37217f98b5d4cULL, 0x2d3921356d0b2b65ULL,
};

TEST(VmGraphGolden, FuzzedExpressionNets) {
  FuzzOptions options;
  options.interpreted = true;
  for (std::uint64_t seed = 1; seed <= 45; ++seed) {
    expect_golden(fuzz_net(seed, options), kFuzzedGolden[seed - 1], {"x", "late"},
                  "seed " + std::to_string(seed));
  }
}

// One fingerprint per fuzz seed, 50..65, truncated at 40 states.
constexpr std::uint64_t kFuzzedTruncatedGolden[] = {
    0x9e3de4b5081c28dcULL, 0x38ec9232f20077f6ULL, 0xb2917ce008b2d830ULL,
    0x19e4b941394802a5ULL, 0xc0fb4f7d5d26d66dULL, 0x119ed672b24580fdULL,
    0x29e51d1c09b3c300ULL, 0x0a25dd6a011be1ceULL, 0x21eae552466660e1ULL,
    0x4b934b784f074ab1ULL, 0xe6bec8f8fb0bb8c4ULL, 0xeffc1e3e500ec8e2ULL,
    0x774bd2615a9caa56ULL, 0xab54e1a01c16d1c7ULL, 0x1bfa6820957e6eb8ULL,
    0xcf0db6a4da8ee22eULL,
};

TEST(VmGraphGolden, FuzzedTruncations) {
  FuzzOptions options;
  options.interpreted = true;
  for (std::uint64_t seed = 50; seed <= 65; ++seed) {
    expect_golden(fuzz_net(seed, options), kFuzzedTruncatedGolden[seed - 50],
                  {"x", "late"}, "seed " + std::to_string(seed), 40);
  }
}

TEST(VmGraphGolden, MemoryFootprintHasNoPerStateSnapshots) {
  // Per-state data is arena words, not a DataContext snapshot: the graph
  // stays >= 3x below the 8657607 bytes the AST path's per-state snapshots
  // took on the paper's flagship interpreted model.
  const ReachabilityGraph graph = build(pipeline::build_interpreted_pipeline());
  EXPECT_LT(graph.memory_bytes() * 3, 8657607u);
}

}  // namespace
}  // namespace pnut::analysis
