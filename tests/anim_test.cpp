// Unit tests for the animator (Figure 6): frames, token-flow sub-frames,
// stepping and playback.
#include <gtest/gtest.h>

#include "anim/animator.h"
#include "expr/compile.h"
#include "pipeline/model.h"
#include "sim/simulator.h"

namespace pnut::anim {
namespace {

RecordedTrace small_trace() {
  Net net("tiny");
  const PlaceId a = net.add_place("A", 2);
  const PlaceId b = net.add_place("B");
  const TransitionId t = net.add_transition("move");
  net.add_input(t, a);
  net.add_output(t, b);
  net.set_firing_time(t, DelaySpec::constant(3));

  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(1);
  sim.run_until(10);
  sim.finish();
  return trace;
}

TEST(Animator, InitialFrameShowsMarkedPlaces) {
  const RecordedTrace trace = small_trace();
  Animator anim(trace);
  const std::string frame = anim.current_frame();
  EXPECT_NE(frame.find("t=0"), std::string::npos);
  EXPECT_NE(frame.find("(A)"), std::string::npos);
  EXPECT_NE(frame.find("oo"), std::string::npos);  // two tokens
  EXPECT_EQ(frame.find("(B)"), std::string::npos) << "empty places hidden by default";
}

TEST(Animator, ShowEmptyPlacesOption) {
  const RecordedTrace trace = small_trace();
  AnimOptions options;
  options.show_empty_places = true;
  Animator anim(trace, options);
  EXPECT_NE(anim.current_frame().find("(B)"), std::string::npos);
}

TEST(Animator, StartStepShowsTokenFlowOverArc) {
  const RecordedTrace trace = small_trace();
  Animator anim(trace);
  const auto frames = anim.single_step();  // the Start of the first firing
  ASSERT_EQ(frames.size(), 2u);
  // Sub-frame 1: token in transit from A into [move].
  EXPECT_NE(frames[0].find("A ==(1)==> [move]"), std::string::npos);
  EXPECT_NE(frames[0].find("begins firing"), std::string::npos);
  // Sub-frame 2: the transition is firing (token held).
  EXPECT_NE(frames[1].find("[move]"), std::string::npos);
  EXPECT_NE(frames[1].find("firing"), std::string::npos);
}

TEST(Animator, EndStepShowsTokenArrival) {
  const RecordedTrace trace = small_trace();
  Animator anim(trace);
  anim.single_step();  // start #1
  // Next event is the second Start (both firings start at t=0? no —
  // single-server: the End at t=3 comes after the first Start).
  std::vector<std::string> frames;
  while (!anim.at_end()) {
    frames = anim.single_step();
    if (frames[0].find("completes firing") != std::string::npos) break;
  }
  ASSERT_FALSE(frames.empty());
  EXPECT_NE(frames[0].find("[move] ==(1)==> B"), std::string::npos);
}

TEST(Animator, PositionAdvancesAndRewinds) {
  const RecordedTrace trace = small_trace();
  Animator anim(trace);
  EXPECT_EQ(anim.position(), 0u);
  anim.single_step();
  EXPECT_EQ(anim.position(), 1u);
  anim.rewind();
  EXPECT_EQ(anim.position(), 0u);
}

TEST(Animator, SingleStepAtEndThrows) {
  const RecordedTrace trace = small_trace();
  Animator anim(trace);
  while (!anim.at_end()) anim.single_step();
  EXPECT_THROW(anim.single_step(), std::logic_error);
}

TEST(Animator, PlayRendersWholeRange) {
  const RecordedTrace trace = small_trace();
  Animator anim(trace);
  const std::string movie = anim.play(trace.num_states() - 1);
  EXPECT_TRUE(anim.at_end());
  // Every firing start appears.
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = movie.find("begins firing", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);  // two tokens moved
}

TEST(Animator, DataUpdatesShownInFiringFrame) {
  Net net;
  net.initial_data().set("x", 0);
  const PlaceId p = net.add_place("P", 1);
  const TransitionId t = net.add_transition("T");
  net.add_input(t, p);
  net.set_action(t, expr::compile_action("x = 7"));

  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(1);
  sim.finish();

  Animator anim(trace);
  const auto frames = anim.single_step();  // immediate firing -> atomic
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_NE(frames[0].find("x := 7"), std::string::npos);
}

TEST(Animator, ManyTokensCollapseToCount) {
  Net net;
  net.add_place("Pool", 20);
  const PlaceId pool = net.place_named("Pool");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, pool);
  net.add_output(t, pool);
  net.set_enabling_time(t, DelaySpec::constant(1));

  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(1);
  sim.run_until(2);
  sim.finish();

  Animator anim(trace);
  EXPECT_NE(anim.current_frame().find("ox20"), std::string::npos);
}

TEST(Animator, PipelineModelAnimates) {
  const Net net = pipeline::build_full_model();
  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(4);
  sim.run_until(30);
  sim.finish();

  Animator anim(trace);
  const std::string movie = anim.play(40);
  EXPECT_NE(movie.find("Start_prefetch"), std::string::npos);
  EXPECT_NE(movie.find("Empty_I_buffers"), std::string::npos);
}

}  // namespace
}  // namespace pnut::anim
