#include <gtest/gtest.h>

#include "baselines/abft.hpp"
#include "baselines/duplication.hpp"
#include "baselines/ml_corrector.hpp"
#include "baselines/symptom.hpp"
#include "baselines/tmr.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "graph/plan.hpp"

namespace rangerpp::baselines {
namespace {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

graph::Graph small_net() {
  graph::GraphBuilder b;
  b.input("input", Shape{1, 6, 6, 1});
  b.conv2d("conv1", Tensor::full(Shape{3, 3, 1, 4}, 0.2f), Tensor(Shape{4}),
           {1, 1, ops::Padding::kSame});
  b.activation("relu1", ops::OpKind::kRelu);
  b.max_pool("pool", {2, 2, 2, 2, ops::Padding::kValid});
  b.conv2d("conv2", Tensor::full(Shape{3, 3, 4, 2}, 0.1f), Tensor(Shape{2}),
           {1, 1, ops::Padding::kSame});
  b.activation("relu2", ops::OpKind::kRelu);
  b.flatten("flatten");
  return b.finish();
}

std::vector<fi::Feeds> profile_feeds() {
  std::vector<fi::Feeds> out;
  for (int i = 0; i < 4; ++i)
    out.push_back({{"input",
                    Tensor::full(Shape{1, 6, 6, 1},
                                 0.4f + 0.2f * static_cast<float>(i))}});
  return out;
}

// Techniques hook every node, so their plans keep every node.
graph::ExecutionPlan fixed32_plan(const graph::Graph& g) {
  return graph::compile(
      g, {.dtype = DType::kFixed32, .observe = graph::Observe::kAll});
}

// A high-order-bit fault at a conv output (large deviation, SDC-prone).
fi::FaultSet big_fault() { return {{"conv1", 5, 28}}; }
// A low-order-bit fault (benign).
fi::FaultSet small_fault() { return {{"conv1", 5, 0}}; }

TEST(Tmr, CorrectsAnySingleFault) {
  const graph::Graph g = small_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  graph::Arena arena;
  Tmr tmr;
  tmr.prepare(plan, {});
  const graph::Executor exec;
  const fi::Feeds feeds = profile_feeds()[0];
  const Tensor golden = exec.run(plan, feeds, arena);

  // The high-order-bit fault must reach the output and be outvoted; the
  // low-order-bit one may be masked by the maxpool (no mismatch to see),
  // but the voted output must equal the golden output either way.
  const TrialOutcome big = tmr.run_trial(plan, arena, feeds, big_fault());
  EXPECT_TRUE(big.detected);
  for (const fi::FaultSet& faults : {big_fault(), small_fault()}) {
    const TrialOutcome o = tmr.run_trial(plan, arena, feeds, faults);
    for (std::size_t i = 0; i < golden.elements(); ++i)
      EXPECT_FLOAT_EQ(o.output.at(i), golden.at(i));
  }
  EXPECT_DOUBLE_EQ(tmr.overhead_pct(g), 200.0);
}

TEST(Tmr, NoFalsePositiveWithoutFault) {
  const graph::Graph g = small_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  graph::Arena arena;
  Tmr tmr;
  const TrialOutcome o = tmr.run_trial(plan, arena, profile_feeds()[0], {});
  EXPECT_FALSE(o.detected);
}

TEST(SelectiveDuplication, SelectsWithinBudgetAndDetectsCoveredFaults) {
  const graph::Graph g = small_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  graph::Arena arena;
  SelectiveDuplication dup(30.0);
  dup.prepare(plan, {});
  EXPECT_FALSE(dup.duplicated().empty());
  EXPECT_LE(dup.overhead_pct(g), 30.0 + 1e-9);

  // Pick one duplicated and one non-duplicated injectable node.
  std::string covered, uncovered;
  for (const graph::Node& n : g.nodes()) {
    if (!n.injectable) continue;
    if (dup.duplicated().contains(n.name)) {
      covered = n.name;
    } else {
      uncovered = n.name;
    }
  }
  ASSERT_FALSE(covered.empty());
  ASSERT_FALSE(uncovered.empty());

  const fi::Feeds feeds = profile_feeds()[0];
  EXPECT_TRUE(dup.run_trial(plan, arena, feeds, {{covered, 0, 30}}).detected);
  EXPECT_FALSE(
      dup.run_trial(plan, arena, feeds, {{uncovered, 0, 30}}).detected);
}

TEST(SymptomDetector, FlagsLargeDeviationsAndReExecutes) {
  const graph::Graph g = small_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  graph::Arena arena;
  SymptomDetector det(1.1);
  det.prepare(plan, profile_feeds());
  const graph::Executor exec;
  const fi::Feeds feeds = profile_feeds()[0];
  const Tensor golden = exec.run(plan, feeds, arena);

  const TrialOutcome big = det.run_trial(plan, arena, feeds, big_fault());
  EXPECT_TRUE(big.detected);
  // Recovery (re-execution) restores the golden output.
  for (std::size_t i = 0; i < golden.elements(); ++i)
    EXPECT_FLOAT_EQ(big.output.at(i), golden.at(i));

  const TrialOutcome small = det.run_trial(plan, arena, feeds, small_fault());
  EXPECT_FALSE(small.detected);  // below the symptom threshold
  EXPECT_GT(det.overhead_pct(g), 0.0);
}

TEST(MlCorrector, CorrectsFlaggedLayerInPlace) {
  const graph::Graph g = small_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  graph::Arena arena;
  MlCorrector ml(/*calibration_trials=*/50);
  ml.prepare(plan, profile_feeds());
  const graph::Executor exec;
  const fi::Feeds feeds = profile_feeds()[0];
  const Tensor golden = exec.run(plan, feeds, arena);

  // Fault directly at an activation layer: flagged and clamped back.
  const TrialOutcome o = ml.run_trial(plan, arena, feeds, {{"relu1", 3, 28}});
  EXPECT_TRUE(o.detected);
  // After correction the output deviation is bounded by the layer range.
  for (std::size_t i = 0; i < golden.elements(); ++i)
    EXPECT_LT(std::abs(o.output.at(i) - golden.at(i)), 100.0f);

  EXPECT_FALSE(ml.run_trial(plan, arena, feeds, small_fault()).detected);
  EXPECT_GT(ml.overhead_pct(g), 0.0);
  EXPECT_LT(ml.overhead_pct(g), 10.0);
}

TEST(AbftConv, DetectsConvFaultsOnly) {
  const graph::Graph g = small_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  graph::Arena arena;
  AbftConv abft;
  abft.prepare(plan, {});
  const fi::Feeds feeds = profile_feeds()[0];

  // Conv output fault: checksum mismatch.
  EXPECT_TRUE(abft.run_trial(plan, arena, feeds, {{"conv2", 1, 25}}).detected);
  // Fault at the relu (outside conv): invisible to ABFT.
  EXPECT_FALSE(
      abft.run_trial(plan, arena, feeds, {{"relu1", 1, 25}}).detected);
  // No fault, no false positive.
  EXPECT_FALSE(abft.run_trial(plan, arena, feeds, {}).detected);

  const double overhead = abft.overhead_pct(g);
  EXPECT_GT(overhead, 0.0);
  EXPECT_LT(overhead, 60.0);
}

}  // namespace
}  // namespace rangerpp::baselines
