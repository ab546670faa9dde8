#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "models/build.hpp"
#include "models/weights.hpp"
#include "models/workload.hpp"
#include "models/zoo.hpp"

namespace rangerpp::models {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Fault-free float32 output of `g` on `feeds`.
Tensor float_output(const graph::Graph& g, const fi::Feeds& feeds) {
  const graph::ExecutionPlan plan = graph::compile(
      g, {.dtype = tensor::DType::kFloat32, .observe = graph::Observe::kAll});
  graph::Arena arena;
  return graph::Executor{}.run(plan, feeds, arena);
}

Tensor input_for(ModelId id) {
  switch (id) {
    case ModelId::kLeNet: return Tensor::full(Shape{1, 28, 28, 1}, 0.5f);
    case ModelId::kDave:
    case ModelId::kDaveDegrees:
      return Tensor::full(Shape{1, 66, 100, 3}, 0.5f);
    case ModelId::kComma: return Tensor::full(Shape{1, 33, 80, 3}, 0.5f);
    default: return Tensor::full(Shape{1, 32, 32, 3}, 0.5f);
  }
}

constexpr ModelId kAllModels[] = {
    ModelId::kLeNet,      ModelId::kAlexNet, ModelId::kVgg11,
    ModelId::kVgg16,      ModelId::kResNet18, ModelId::kSqueezeNet,
    ModelId::kDave,       ModelId::kDaveDegrees, ModelId::kComma};

class ZooModelTest : public ::testing::TestWithParam<ModelId> {};

TEST_P(ZooModelTest, BuildsAndRunsEndToEnd) {
  const ModelId id = GetParam();
  const Weights w = init_weights(id, default_act(id), 42);
  const graph::Graph g = build_model(id, default_act(id), w);
  const Tensor out = float_output(g, {{"input", input_for(id)}});
  if (is_steering(id)) {
    EXPECT_EQ(out.elements(), 1u);
  } else {
    EXPECT_EQ(out.elements(),
              static_cast<std::size_t>(num_classes(id)));
    // Softmax output sums to ~1.
    float sum = 0.0f;
    for (float v : out.values()) sum += v;
    EXPECT_NEAR(sum, 1.0f, 1e-3);
  }
}

TEST_P(ZooModelTest, OutputHeadIsNotInjectable) {
  const ModelId id = GetParam();
  const Weights w = init_weights(id, default_act(id), 42);
  const graph::Graph g = build_model(id, default_act(id), w);
  // The output node and its producer chain down to the last FC layer must
  // be excluded from injection (paper §V-B).
  const graph::Node& out = g.node(g.output());
  EXPECT_FALSE(out.injectable) << out.name;
}

TEST_P(ZooModelTest, RangerTransformPreservesFaultFreeOutput) {
  const ModelId id = GetParam();
  const Weights w = init_weights(id, default_act(id), 42);
  const graph::Graph g = build_model(id, default_act(id), w);

  std::vector<fi::Feeds> profile;
  for (int i = 0; i < 3; ++i)
    profile.push_back({{"input", input_for(id)}});
  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(g, profile);
  EXPECT_FALSE(bounds.empty());
  const graph::Graph protected_g = core::RangerTransform{}.apply(g, bounds);
  EXPECT_GT(protected_g.size(), g.size());

  const Tensor y0 = float_output(g, {{"input", input_for(id)}});
  const Tensor y1 = float_output(protected_g, {{"input", input_for(id)}});
  ASSERT_EQ(y0.elements(), y1.elements());
  for (std::size_t i = 0; i < y0.elements(); ++i)
    EXPECT_FLOAT_EQ(y0.at(i), y1.at(i)) << model_name(id);
}

INSTANTIATE_TEST_SUITE_P(AllZooModels, ZooModelTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const auto& info) {
                           std::string n = model_name(info.param);
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

TEST(Zoo, Metadata) {
  EXPECT_TRUE(reports_top5(ModelId::kVgg16));
  EXPECT_TRUE(reports_top5(ModelId::kResNet18));
  EXPECT_TRUE(reports_top5(ModelId::kSqueezeNet));
  EXPECT_FALSE(reports_top5(ModelId::kLeNet));
  EXPECT_TRUE(is_steering(ModelId::kDave));
  EXPECT_TRUE(outputs_radians(ModelId::kDave));
  EXPECT_FALSE(outputs_radians(ModelId::kDaveDegrees));
  EXPECT_FALSE(outputs_radians(ModelId::kComma));
  EXPECT_EQ(num_classes(ModelId::kVgg11), 43);
  EXPECT_EQ(default_act(ModelId::kComma), ops::OpKind::kElu);
  EXPECT_EQ(default_act(ModelId::kLeNet), ops::OpKind::kRelu);
}

TEST(Zoo, BranchingModelsHaveNoSequentialArch) {
  EXPECT_THROW(make_arch(ModelId::kResNet18), std::invalid_argument);
  EXPECT_THROW(make_arch(ModelId::kSqueezeNet), std::invalid_argument);
}

TEST(Zoo, TanhVariantSwapsEveryActivation) {
  const Weights w = init_weights(ModelId::kLeNet, ops::OpKind::kTanh, 1);
  const graph::Graph g = build_model(ModelId::kLeNet, ops::OpKind::kTanh, w);
  for (const graph::Node& n : g.nodes()) {
    EXPECT_NE(n.op->kind(), ops::OpKind::kRelu) << n.name;
  }
}

TEST(Zoo, SqueezeNetUsesConcat) {
  const graph::Graph g =
      build_model(ModelId::kSqueezeNet, ops::OpKind::kRelu, {});
  bool found = false;
  for (const graph::Node& n : g.nodes())
    if (n.op->kind() == ops::OpKind::kConcat) found = true;
  EXPECT_TRUE(found);
}

TEST(Zoo, ResNetUsesResidualAdds) {
  const graph::Graph g =
      build_model(ModelId::kResNet18, ops::OpKind::kRelu, {});
  int adds = 0;
  for (const graph::Node& n : g.nodes())
    if (n.op->kind() == ops::OpKind::kAdd) ++adds;
  EXPECT_EQ(adds, 8);  // 4 stages x 2 blocks
}

TEST(Zoo, Vgg16HasThirteenConvActivations) {
  const Arch a = make_arch(ModelId::kVgg16);
  int conv_acts = 0;
  for (const LayerDef& d : a.layers)
    if (const auto* act = std::get_if<ActDef>(&d))
      if (act->name.rfind("act_conv", 0) == 0) ++conv_acts;
  EXPECT_EQ(conv_acts, 13);  // Fig 4: "13 ACT layers in total"
}

TEST(Workload, UntrainedClassifierWorkload) {
  WorkloadOptions opt;
  opt.trained = false;
  opt.profile_samples = 5;
  opt.eval_inputs = 3;
  opt.validation_samples = 10;
  const Workload w = make_workload(ModelId::kAlexNet, opt);
  EXPECT_EQ(w.eval_feeds.size(), 3u);
  EXPECT_EQ(w.profile_feeds.size(), 5u);
  EXPECT_EQ(w.validation.samples.size(), 10u);
  // The graph runs on its own eval feeds.
  const Tensor out = float_output(w.graph, w.eval_feeds[0]);
  EXPECT_EQ(out.elements(), 10u);
}

TEST(Workload, JudgesMatchModelKind) {
  EXPECT_EQ(default_judges(ModelId::kLeNet).size(), 1u);
  EXPECT_EQ(default_judges(ModelId::kVgg16).size(), 2u);
  EXPECT_EQ(default_judges(ModelId::kDave).size(), 4u);
  EXPECT_EQ(judge_labels(ModelId::kDave).size(), 4u);
  EXPECT_EQ(judge_labels(ModelId::kResNet18)[1], "ResNet-18 (top-5)");
}

TEST(WeightIo, RoundTripsAndValidatesFileSize) {
  Weights w;
  w.emplace("conv/filter", Tensor::full(Shape{3, 3, 1, 2}, 0.25f));
  w.emplace("fc/bias", Tensor::full(Shape{4}, -1.0f));
  const std::string path = testing::TempDir() + "/weights_roundtrip.bin";
  save_weights(w, path);

  Weights loaded;
  ASSERT_TRUE(load_weights(loaded, path));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at("conv/filter").shape(), (Shape{3, 3, 1, 2}));
  EXPECT_FLOAT_EQ(loaded.at("fc/bias").at(0), -1.0f);

  // Absent file: plain false (the caller trains and writes the cache).
  Weights none;
  EXPECT_FALSE(load_weights(none, testing::TempDir() + "/no_such.bin"));

  // Truncated file: the size its own header describes no longer matches —
  // must throw a clear error, never silently accept or retrain over it.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string truncated = testing::TempDir() + "/weights_trunc.bin";
  {
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 7));
  }
  Weights t;
  try {
    load_weights(t, truncated);
    FAIL() << "truncated cache was silently accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(truncated), std::string::npos) << msg;
    EXPECT_NE(msg.find("bytes"), std::string::npos) << msg;
  }

  // Trailing garbage after the last entry is corruption too.
  const std::string padded = testing::TempDir() + "/weights_padded.bin";
  {
    std::ofstream out(padded, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.write("junk", 4);
  }
  EXPECT_THROW(load_weights(t, padded), std::runtime_error);
}

TEST(Workload, TrainedLeNetReachesUsableAccuracy) {
  WorkloadOptions opt;
  opt.validation_samples = 100;
  const Workload w = make_workload(ModelId::kLeNet, opt);
  const double acc = top1_accuracy(w.graph, w.input_name, w.validation);
  // Synthetic digits are easy; the trained LeNet must be well above chance
  // for the accuracy experiments (Table II) to mean anything.
  EXPECT_GT(acc, 0.8) << "trained LeNet accuracy " << acc;
}

TEST(Workload, TrainedSteeringModelBeatsPredictingZero) {
  WorkloadOptions opt;
  opt.validation_samples = 60;
  const Workload w = make_workload(ModelId::kComma, opt);
  const SteeringMetrics m =
      steering_metrics(w.graph, w.input_name, w.validation, false);
  // Predicting 0 for angles uniform in [-60, 60] gives RMSE ~34.6.
  EXPECT_LT(m.rmse, 30.0) << "Comma RMSE " << m.rmse;
  EXPECT_LT(m.avg_deviation, m.rmse + 1e-9);
}

}  // namespace
}  // namespace rangerpp::models
