// Parameterized structural sweeps across the whole model zoo — properties
// every experiment relies on, checked without expensive execution (shape
// inference and graph inspection only, plus quantised single forwards for
// the small models).
#include <gtest/gtest.h>

#include <tuple>

#include "core/flops_profiler.hpp"
#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/fault_model.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "models/workload.hpp"
#include "models/zoo.hpp"
#include "util/metrics.hpp"

namespace rangerpp::models {
namespace {

constexpr ModelId kAllModels[] = {
    ModelId::kLeNet,      ModelId::kAlexNet,     ModelId::kVgg11,
    ModelId::kVgg16,      ModelId::kResNet18,    ModelId::kSqueezeNet,
    ModelId::kDave,       ModelId::kDaveDegrees, ModelId::kComma};

std::string safe_name(ModelId id) {
  std::string n = model_name(id);
  for (char& c : n)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return n;
}

graph::Graph he_graph(ModelId id) {
  return build_model(id, default_act(id),
                     init_weights(id, default_act(id), 99));
}

class ZooSweepTest : public ::testing::TestWithParam<ModelId> {};

TEST_P(ZooSweepTest, ShapeInferenceSucceedsEndToEnd) {
  const graph::Graph g = he_graph(GetParam());
  const auto shapes = g.infer_shapes();
  ASSERT_EQ(shapes.size(), g.size());
  // Output shape matches the task.
  const tensor::Shape out = shapes[static_cast<std::size_t>(g.output())];
  if (is_steering(GetParam())) {
    EXPECT_EQ(out.elements(), 1u);
  } else {
    EXPECT_EQ(out.elements(),
              static_cast<std::size_t>(num_classes(GetParam())));
  }
}

TEST_P(ZooSweepTest, EveryNodeNameIsUnique) {
  const graph::Graph g = he_graph(GetParam());
  for (const graph::Node& n : g.nodes())
    EXPECT_EQ(g.find(n.name), n.id) << n.name;
}

TEST_P(ZooSweepTest, FlopsArePositiveAndConvDominatedForConvNets) {
  const graph::Graph g = he_graph(GetParam());
  // Per-kind FLOP accounting is published to the metrics registry.
  util::metrics::set_enabled(true);
  util::metrics::reset();
  const core::FlopsReport r = core::profile_flops(g);
  util::metrics::set_enabled(false);
  EXPECT_GT(r.total, 0u);
  EXPECT_EQ(util::metrics::counter_value("flops.total"), r.total);
  const std::uint64_t conv = util::metrics::counter_value("flops.Conv2D");
  util::metrics::reset();
  ASSERT_GT(conv, 0u);
  // Every model in the zoo is a CNN: convolution is the dominant cost.
  EXPECT_GT(conv, r.total / 2);
}

TEST_P(ZooSweepTest, SiteSpaceExcludesWeightsAndOutputHead) {
  const graph::Graph g = he_graph(GetParam());
  const fi::SiteSpace sites(g, tensor::DType::kFixed32);
  EXPECT_GT(sites.total_elements(), 0u);
  for (const graph::Node& n : g.nodes()) {
    if (n.op->kind() == ops::OpKind::kConst ||
        n.op->kind() == ops::OpKind::kInput) {
      EXPECT_EQ(sites.elements_of(n.name), 0u) << n.name;
    }
  }
  // The designated output is never a fault site (paper §V-B).
  EXPECT_EQ(sites.elements_of(g.node(g.output()).name), 0u);
}

TEST_P(ZooSweepTest, TransformInsertsAtLeastOneClampPerActivation) {
  const graph::Graph g = he_graph(GetParam());
  // Synthetic bounds covering every activation layer.
  core::Bounds bounds;
  for (const graph::Node& n : g.nodes())
    if (ops::is_activation(n.op->kind()))
      bounds.emplace(n.name, core::Bound{-10.0f, 10.0f});
  ASSERT_FALSE(bounds.empty());

  core::RangerTransform transform;
  const graph::Graph prot = transform.apply(g, bounds);
  EXPECT_EQ(transform.last_stats().activations_bounded, bounds.size());
  EXPECT_GE(transform.last_stats().restriction_ops_inserted, bounds.size());
  // Idempotence: re-protecting a protected graph inserts nothing new.
  core::RangerTransform again;
  const graph::Graph twice = again.apply(prot, bounds);
  EXPECT_EQ(again.last_stats().restriction_ops_inserted, 0u);
  EXPECT_EQ(twice.size(), prot.size());
}

TEST_P(ZooSweepTest, TransformKeepsFlopsOverheadModest) {
  const graph::Graph g = he_graph(GetParam());
  core::Bounds bounds;
  for (const graph::Node& n : g.nodes())
    if (ops::is_activation(n.op->kind()))
      bounds.emplace(n.name, core::Bound{-10.0f, 10.0f});
  const graph::Graph prot = core::RangerTransform{}.apply(g, bounds);
  const double pct = core::flops_overhead_pct(g, prot);
  EXPECT_GT(pct, 0.0);
  EXPECT_LT(pct, 10.0) << "Ranger's check cost must stay small (Table IV)";
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooSweepTest,
                         ::testing::ValuesIn(kAllModels),
                         [](const auto& info) {
                           return safe_name(info.param);
                         });

// ---- dtype x small-model execution sweep ------------------------------------

class DtypeModelTest
    : public ::testing::TestWithParam<std::tuple<ModelId, tensor::DType>> {};

TEST_P(DtypeModelTest, QuantisedForwardProducesFiniteRepresentableValues) {
  const auto [id, dtype] = GetParam();
  const graph::Graph g = he_graph(id);
  const graph::ExecutionPlan plan = graph::compile(g, {.dtype = dtype});
  const graph::Executor exec;
  graph::Arena arena;
  tensor::Shape in;
  switch (id) {
    case ModelId::kLeNet: in = tensor::Shape{1, 28, 28, 1}; break;
    case ModelId::kComma: in = tensor::Shape{1, 33, 80, 3}; break;
    default: in = tensor::Shape{1, 32, 32, 3}; break;
  }
  const tensor::Tensor out =
      exec.run(plan, {{"input", tensor::Tensor::full(in, 0.5f)}}, arena);
  for (float v : out.values()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(tensor::dtype_quantize(dtype, v), v)
        << "executor must only produce representable values";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallModelsAllDtypes, DtypeModelTest,
    ::testing::Combine(::testing::Values(ModelId::kLeNet, ModelId::kVgg11,
                                         ModelId::kComma),
                       ::testing::Values(tensor::DType::kFloat32,
                                         tensor::DType::kFixed32,
                                         tensor::DType::kFixed16)),
    [](const auto& info) {
      std::string n = safe_name(std::get<0>(info.param));
      switch (std::get<1>(info.param)) {
        case tensor::DType::kFloat32: n += "_float32"; break;
        case tensor::DType::kFixed32: n += "_fixed32"; break;
        case tensor::DType::kFixed16: n += "_fixed16"; break;
        case tensor::DType::kInt8: n += "_int8"; break;
      }
      return n;
    });

}  // namespace
}  // namespace rangerpp::models
