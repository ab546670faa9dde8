// Plan compiler tests (graph/passes.hpp): compile() lowers the graph it is
// given, so every plan the tree builds — campaign plans at batch 1 and 8,
// int8 plans under calibrated formats, the float32 arena inference plan —
// keeps its source graph node for node across the zoo, plain and
// Ranger-protected.  Plus the int8-format key warning, the compile report
// and how the executor files dispatches that have no compiled kernel.
#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>

#include "core/calibration.hpp"
#include "core/ranger_transform.hpp"
#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "models/zoo.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace rangerpp::graph {
namespace {

using Feeds = std::unordered_map<std::string, tensor::Tensor>;

tensor::Tensor random_tensor(tensor::Shape s, util::Rng& rng,
                             float scale = 0.5f) {
  std::vector<float> v(s.elements());
  for (float& x : v) x = static_cast<float>(rng.uniform(-scale, scale));
  return tensor::Tensor(std::move(s), std::move(v));
}

bool bits_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.elements() == b.elements() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.elements() * sizeof(float)) == 0;
}

// A small conv net with an injectable body and a non-injectable output
// head (the zoo convention, paper §V-B).
Graph conv_net(std::uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b;
  b.input("input", tensor::Shape{1, 8, 8, 2});
  b.conv2d("conv1", random_tensor({3, 3, 2, 4}, rng),
           random_tensor({4}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.activation("act1", ops::OpKind::kRelu);
  b.max_pool("pool1", {2, 2, 2, 2, ops::Padding::kValid});
  b.flatten("flatten");
  b.dense("fc", random_tensor({4 * 4 * 4, 5}, rng, 0.2f),
          random_tensor({5}, rng, 0.1f), /*injectable=*/false);
  b.softmax("softmax", /*injectable=*/false);
  return b.finish();
}

Feeds conv_feed(std::uint64_t seed) {
  util::Rng rng(seed);
  return {{"input", random_tensor({1, 8, 8, 2}, rng, 1.0f)}};
}

// --- Int8 format keys --------------------------------------------------------

TEST(Compile, WarnsOnUnknownInt8FormatKeys) {
  CompileOptions options;
  options.dtype = tensor::DType::kInt8;
  options.int8_formats["act1"] = tensor::FixedPointFormat{4, 3};
  options.int8_formats["no_such_node"] = tensor::FixedPointFormat{4, 3};
  const ExecutionPlan p = compile(conv_net(7), options);
  ASSERT_EQ(p.report()->warnings.size(), 1u);
  EXPECT_NE(p.report()->warnings[0].find("no_such_node"),
            std::string::npos);
}

// --- The plan keeps its source graph -----------------------------------------

// The plan's graph is `g` node for node: name, op object, inputs,
// injectable flag and shape (non-Const shapes widened by the plan's
// batch), and each Const holds its source value quantised under the
// plan's scheme for that node.  Site replay by name, hooks and golden
// snapshots all rely on this.
void expect_source_graph(const Graph& g, const ExecutionPlan& p,
                         MemoryMode memory) {
  ASSERT_EQ(p.size(), g.size());
  EXPECT_EQ(p.graph().output(), g.output());
  EXPECT_EQ(p.memory_mode(), memory);
  ASSERT_NE(p.report(), nullptr);
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  for (const Node& n : g.nodes()) {
    const auto i = static_cast<std::size_t>(n.id);
    const Node& m = p.graph().node(n.id);
    EXPECT_EQ(m.name, n.name);
    EXPECT_EQ(m.op.get(), n.op.get()) << n.name;
    EXPECT_EQ(m.inputs, n.inputs) << n.name;
    EXPECT_EQ(m.injectable, n.injectable) << n.name;
    const bool is_const = n.op->kind() == ops::OpKind::kConst;
    if (p.batch() == 1 || is_const) {
      EXPECT_EQ(p.shapes()[i], shapes[i]) << n.name;
    } else {
      EXPECT_EQ(p.shapes()[i].dim(0), static_cast<int>(p.batch())) << n.name;
      EXPECT_EQ(p.shapes()[i].elements(), p.batch() * shapes[i].elements())
          << n.name;
    }
    if (!is_const) continue;
    tensor::Tensor want = n.op->compute({}).clone();
    tensor::q_quantize_span(p.qscheme(n.id), want.mutable_values());
    EXPECT_TRUE(bits_equal(p.const_output(n.id), want)) << n.name;
  }
}

TEST(Compile, PlanKeepsItsSourceGraph) {
  struct Source {
    std::string name;
    Graph g;
    core::Bounds bounds;
  };
  std::vector<Source> sources;
  sources.push_back({"conv_net", conv_net(7), {{"act1", {0.0f, 1.5f}}}});
  for (const models::ModelId id :
       {models::ModelId::kLeNet, models::ModelId::kAlexNet,
        models::ModelId::kVgg11, models::ModelId::kVgg16,
        models::ModelId::kResNet18, models::ModelId::kSqueezeNet,
        models::ModelId::kDave, models::ModelId::kDaveDegrees,
        models::ModelId::kComma}) {
    // He-init weights, as zoo_sweep_test builds them; per-layer bounds of
    // varied width give the int8 plans varied calibrated formats.
    const ops::OpKind act = models::default_act(id);
    Graph g = models::build_model(id, act, models::init_weights(id, act, 99));
    core::Bounds bounds;
    for (const Node& n : g.nodes())
      if (ops::is_activation(n.op->kind())) {
        const float b = 1.0f + 4.0f * static_cast<float>(bounds.size() % 5);
        bounds.emplace(n.name, core::Bound{-b, b});
      }
    sources.push_back({models::model_name(id) + "+ranger",
                       core::RangerTransform{}.apply(g, bounds), bounds});
    sources.push_back({models::model_name(id), std::move(g), bounds});
  }

  for (const Source& src : sources) {
    const Graph& g = src.g;
    // Campaign plans.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      if (batch > 1 && !plan_supports_batch(g)) continue;
      for (const tensor::DType dtype :
           {tensor::DType::kFloat32, tensor::DType::kFixed32,
            tensor::DType::kFixed16}) {
        SCOPED_TRACE(src.name + " " + std::string(tensor::dtype_name(dtype)) +
                     " batch " + std::to_string(batch));
        expect_source_graph(g, compile(g, {.dtype = dtype, .batch = batch}),
                            MemoryMode::kRetainAll);
      }
    }
    {
      SCOPED_TRACE(src.name + " int8");
      expect_source_graph(
          g,
          compile(g, {.dtype = tensor::DType::kInt8,
                      .int8_formats = core::int8_calibration(src.bounds)}),
          MemoryMode::kRetainAll);
    }
    {
      // The accuracy sweeps' inference plan.
      SCOPED_TRACE(src.name + " float32 arena");
      expect_source_graph(g,
                          compile(g, {.dtype = tensor::DType::kFloat32,
                                      .memory = MemoryMode::kArena}),
                          MemoryMode::kArena);
    }
  }
}

// --- Report and dispatch accounting ------------------------------------------

TEST(Compile, ReportTracesStagesAndArenaBytes) {
  const ExecutionPlan p =
      compile(conv_net(7), {.dtype = tensor::DType::kFixed32,
                            .memory = MemoryMode::kArena,
                            .verify = true});
  const auto& report = *p.report();
  std::vector<std::string> names;
  for (const StageTrace& t : report.stages) {
    EXPECT_GE(t.ms, 0.0);
    names.push_back(t.name);
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"infer_shapes", "assign_schemes",
                                      "select_kernels", "reachability",
                                      "memory_plan", "verify_plan"}));
  EXPECT_GT(report.peak_arena_bytes, 0u);
  EXPECT_LT(report.peak_arena_bytes, report.unplanned_bytes);
  EXPECT_FALSE(report.to_string().empty());
}

// A node with no compiled kernel runs its op's own compute; the executor
// files that dispatch under kernel.scalar whatever the plan's backend.  On
// a blocked conv_net those are Flatten and Softmax; conv1, its bias_add,
// act1, pool1, fc and its bias_add run blocked kernels.
TEST(Compile, FallbackDispatchesCountAsScalar) {
  const ExecutionPlan p =
      compile(conv_net(7), {.dtype = tensor::DType::kFixed32,
                            .backend = ops::KernelBackend::kBlocked});
  util::metrics::set_enabled(true);
  util::metrics::reset();
  Arena arena;
  Executor{}.run(p, conv_feed(11), arena);
  EXPECT_EQ(util::metrics::counter_value("kernel.scalar"), 2u);
  EXPECT_EQ(util::metrics::counter_value("kernel.blocked"), 6u);
  util::metrics::set_enabled(false);
  util::metrics::reset();
}

TEST(Compile, RejectsEmptyGraph) {
  EXPECT_THROW(compile(Graph{}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace rangerpp::graph
