// Per-pass unit tests for the plan compiler (graph/passes.hpp): constant
// folding, dead-node elimination, the fusion rewrite, int8-format
// validation — plus the compiler's determinism contract: compiled output
// bit-identical to the pass-free reference plan (Observe::kAll), and that
// reference equal to its source graph node for node across the zoo.
#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>

#include "core/ranger_transform.hpp"
#include "fi/equivalence.hpp"
#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "models/zoo.hpp"
#include "ops/basic_ops.hpp"
#include "ops/elementwise_ops.hpp"
#include "ops/fused_op.hpp"
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

// in -> (c1 + c2) * in : the add has only Const inputs and is foldable
// whenever it is not observable.
Graph const_expr_graph(bool add_injectable) {
  Graph g;
  const NodeId in =
      g.add("in", std::make_shared<ops::InputOp>(tensor::Shape{1, 4}), {});
  const NodeId c1 = g.add(
      "c1",
      std::make_shared<ops::ConstOp>(
          tensor::Tensor(tensor::Shape{1, 4}, {0.5f, -1.0f, 2.0f, 0.25f})),
      {});
  const NodeId c2 = g.add(
      "c2",
      std::make_shared<ops::ConstOp>(
          tensor::Tensor(tensor::Shape{1, 4}, {1.5f, 0.5f, -0.5f, 3.0f})),
      {});
  const NodeId sum = g.add("csum", std::make_shared<ops::AddOp>(), {c1, c2},
                           add_injectable);
  const NodeId out =
      g.add("out", std::make_shared<ops::MulOp>(), {in, sum});
  g.set_output(out);
  return g;
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

// The pass-free reference every rewrite is judged against: under kAll no
// pass touches an op node.
ExecutionPlan reference_plan(const Graph& g, tensor::DType dtype) {
  return compile(g, {.dtype = dtype, .observe = Observe::kAll});
}

// --- Constant folding --------------------------------------------------------

TEST(ConstFoldPass, FoldsUnobservableConstOnlyNode) {
  const ExecutionPlan reference =
      reference_plan(const_expr_graph(false), tensor::DType::kFixed32);
  const ExecutionPlan fused =
      compile(const_expr_graph(false), {.dtype = tensor::DType::kFixed32});

  // csum folded to a Const; its operand Consts then die in DCE.
  const NodeId folded = fused.graph().find("csum");
  ASSERT_NE(folded, kInvalidNode);
  EXPECT_EQ(fused.graph().node(folded).op->kind(), ops::OpKind::kConst);
  EXPECT_EQ(fused.graph().find("c1"), kInvalidNode);
  EXPECT_EQ(fused.graph().find("c2"), kInvalidNode);
  EXPECT_EQ(fused.size(), 3u);

  const Feeds feeds{
      {"in", tensor::Tensor(tensor::Shape{1, 4}, {1.f, 2.f, -3.f, 0.5f})}};
  const Executor exec;
  Arena a1, a2;
  EXPECT_TRUE(bits_equal(exec.run(reference, feeds, a1),
                         exec.run(fused, feeds, a2)));
}

TEST(ConstFoldPass, RespectsObservability) {
  // Injectable csum under the default Observe::kInjectable: untouched.
  const ExecutionPlan p1 =
      compile(const_expr_graph(true), {.dtype = tensor::DType::kFixed32});
  EXPECT_EQ(p1.graph().node(p1.graph().find("csum")).op->kind(),
            ops::OpKind::kAdd);

  // Observe::kAll: untouched even when non-injectable.
  const ExecutionPlan p2 =
      compile(const_expr_graph(false),
              {.dtype = tensor::DType::kFixed32, .observe = Observe::kAll});
  EXPECT_EQ(p2.graph().node(p2.graph().find("csum")).op->kind(),
            ops::OpKind::kAdd);
  EXPECT_EQ(p2.size(), 5u);
}

TEST(ConstFoldPass, SkippedUnderInt8) {
  // An int8 folded Const would self-calibrate to a different scheme than
  // the original node's — folding must not fire.
  const ExecutionPlan p =
      compile(const_expr_graph(false), {.dtype = tensor::DType::kInt8,
                                        .observe = Observe::kNone});
  const NodeId sum = p.graph().find("csum");
  ASSERT_NE(sum, kInvalidNode);
  EXPECT_EQ(p.graph().node(sum).op->kind(), ops::OpKind::kAdd);
}

// --- Dead-node elimination ---------------------------------------------------

TEST(DcePass, RemovesDeadBranchUnlessObservable) {
  const auto make = [](bool dead_injectable) {
    Graph g;
    const NodeId in = g.add(
        "in", std::make_shared<ops::InputOp>(tensor::Shape{1, 4}), {});
    g.add("dead", std::make_shared<ops::TanhOp>(), {in}, dead_injectable);
    const NodeId out =
        g.add("out", std::make_shared<ops::ReluOp>(), {in});
    g.set_output(out);
    return g;
  };

  // Non-injectable dead branch: erased under the default level.
  const ExecutionPlan p1 =
      compile(make(false), {.dtype = tensor::DType::kFixed32});
  EXPECT_EQ(p1.graph().find("dead"), kInvalidNode);
  EXPECT_EQ(p1.size(), 2u);

  // Injectable: it is a fault site, it must survive.
  const ExecutionPlan p2 =
      compile(make(true), {.dtype = tensor::DType::kFixed32});
  EXPECT_NE(p2.graph().find("dead"), kInvalidNode);

  // Observe::kNone: even injectable dead nodes go.
  const ExecutionPlan p3 = compile(
      make(true),
      {.dtype = tensor::DType::kFixed32, .observe = Observe::kNone});
  EXPECT_EQ(p3.graph().find("dead"), kInvalidNode);
}

// --- Fusion ------------------------------------------------------------------

TEST(FusionPass, FusesNonInjectableHeadOnly) {
  const ExecutionPlan p =
      compile(conv_net(7), {.dtype = tensor::DType::kFixed32});
  // The injectable body survives untouched...
  EXPECT_NE(p.graph().find("conv1"), kInvalidNode);
  EXPECT_NE(p.graph().find("act1"), kInvalidNode);
  // ...while the non-injectable fc matmul is absorbed into its bias_add.
  EXPECT_EQ(p.graph().find("fc"), kInvalidNode);
  const NodeId head = p.graph().find("fc/bias_add");
  ASSERT_NE(head, kInvalidNode);
  EXPECT_EQ(p.graph().node(head).op->kind(), ops::OpKind::kFused);
  const auto& fused =
      static_cast<const ops::FusedOp&>(*p.graph().node(head).op);
  ASSERT_EQ(fused.stages().size(), 2u);
  EXPECT_EQ(fused.stages()[0].name, "fc");
  EXPECT_EQ(fused.stages()[1].name, "fc/bias_add");
  // Softmax is not fusable: it stays, consuming the fused node.
  EXPECT_NE(p.graph().find("softmax"), kInvalidNode);
}

TEST(FusionPass, ChainsThroughActivations) {
  // Observe::kNone: conv1 + bias_add + relu collapse into one node named
  // after the last stage.
  const ExecutionPlan p = compile(
      conv_net(7),
      {.dtype = tensor::DType::kFixed32, .observe = Observe::kNone});
  EXPECT_EQ(p.graph().find("conv1"), kInvalidNode);
  EXPECT_EQ(p.graph().find("conv1/bias_add"), kInvalidNode);
  const NodeId act = p.graph().find("act1");
  ASSERT_NE(act, kInvalidNode);
  const auto& fused =
      static_cast<const ops::FusedOp&>(*p.graph().node(act).op);
  ASSERT_EQ(fused.stages().size(), 3u);
  EXPECT_EQ(fused.stages()[0].name, "conv1");
  EXPECT_EQ(fused.stages()[2].name, "act1");
  // Pool and Flatten never fuse (batched-plan shape special cases).
  EXPECT_NE(p.graph().find("pool1"), kInvalidNode);
  EXPECT_NE(p.graph().find("flatten"), kInvalidNode);
}

TEST(FusionPass, BitIdenticalToReferenceAcrossDtypes) {
  const Feeds feeds = conv_feed(11);
  for (const tensor::DType dtype :
       {tensor::DType::kFloat32, tensor::DType::kFixed32,
        tensor::DType::kFixed16, tensor::DType::kInt8}) {
    const Executor exec;
    const ExecutionPlan reference = reference_plan(conv_net(7), dtype);
    const ExecutionPlan fused = compile(
        conv_net(7), {.dtype = dtype, .observe = Observe::kNone});
    ASSERT_LT(fused.size(), reference.size());
    Arena a1, a2;
    EXPECT_TRUE(bits_equal(exec.run(reference, feeds, a1),
                           exec.run(fused, feeds, a2)))
        << "dtype " << static_cast<int>(dtype);
  }
}

TEST(FusionPass, BitIdenticalUnderBlockedAndToleratedUnderSimd) {
  const Feeds feeds = conv_feed(13);
  const tensor::DType dtype = tensor::DType::kFixed32;
  const Executor exec;
  const ExecutionPlan reference =
      reference_plan(conv_net(7), dtype);  // scalar-equal
  Arena a0;
  const tensor::Tensor ref = exec.run(reference, feeds, a0);

  const ExecutionPlan blocked = compile(
      conv_net(7), {.dtype = dtype,
                    .backend = ops::KernelBackend::kBlocked,
                    .observe = Observe::kNone});
  Arena a1;
  EXPECT_TRUE(bits_equal(ref, exec.run(blocked, feeds, a1)));

  const ExecutionPlan simd = compile(
      conv_net(7), {.dtype = dtype,
                    .backend = ops::KernelBackend::kSimd,
                    .observe = Observe::kNone});
  Arena a2;
  const tensor::Tensor simd_out = exec.run(simd, feeds, a2);
  const auto report = fi::compare_tensors(
      ref, simd_out,
      fi::ToleranceSpec::for_scheme(tensor::QScheme(dtype)));
  EXPECT_TRUE(report.within)
      << report.mismatched << " elements outside tolerance";
}

TEST(FusionPass, Int8SchemesMatchReferencePlan) {
  // The fused node's plan scheme must equal the erased last stage's —
  // otherwise downstream inheritance (and hooks) would quantise under a
  // different format than the unfused plan.
  const ExecutionPlan reference =
      reference_plan(conv_net(7), tensor::DType::kInt8);
  const ExecutionPlan fused = compile(
      conv_net(7),
      {.dtype = tensor::DType::kInt8, .observe = Observe::kNone});
  const NodeId r = reference.graph().find("act1");
  const NodeId f = fused.graph().find("act1");
  ASSERT_NE(r, kInvalidNode);
  ASSERT_NE(f, kInvalidNode);
  EXPECT_EQ(reference.qscheme(r).fmt.frac_bits,
            fused.qscheme(f).fmt.frac_bits);
}

// --- Range restriction -------------------------------------------------------

TEST(RangerPass, RestrictionOpsSurviveDefaultPipeline) {
  core::Bounds bounds;
  bounds["act1"] = core::Bound{0.0f, 1.5f};
  // Default observe (kInjectable) with all rewrites on: the inserted
  // clamp is injectable, so fold/dce/fuse must leave it alone.
  const ExecutionPlan p =
      compile(core::RangerTransform{}.apply(conv_net(7), bounds),
              {.dtype = tensor::DType::kFixed32});
  EXPECT_NE(p.graph().find("act1/ranger"), kInvalidNode);
}

// --- Validation --------------------------------------------------------------

TEST(ValidatePass, WarnsOnUnknownInt8FormatKeys) {
  CompileOptions options;
  options.dtype = tensor::DType::kInt8;
  options.int8_formats["act1"] = tensor::FixedPointFormat{4, 3};
  options.int8_formats["no_such_node"] = tensor::FixedPointFormat{4, 3};
  const ExecutionPlan p = compile(conv_net(7), options);
  ASSERT_EQ(p.report()->warnings.size(), 1u);
  EXPECT_NE(p.report()->warnings[0].find("no_such_node"),
            std::string::npos);
}

// --- Entry point / report ----------------------------------------------------

// Under kAll every rewrite pass runs and changes nothing: the plan's graph
// is the source graph node for node (name, op, inputs, injectable flag,
// shape), and each Const holds its source value quantised under `dtype`.
// Hook-driven clients (profiler, baselines, one-shot runs) rely on this.
void expect_pass_free(const Graph& g, tensor::DType dtype) {
  const ExecutionPlan p = reference_plan(g, dtype);
  ASSERT_EQ(p.size(), g.size());
  EXPECT_EQ(p.graph().output(), g.output());
  EXPECT_EQ(p.memory_mode(), MemoryMode::kRetainAll);
  ASSERT_NE(p.report(), nullptr);
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  for (const Node& n : g.nodes()) {
    const auto i = static_cast<std::size_t>(n.id);
    const Node& m = p.graph().node(n.id);
    EXPECT_EQ(m.name, n.name);
    EXPECT_EQ(m.op.get(), n.op.get()) << n.name;
    EXPECT_EQ(m.inputs, n.inputs) << n.name;
    EXPECT_EQ(m.injectable, n.injectable) << n.name;
    EXPECT_EQ(p.shapes()[i], shapes[i]) << n.name;
    if (n.op->kind() != ops::OpKind::kConst) continue;
    tensor::Tensor want = n.op->compute({}).clone();
    tensor::q_quantize_span(tensor::QScheme(dtype), want.mutable_values());
    EXPECT_TRUE(bits_equal(p.const_output(n.id), want)) << n.name;
  }
}

TEST(Compile, ObserveAllIsPassFree) {
  constexpr tensor::DType kDtypes[] = {tensor::DType::kFloat32,
                                       tensor::DType::kFixed32,
                                       tensor::DType::kFixed16};
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("conv_net", conv_net(7));
  for (const models::ModelId id :
       {models::ModelId::kLeNet, models::ModelId::kAlexNet,
        models::ModelId::kVgg11, models::ModelId::kVgg16,
        models::ModelId::kResNet18, models::ModelId::kSqueezeNet,
        models::ModelId::kDave, models::ModelId::kDaveDegrees,
        models::ModelId::kComma}) {
    // He-init weights, as zoo_sweep_test builds them.
    const ops::OpKind act = models::default_act(id);
    Graph g = models::build_model(id, act, models::init_weights(id, act, 99));
    core::Bounds bounds;
    for (const Node& n : g.nodes())
      if (ops::is_activation(n.op->kind()))
        bounds.emplace(n.name, core::Bound{-10.0f, 10.0f});
    graphs.emplace_back(models::model_name(id) + "+ranger",
                        core::RangerTransform{}.apply(g, bounds));
    graphs.emplace_back(models::model_name(id), std::move(g));
  }
  for (const auto& [name, g] : graphs)
    for (const tensor::DType dtype : kDtypes) {
      SCOPED_TRACE(name + " dtype " +
                   std::to_string(static_cast<int>(dtype)));
      expect_pass_free(g, dtype);
    }
}

TEST(Compile, ReportTracesPassesAndArenaBytes) {
  const ExecutionPlan p = compile(
      conv_net(7),
      {.dtype = tensor::DType::kFixed32, .observe = Observe::kNone});
  const auto& report = *p.report();
  ASSERT_FALSE(report.passes.empty());
  bool saw_fuse = false, saw_memory = false;
  for (const PassTrace& t : report.passes) {
    EXPECT_GE(t.ms, 0.0);
    if (t.name == "fuse") {
      saw_fuse = true;
      EXPECT_LT(t.nodes_after, t.nodes_before);
    }
    if (t.name == "memory_plan") saw_memory = true;
  }
  EXPECT_TRUE(saw_fuse);
  EXPECT_TRUE(saw_memory);
  EXPECT_GT(report.peak_arena_bytes, 0u);
  EXPECT_LT(report.peak_arena_bytes, report.unplanned_bytes);
  EXPECT_FALSE(report.to_string().empty());
}

TEST(Compile, RejectsEmptyGraph) {
  EXPECT_THROW(compile(Graph{}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace rangerpp::graph
