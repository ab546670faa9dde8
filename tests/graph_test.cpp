#include <gtest/gtest.h>

#include <cmath>

#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "graph/passes.hpp"

namespace rangerpp::graph {
namespace {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

// A tiny relu(conv(x)) -> maxpool -> flatten graph used across tests.
Graph tiny_graph() {
  GraphBuilder b;
  b.input("input", Shape{1, 4, 4, 1});
  b.conv2d("conv", Tensor::full(Shape{3, 3, 1, 2}, 0.1f),
           Tensor(Shape{2}, {0.0f, 0.5f}), {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  b.max_pool("pool", {2, 2, 2, 2, ops::Padding::kValid});
  b.flatten("flatten");
  return b.finish();
}

// A plan whose nodes are `g`'s: every hook fires, every output is kept.
ExecutionPlan plan_of(const Graph& g, DType dtype = DType::kFloat32) {
  return compile(g, {.dtype = dtype, .observe = Observe::kAll});
}

TEST(Graph, AppendOnlyInvariants) {
  Graph g;
  const NodeId a = g.add("a", std::make_shared<ops::InputOp>(Shape{1}), {});
  EXPECT_THROW(g.add("a", std::make_shared<ops::ReluOp>(), {a}),
               std::invalid_argument);  // duplicate name
  EXPECT_THROW(g.add("b", std::make_shared<ops::ReluOp>(), {5}),
               std::invalid_argument);  // forward reference
  EXPECT_THROW(g.add("", std::make_shared<ops::ReluOp>(), {a}),
               std::invalid_argument);  // empty name
  EXPECT_THROW(g.add("c", nullptr, {a}), std::invalid_argument);
}

TEST(Graph, FindAndConsumers) {
  const Graph g = tiny_graph();
  const NodeId conv = g.find("conv");
  ASSERT_NE(conv, kInvalidNode);
  EXPECT_EQ(g.find("missing"), kInvalidNode);
  // conv's consumer is its bias_add.
  const auto consumers = g.consumers(conv);
  ASSERT_EQ(consumers.size(), 1u);
  EXPECT_EQ(g.node(consumers[0]).name, "conv/bias_add");
}

TEST(Graph, InputAndConstNeverInjectable) {
  const Graph g = tiny_graph();
  for (const Node& n : g.nodes()) {
    if (n.op->kind() == ops::OpKind::kInput ||
        n.op->kind() == ops::OpKind::kConst) {
      EXPECT_FALSE(n.injectable) << n.name;
    }
  }
}

TEST(Graph, InferShapesEndToEnd) {
  const Graph g = tiny_graph();
  const auto shapes = g.infer_shapes();
  EXPECT_EQ(shapes[static_cast<std::size_t>(g.find("conv"))],
            (Shape{1, 4, 4, 2}));
  EXPECT_EQ(shapes[static_cast<std::size_t>(g.find("pool"))],
            (Shape{1, 2, 2, 2}));
  EXPECT_EQ(shapes[static_cast<std::size_t>(g.output())], (Shape{8}));
}

TEST(Executor, RunsAndFeedsValidation) {
  const Graph g = tiny_graph();
  const ExecutionPlan plan = plan_of(g);
  const Executor exec;
  Arena arena;
  const Tensor x = Tensor::full(Shape{1, 4, 4, 1}, 1.0f);
  const Tensor y = exec.run(plan, {{"input", x}}, arena);
  EXPECT_EQ(y.elements(), 8u);
  EXPECT_THROW(exec.run(plan, {}, arena),
               std::invalid_argument);  // missing feed
  EXPECT_THROW(exec.run(plan, {{"input", Tensor(Shape{1, 3, 3, 1})}}, arena),
               std::invalid_argument);  // shape mismatch
}

TEST(Executor, HookSeesEveryComputeNodeAndCanMutate) {
  const Graph g = tiny_graph();
  const ExecutionPlan plan = plan_of(g);
  const Executor exec;
  Arena arena;
  const Tensor x = Tensor::full(Shape{1, 4, 4, 1}, 1.0f);
  std::vector<std::string> seen;
  const Tensor y = exec.run(plan, {{"input", x}}, arena,
                            [&](const Node& n, Tensor& out) {
                              seen.push_back(n.name);
                              if (n.name == "relu")
                                out.set(0, 1e6f);  // corrupt
                            });
  // Hook order follows topological order and skips Input/Const.
  ASSERT_GE(seen.size(), 5u);
  EXPECT_EQ(seen.front(), "conv");
  // Corruption propagated to the output through pool/flatten.
  float max = 0.0f;
  for (float v : y.values()) max = std::max(max, v);
  EXPECT_GE(max, 1e6f);
}

TEST(Executor, QuantizesThroughDatatype) {
  const Graph g = tiny_graph();
  const ExecutionPlan plan = plan_of(g, DType::kFixed16);
  const Executor exec;
  Arena arena;
  const Tensor x = Tensor::full(Shape{1, 4, 4, 1}, 0.37f);  // not Q13.2
  const Tensor y = exec.run(plan, {{"input", x}}, arena);
  // Every produced value must be representable in Q13.2 (multiples of .25).
  for (float v : y.values()) {
    EXPECT_FLOAT_EQ(v * 4.0f, std::round(v * 4.0f));
  }
}

TEST(Executor, ArenaExposesIntermediates) {
  const Graph g = tiny_graph();
  const ExecutionPlan plan = plan_of(g);
  const Executor exec;
  Arena arena;
  exec.run(plan, {{"input", Tensor::full(Shape{1, 4, 4, 1}, 1.0f)}}, arena);
  const std::vector<Tensor>& outputs = arena.outputs();
  EXPECT_EQ(outputs.size(), g.size());
  EXPECT_EQ(outputs[static_cast<std::size_t>(g.find("relu"))].elements(),
            32u);
}

TEST(Graph, CloneIsStructurallyIdentical) {
  const Graph g = tiny_graph();
  const Graph copy = g.clone();
  ASSERT_EQ(copy.size(), g.size());
  const ExecutionPlan plan = plan_of(g), plan_copy = plan_of(copy);
  const Executor exec;
  Arena arena, arena_copy;
  const Tensor x = Tensor::full(Shape{1, 4, 4, 1}, 0.5f);
  const Tensor y1 = exec.run(plan, {{"input", x}}, arena);
  const Tensor y2 = exec.run(plan_copy, {{"input", x}}, arena_copy);
  for (std::size_t i = 0; i < y1.elements(); ++i)
    EXPECT_FLOAT_EQ(y1.at(i), y2.at(i));
}

TEST(Graph, ImportWithRemapSplicesNodes) {
  const Graph g = tiny_graph();
  // Splice a clamp after the relu, TensorFlow import_graph_def-style.
  const Graph spliced = g.import_with_remap(
      [](const Node& src, NodeId copied, Graph& dst)
          -> std::optional<NodeId> {
        if (src.name != "relu") return std::nullopt;
        return dst.add("relu/clamp",
                       std::make_shared<ops::ClampOp>(0.0f, 0.2f), {copied});
      });
  EXPECT_EQ(spliced.size(), g.size() + 1);
  ASSERT_NE(spliced.find("relu/clamp"), kInvalidNode);
  // The pool must now consume the clamp, not the relu.
  const Node& pool = spliced.node(spliced.find("pool"));
  EXPECT_EQ(spliced.node(pool.inputs[0]).name, "relu/clamp");

  // Effect: outputs are restricted.
  const ExecutionPlan plan = plan_of(spliced);
  const Executor exec;
  Arena arena;
  const Tensor x = Tensor::full(Shape{1, 4, 4, 1}, 10.0f);
  const Tensor y = exec.run(plan, {{"input", x}}, arena);
  for (float v : y.values()) EXPECT_LE(v, 0.2f);
}

TEST(Helpers, ArgmaxAndTopK) {
  const Tensor t(Shape{5}, {0.1f, 0.9f, 0.3f, 0.95f, 0.2f});
  EXPECT_EQ(argmax(t), 3);
  const auto t3 = top_k(t, 3);
  ASSERT_EQ(t3.size(), 3u);
  EXPECT_EQ(t3[0], 3);
  EXPECT_EQ(t3[1], 1);
  EXPECT_EQ(t3[2], 2);
  EXPECT_EQ(top_k(t, 100).size(), 5u);
}

TEST(Graph, OutputDefaultsToLastNodeAndIsSettable) {
  Graph g;
  const NodeId in = g.add("in", std::make_shared<ops::InputOp>(Shape{2}), {});
  const NodeId relu = g.add("relu", std::make_shared<ops::ReluOp>(), {in});
  EXPECT_EQ(g.output(), relu);
  g.set_output(in);
  EXPECT_EQ(g.output(), in);
}

}  // namespace
}  // namespace rangerpp::graph
