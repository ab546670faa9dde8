// Lifetime analysis + arena slot aliasing (graph/memory_plan.hpp): the
// allocator must never alias two activations whose lifetimes overlap, the
// executor must drop exactly the planned activations, and an arena-mode
// plan's output must stay bit-identical to the retain-all reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "models/zoo.hpp"
#include "ops/activation_ops.hpp"
#include "ops/basic_ops.hpp"
#include "ops/elementwise_ops.hpp"
#include "util/rng.hpp"

namespace rangerpp::graph {
namespace {

using Feeds = std::unordered_map<std::string, tensor::Tensor>;

tensor::Tensor random_tensor(tensor::Shape s, util::Rng& rng) {
  std::vector<float> v(s.elements());
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return tensor::Tensor(std::move(s), std::move(v));
}

bool releases(const MemoryPlan& plan, NodeId at, NodeId dead) {
  const auto& r = plan.release_after[static_cast<std::size_t>(at)];
  return std::find(r.begin(), r.end(), dead) != r.end();
}

// --- Pure lifetime analysis --------------------------------------------------

TEST(PlanMemory, ChainAliasesToTwoSlots) {
  // in -> a -> b -> c -> d(out): at any step only the producing and
  // consuming activations are live, so the three droppable intermediates
  // alias onto two alternating slots (a's slot is free again by the time
  // c executes).
  Graph g;
  const NodeId in =
      g.add("in", std::make_shared<ops::InputOp>(tensor::Shape{1, 8}), {});
  const NodeId a = g.add("a", std::make_shared<ops::ReluOp>(), {in});
  const NodeId b = g.add("b", std::make_shared<ops::TanhOp>(), {a});
  const NodeId c = g.add("c", std::make_shared<ops::ReluOp>(), {b});
  const NodeId d = g.add("d", std::make_shared<ops::TanhOp>(), {c});
  g.set_output(d);

  const std::vector<tensor::Shape> shapes(g.size(), tensor::Shape{1, 8});
  const MemoryPlan plan = plan_memory(g, shapes);

  EXPECT_EQ(plan.slots, 2u);
  // Each intermediate dies after its single consumer executes.  The Input
  // and the output are never droppable.
  EXPECT_TRUE(releases(plan, b, a));
  EXPECT_TRUE(releases(plan, c, b));
  EXPECT_TRUE(releases(plan, d, c));
  EXPECT_FALSE(releases(plan, a, in));
  for (const auto& r : plan.release_after)
    for (const NodeId dead : r) EXPECT_NE(dead, d);
  // Peak = retained (in, d) + 2 slots = 4 activations' worth; retain-all
  // holds all 5.
  EXPECT_EQ(plan.peak_arena_bytes, 4u * 8u * sizeof(float));
  EXPECT_EQ(plan.unplanned_bytes, 5u * 8u * sizeof(float));
}

TEST(PlanMemory, DiamondKeepsSharedInputAliveUntilLastConsumer) {
  // in -> s -> {l, r} -> m(out): s has two consumers, so it must survive
  // until the *later* one (r) even though l reads it first.
  Graph g;
  const NodeId in =
      g.add("in", std::make_shared<ops::InputOp>(tensor::Shape{1, 8}), {});
  const NodeId s = g.add("s", std::make_shared<ops::ReluOp>(), {in});
  const NodeId l = g.add("l", std::make_shared<ops::TanhOp>(), {s});
  const NodeId r = g.add("r", std::make_shared<ops::SigmoidOp>(), {s});
  const NodeId m = g.add("m", std::make_shared<ops::AddOp>(), {l, r});
  g.set_output(m);

  const std::vector<tensor::Shape> shapes(g.size(), tensor::Shape{1, 8});
  const MemoryPlan plan = plan_memory(g, shapes);

  EXPECT_FALSE(releases(plan, l, s));  // still needed by r
  EXPECT_TRUE(releases(plan, r, s));
  EXPECT_TRUE(releases(plan, m, l));
  EXPECT_TRUE(releases(plan, m, r));
  // l is live while r executes (and vice versa at m), and s overlaps l:
  // no single-slot collapse is legal.
  EXPECT_GE(plan.slots, 2u);
}

TEST(PlanMemory, ConstOutputsExcludedFromBothCounts) {
  Graph g;
  const NodeId in =
      g.add("in", std::make_shared<ops::InputOp>(tensor::Shape{1, 8}), {});
  const NodeId c = g.add(
      "c",
      std::make_shared<ops::ConstOp>(tensor::Tensor(tensor::Shape{1, 8})),
      {});
  const NodeId out = g.add("out", std::make_shared<ops::AddOp>(), {in, c});
  g.set_output(out);

  const std::vector<tensor::Shape> shapes(g.size(), tensor::Shape{1, 8});
  const MemoryPlan plan = plan_memory(g, shapes);
  // Retain-all holds in + out (not the Const): 2 * 8 floats.
  EXPECT_EQ(plan.unplanned_bytes, 2u * 8u * sizeof(float));
  for (const auto& r : plan.release_after)
    for (const NodeId dead : r) EXPECT_NE(dead, c);
}

// --- Compiled arena-mode plans ----------------------------------------------

Graph toy_conv_net(util::Rng& rng) {
  GraphBuilder b;
  b.input("input", tensor::Shape{1, 6, 6, 2});
  b.conv2d("conv1", random_tensor({3, 3, 2, 3}, rng),
           random_tensor({3}, rng), {1, 1, ops::Padding::kSame});
  b.activation("act1", ops::OpKind::kRelu);
  b.flatten("flatten");
  b.dense("fc", random_tensor({6 * 6 * 3, 4}, rng),
          random_tensor({4}, rng));
  b.softmax("softmax");
  return b.finish();
}

// AlexNet with He-initialised weights (as zoo_sweep_test builds it): a
// real conv tower, where the planner must cut the activation footprint.
Graph he_alexnet() {
  const models::ModelId id = models::ModelId::kAlexNet;
  const ops::OpKind act = models::default_act(id);
  return models::build_model(id, act, models::init_weights(id, act, 99));
}

// A random tensor of the declared shape for every Input node of `g`.
Feeds random_feeds(const Graph& g, util::Rng& rng) {
  Feeds feeds;
  for (const Node& n : g.nodes())
    if (n.op->kind() == ops::OpKind::kInput)
      feeds[n.name] = random_tensor(
          static_cast<const ops::InputOp&>(*n.op).shape(), rng);
  return feeds;
}

TEST(ArenaMode, OutputBitIdenticalAndIntermediatesDropped) {
  util::Rng rng(23);
  const Graph graphs[] = {toy_conv_net(rng), he_alexnet()};
  for (const Graph& g : graphs) {
    SCOPED_TRACE(testing::Message() << g.size() << "-node graph");
    const Feeds feeds = random_feeds(g, rng);

    const Executor exec;
    const ExecutionPlan reference =
        compile(g, {.dtype = tensor::DType::kFixed32});
    Arena ref_arena;
    const tensor::Tensor ref = exec.run(reference, feeds, ref_arena);

    const ExecutionPlan arena_plan = compile(
        g, {.dtype = tensor::DType::kFixed32, .memory = MemoryMode::kArena});
    EXPECT_EQ(arena_plan.memory_mode(), MemoryMode::kArena);
    Arena arena;
    const tensor::Tensor got = exec.run(arena_plan, feeds, arena);

    ASSERT_EQ(got.elements(), ref.elements());
    EXPECT_EQ(std::memcmp(got.values().data(), ref.values().data(),
                          ref.elements() * sizeof(float)),
              0);

    // Every droppable intermediate was released; Inputs and the output
    // survive the run.
    const Graph& cg = arena_plan.graph();
    const auto& outs = arena.outputs();
    ASSERT_EQ(outs.size(), cg.size());
    for (const Node& n : cg.nodes()) {
      const auto sz = outs[static_cast<std::size_t>(n.id)].elements();
      const bool retained = n.op->kind() == ops::OpKind::kInput ||
                            n.op->kind() == ops::OpKind::kConst ||
                            n.id == cg.output();
      if (retained)
        EXPECT_GT(sz, 0u) << n.name;
      else
        EXPECT_EQ(sz, 0u) << n.name << " should have been dropped";
    }

    // Slot aliasing shrinks the peak below the retain-all footprint.
    const CompileReport& report = *arena_plan.report();
    EXPECT_GT(report.peak_arena_bytes, 0u);
    EXPECT_LT(report.peak_arena_bytes, report.unplanned_bytes);
  }
}

TEST(ArenaMode, RefusesPartialReexecution) {
  util::Rng rng(29);
  GraphBuilder b;
  b.input("input", tensor::Shape{1, 8});
  b.dense("fc", random_tensor({8, 4}, rng), random_tensor({4}, rng));
  b.activation("act", ops::OpKind::kRelu);
  const Graph g = b.finish();

  const ExecutionPlan plan = compile(
      g, {.dtype = tensor::DType::kFixed32, .memory = MemoryMode::kArena});
  const Executor exec;
  const std::vector<tensor::Tensor> golden(plan.size());
  Arena arena;
  EXPECT_THROW(exec.run_from(plan, golden, {}, arena), std::invalid_argument);
}

TEST(ArenaMode, ReportMatchesPlannedBytes) {
  util::Rng rng(31);
  GraphBuilder b;
  // Deep enough (matmul, bias_add and relu per layer) that the droppable
  // intermediates alias onto fewer slots — a strict peak reduction.
  b.input("input", tensor::Shape{1, 16});
  for (int layer = 1; layer <= 4; ++layer) {
    const std::string n = std::to_string(layer);
    b.dense("fc" + n, random_tensor({16, 16}, rng),
            random_tensor({16}, rng));
    b.activation("a" + n, ops::OpKind::kRelu);
  }
  const Graph g = b.finish();

  const ExecutionPlan plan = compile(
      g, {.dtype = tensor::DType::kFixed32, .memory = MemoryMode::kArena});
  const MemoryPlan& mp = plan.memory_plan();
  EXPECT_EQ(plan.report()->peak_arena_bytes, mp.peak_arena_bytes);
  EXPECT_EQ(plan.report()->unplanned_bytes, mp.unplanned_bytes);
  EXPECT_GT(mp.peak_arena_bytes, 0u);
  EXPECT_LT(mp.peak_arena_bytes, mp.unplanned_bytes);
  EXPECT_EQ(mp.release_after.size(), plan.size());
}

}  // namespace
}  // namespace rangerpp::graph
