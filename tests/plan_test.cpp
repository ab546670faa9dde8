// ExecutionPlan / golden-prefix partial re-execution tests.
//
// The load-bearing property: for any graph, any injected node, and any
// datatype, run_from over a compiled plan is *bit-identical* to a full
// run whose hook injects the same faults.  Randomised graphs exercise the
// element-sparse kernels (conv, pool, elementwise, bias, batchnorm, LRN,
// concat, residual add, row-sparse matmul) as well as the dense fallbacks
// (single-row matmul, softmax); an injected Const filter and a computed
// one exercise the conv filter's parameter kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "graph/plan.hpp"
#include "fi/fault_model.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace rangerpp::graph {
namespace {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

// A plan keeps every node of its graph, so node ids, names and hooks line
// up with the source graph's.
ExecutionPlan plan_of(const Graph& g, DType dtype) {
  return compile(g, {.dtype = dtype});
}

// Nodes a change at `from` can reach, `from` included: the nodes a trial
// injected there may recompute.
std::size_t cone_size(const ExecutionPlan& plan, NodeId from) {
  std::size_t count = 0;
  for (std::size_t j = 0; j < plan.size(); ++j)
    count += plan.reaches(from, static_cast<NodeId>(j)) ? 1 : 0;
  return count;
}

// Dense dispatches since the last metrics reset: Σ kernel.* (compiled
// kernels count under their backend, Op::compute fallbacks under
// kernel.scalar).
std::uint64_t dense_dispatches() {
  std::uint64_t n = 0;
  for (const ops::KernelBackend b :
       {ops::KernelBackend::kScalar, ops::KernelBackend::kBlocked,
        ops::KernelBackend::kSimd})
    n += util::metrics::counter_value("kernel." +
                                      std::string(ops::backend_name(b)));
  return n;
}

Tensor random_tensor(Shape shape, util::Rng& rng, float scale = 1.0f) {
  std::vector<float> v(shape.elements());
  for (float& x : v)
    x = scale * (2.0f * static_cast<float>(rng.uniform(0.0, 1.0)) - 1.0f);
  return Tensor(shape, std::move(v));
}

// A randomised small net covering every sparse kernel plus the dense
// fallbacks: conv/bias/act -> [pool] -> branch (conv_a, conv_b) merged by
// add or concat -> [lrn or batchnorm] -> flatten -> dense -> softmax.
Graph random_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  GraphBuilder b;
  const int c0 = 1 + static_cast<int>(rng.uniform_index(2));  // 1..2
  const int c1 = 2 + static_cast<int>(rng.uniform_index(3));  // 2..4
  b.input("input", Shape{1, 8, 8, c0});

  const ops::OpKind acts[] = {ops::OpKind::kRelu, ops::OpKind::kTanh,
                              ops::OpKind::kSigmoid, ops::OpKind::kElu,
                              ops::OpKind::kRelu6};
  b.conv2d("conv1", random_tensor(Shape{3, 3, c0, c1}, rng, 0.4f),
           random_tensor(Shape{c1}, rng, 0.1f),
           {1, 1, ops::Padding::kSame});
  b.activation("act1", acts[rng.uniform_index(5)]);
  if (rng.uniform(0.0, 1.0) < 0.5) {
    if (rng.uniform(0.0, 1.0) < 0.5)
      b.max_pool("pool", {2, 2, 2, 2, ops::Padding::kValid});
    else
      b.avg_pool("pool", {2, 2, 2, 2, ops::Padding::kValid});
  }
  const NodeId trunk = b.current();

  b.conv2d("conv_a", random_tensor(Shape{3, 3, c1, c1}, rng, 0.4f),
           random_tensor(Shape{c1}, rng, 0.1f),
           {1, 1, ops::Padding::kSame});
  b.activation("act_a", acts[rng.uniform_index(5)]);
  const NodeId branch_a = b.current();
  b.set_current(trunk);
  b.conv2d("conv_b", random_tensor(Shape{3, 3, c1, c1}, rng, 0.4f),
           random_tensor(Shape{c1}, rng, 0.1f),
           {1, 1, ops::Padding::kSame});
  b.activation("act_b", acts[rng.uniform_index(5)]);
  const NodeId branch_b = b.current();

  if (rng.uniform(0.0, 1.0) < 0.5) {
    b.add("merge", branch_a, branch_b);
  } else {
    b.concat("merge", branch_a, branch_b);
  }

  if (rng.uniform(0.0, 1.0) < 0.3) {
    b.lrn("lrn");
  } else if (rng.uniform(0.0, 1.0) < 0.5) {
    // Channel count of the current node from shape inference.
    Graph& g = b.graph();
    const auto shapes = g.infer_shapes();
    const int ch = shapes[static_cast<std::size_t>(b.current())].c();
    std::vector<float> scale(static_cast<std::size_t>(ch)),
        shift(static_cast<std::size_t>(ch));
    for (auto& s : scale) s = 0.5f + static_cast<float>(rng.uniform(0.0, 1.0));
    for (auto& s : shift)
      s = 0.2f * (2.0f * static_cast<float>(rng.uniform(0.0, 1.0)) - 1.0f);
    b.batch_norm("bn", std::move(scale), std::move(shift));
  }
  if (rng.uniform(0.0, 1.0) < 0.3) b.dropout("drop");
  b.flatten("flatten");
  {
    Graph& g = b.graph();
    const auto shapes = g.infer_shapes();
    const int k = static_cast<int>(
        shapes[static_cast<std::size_t>(b.current())].elements());
    b.dense("fc", random_tensor(Shape{k, 6}, rng, 0.2f),
            random_tensor(Shape{6}, rng, 0.1f));
  }
  b.softmax("softmax");
  return b.finish();
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.elements(), b.elements()) << what;
  const auto va = a.values();
  const auto vb = b.values();
  for (std::size_t i = 0; i < va.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(va[i]),
              std::bit_cast<std::uint32_t>(vb[i]))
        << what << " differs at element " << i << " (" << va[i] << " vs "
        << vb[i] << ")";
}

void expect_all_nodes_equal(const std::vector<Tensor>& partial,
                            const std::vector<Tensor>& full,
                            const Graph& g, const std::string& what) {
  for (const Node& m : g.nodes())
    expect_bitwise_equal(partial[static_cast<std::size_t>(m.id)],
                         full[static_cast<std::size_t>(m.id)],
                         "node " + m.name + " (" + what + ")");
}

bool bitwise_differs(const Tensor& a, const Tensor& b) {
  const auto va = a.values();
  const auto vb = b.values();
  for (std::size_t i = 0; i < va.size(); ++i)
    if (std::bit_cast<std::uint32_t>(va[i]) !=
        std::bit_cast<std::uint32_t>(vb[i]))
      return true;
  return false;
}

// conv1 -> tanh -> conv2 -> tanh [-> flatten -> fc]: every op downstream of
// conv1 has a sparse kernel and tanh never masks a mid-range flip, so the
// executor's counters show exactly which tier each recompute took.
Graph sparse_tower(bool dense_head) {
  util::Rng rng(17);
  GraphBuilder b;
  b.input("input", Shape{1, 8, 8, 2});
  b.conv2d("conv1", random_tensor(Shape{3, 3, 2, 3}, rng, 0.4f),
           random_tensor(Shape{3}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.activation("act1", ops::OpKind::kTanh);
  b.conv2d("conv2", random_tensor(Shape{3, 3, 3, 3}, rng, 0.4f),
           random_tensor(Shape{3}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.activation("act2", ops::OpKind::kTanh);
  if (dense_head) {
    b.flatten("flatten");
    b.dense("fc", random_tensor(Shape{8 * 8 * 3, 5}, rng, 0.2f),
            random_tensor(Shape{5}, rng, 0.1f));
  }
  return b.finish();
}

// One partial run of a batched plan against a full run with the same
// injections, every node compared; returns the partial run's activations
// and how many nodes it recomputed on each tier.
struct PartialRun {
  std::vector<Tensor> outputs;
  std::uint64_t dense = 0;   // Σ kernel.*
  std::uint64_t sparse = 0;  // exec.sparse_nodes
};
PartialRun run_batched_trial(const Executor& exec, const ExecutionPlan& plan,
                             const std::unordered_map<std::string, Tensor>&
                                 feeds,
                             const std::vector<Tensor>& golden,
                             std::span<const fi::FaultSet> row_faults,
                             const std::string& what) {
  const Graph& g = plan.graph();
  Arena full_arena, arena;
  exec.run(plan, feeds, full_arena, fi::make_injections(plan, row_faults));
  util::metrics::reset();
  exec.run_from(plan, golden, fi::make_injections(plan, row_faults), arena);
  expect_all_nodes_equal(arena.outputs(), full_arena.outputs(), g, what);
  return {arena.outputs(), dense_dispatches(),
          util::metrics::counter_value("exec.sparse_nodes")};
}

// For random graphs, every injectable node k and all three dtypes:
// run_from with one injection at k must equal a full run whose hook
// injects the same fault, node by node, bit for bit.
TEST(ExecutionPlan, PartialRunBitIdenticalToFullRun) {
  const DType dtypes[] = {DType::kFloat32, DType::kFixed32, DType::kFixed16};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = random_graph(seed);
    util::Rng rng(seed * 101);
    const Tensor x = random_tensor(g.node(0).op->infer_shape({}), rng);
    const std::unordered_map<std::string, Tensor> feeds{{"input", x}};
    for (const DType dtype : dtypes) {
      const Executor exec;
      const ExecutionPlan plan = plan_of(g, dtype);
      Arena arena, full_arena;
      exec.run(plan, feeds, arena);
      const std::vector<Tensor> golden = arena.outputs();

      for (const Node& n : g.nodes()) {
        if (!n.injectable) continue;
        const auto shapes = plan.shapes();
        const std::size_t elems =
            shapes[static_cast<std::size_t>(n.id)].elements();
        const std::size_t element = rng.uniform_index(elems);
        const int bit = static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(
                tensor::dtype_bits(dtype))));
        const fi::FaultSet faults{{n.name, element, bit}};
        const PostOpHook hook = fi::make_injection_hook(g, dtype, faults);

        const Tensor full = exec.run(plan, feeds, full_arena, hook);
        const std::vector<Tensor>& full_outputs = full_arena.outputs();
        const Tensor partial = exec.run_from(
            plan, golden, fi::make_injections(plan, faults), arena);
        expect_bitwise_equal(partial, full,
                             "output (seed " + std::to_string(seed) +
                                 ", node " + n.name + ")");
        // Every intermediate activation must agree too (pruned nodes reuse
        // golden tensors, which are the full run's values by definition).
        expect_all_nodes_equal(arena.outputs(), full_outputs, g,
                               "seed " + std::to_string(seed) +
                                   ", injected " + n.name);
      }
    }
  }
}

// Multi-root partial runs (the multi-bit fault model) are equivalent as
// well, node by node.  The batched half carries one trial per row with
// one row's fault upstream of another row's root: that root recomputes on
// inputs a different trial already changed, and must still take the
// element-sparse tier (hook applied to the sparse result) and stay exact.
TEST(ExecutionPlan, MultiRootPartialRun) {
  const Graph g = random_graph(7);
  util::Rng rng(99);
  const Tensor x = random_tensor(g.node(0).op->infer_shape({}), rng);
  const std::unordered_map<std::string, Tensor> feeds{{"input", x}};
  const Executor exec;
  const ExecutionPlan plan = plan_of(g, DType::kFixed32);
  Arena arena, full_arena;
  exec.run(plan, feeds, arena);
  const std::vector<Tensor> golden = arena.outputs();

  const fi::SiteSpace sites(g, DType::kFixed32);
  for (int trial = 0; trial < 20; ++trial) {
    const fi::FaultSet faults = sites.sample(rng, 3);
    const PostOpHook hook = fi::make_injection_hook(g, DType::kFixed32,
                                                    faults);
    const Tensor full = exec.run(plan, feeds, full_arena, hook);
    const std::vector<Tensor>& full_outputs = full_arena.outputs();
    const Tensor partial = exec.run_from(
        plan, golden, fi::make_injections(plan, faults), arena);
    expect_bitwise_equal(partial, full, "multi-root trial");
    expect_all_nodes_equal(arena.outputs(), full_outputs, g,
                           "multi-root trial " + std::to_string(trial));
  }

  // Batched: four different images, one trial per row.  Row 0 flips
  // conv1, row 1 flips a node downstream of it, row 2 a random site, row
  // 3 nothing; then a single faulty row, which is the only one that can
  // reach the dense layer (row-sparse MatMul).
  util::metrics::set_enabled(true);
  const std::vector<std::string> downstream = {"conv_a", "act_a", "conv_b",
                                               "merge", "flatten"};
  const auto golden_of = [&](const ExecutionPlan& p,
                             const std::unordered_map<std::string, Tensor>& f) {
    Arena a;
    exec.run(p, f, a);
    return a.outputs();
  };
  // Bit 9 of fixed32 is worth 0.5: a mid-image flip tanh passes on.
  const auto mid_flip = [](const char* node) {
    return fi::FaultSet{{node, (4 * 8 + 4) * 3 + 1, 9}};
  };
  for (const ops::KernelBackend backend :
       {ops::KernelBackend::kScalar, ops::KernelBackend::kBlocked}) {
    const ExecutionPlan bplan = compile(
        g, {.dtype = DType::kFixed32, .backend = backend, .batch = 4});
    const std::string be(ops::backend_name(backend));
    std::vector<Tensor> images;
    for (int r = 0; r < 4; ++r)
      images.push_back(random_tensor(x.shape(), rng));
    const std::unordered_map<std::string, Tensor> bfeeds{
        {"input", pack_batch(images)}};
    const std::vector<Tensor> bgolden = golden_of(bplan, bfeeds);
    const auto site = [&](const std::string& name) {
      const std::size_t per =
          bplan.per_image_elements(bplan.graph().find(name));
      return fi::FaultPoint{name, rng.uniform_index(per),
                            static_cast<int>(rng.uniform_index(32))};
    };
    for (int trial = 0; trial < 10; ++trial) {
      const fi::FaultSet rows[] = {
          {site("conv1")},
          {site(downstream[rng.uniform_index(downstream.size())])},
          sites.sample(rng, 1),
          {}};
      run_batched_trial(exec, bplan, bfeeds, bgolden, rows,
                        be + " two-root trial " + std::to_string(trial));
      const fi::FaultSet single_row[] = {{site("act_b")}, {}, {}, {}};
      run_batched_trial(exec, bplan, bfeeds, bgolden, single_row,
                        be + " single-row trial " + std::to_string(trial));
    }

    // The tier each node took, on graphs where every cone op has a sparse
    // kernel.
    const Tensor img = random_tensor(Shape{1, 8, 8, 2}, rng);
    const Tensor imgs[] = {img, img, img, img};
    const std::unordered_map<std::string, Tensor> feeds1{{"input", img}};
    const std::unordered_map<std::string, Tensor> feeds4{
        {"input", pack_batch(imgs)}};

    // Row 1's root conv2 sees row 0's conv1 flip in its input.  Against
    // the same run without row 1's fault (conv2 then an ordinary cone
    // node), the root adds no dense kernel and counts as a sparse node.
    const ExecutionPlan tower = compile(
        sparse_tower(false),
        {.dtype = DType::kFixed32, .backend = backend, .batch = 4});
    const std::vector<Tensor> tgolden = golden_of(tower, feeds4);
    const fi::FaultSet two_roots[] = {
        mid_flip("conv1"), mid_flip("conv2"), {}, {}};
    const PartialRun with_root = run_batched_trial(
        exec, tower, feeds4, tgolden, two_roots, be + " tower two roots");
    const fi::FaultSet one_root[] = {mid_flip("conv1"), {}, {}, {}};
    const PartialRun without_root = run_batched_trial(
        exec, tower, feeds4, tgolden, one_root, be + " tower one root");
    const auto act1 = static_cast<std::size_t>(tower.graph().find("act1"));
    ASSERT_TRUE(bitwise_differs(with_root.outputs[act1], tgolden[act1]))
        << be << ": conv2's input must carry row 0's fault";
    EXPECT_EQ(with_root.dense, 0u) << be;
    EXPECT_EQ(without_root.dense, 0u) << be;
    EXPECT_EQ(with_root.sparse, without_root.sparse) << be;
    EXPECT_GE(with_root.sparse, 3u) << be;

    // One faulty row of four reaches fc: MatMul recomputes that row only.
    // At batch 1 the row is the whole tensor and MatMul runs dense.
    const Graph headed = sparse_tower(true);
    const ExecutionPlan head4 = compile(
        headed, {.dtype = DType::kFixed32, .backend = backend, .batch = 4});
    const PartialRun row_sparse =
        run_batched_trial(exec, head4, feeds4, golden_of(head4, feeds4),
                          one_root, be + " headed batch 4");
    EXPECT_EQ(row_sparse.dense, 0u) << be;
    const ExecutionPlan head1 = compile(
        headed, {.dtype = DType::kFixed32, .backend = backend, .batch = 1});
    const fi::FaultSet solo[] = {mid_flip("conv1")};
    const PartialRun dense_row =
        run_batched_trial(exec, head1, feeds1, golden_of(head1, feeds1),
                          solo, be + " headed batch 1");
    EXPECT_GE(dense_row.dense, 1u) << be;
  }
  util::metrics::set_enabled(false);
  util::metrics::reset();
}

// The O(changed) property: a mid-image flip at conv1 of the conv/tanh
// tower stays element-sparse through its whole cone, so the run builds no
// full tensor but the returned output (act2, 8x8x3 = 192 elements), and
// every node still equals the full run once outputs() materialises them.
TEST(ExecutionPlan, SparseConeMaterializesOnlyTheOutput) {
  const Graph g = sparse_tower(false);
  util::Rng rng(23);
  const std::unordered_map<std::string, Tensor> feeds{
      {"input", random_tensor(Shape{1, 8, 8, 2}, rng)}};
  const fi::FaultSet faults{{"conv1", (4 * 8 + 4) * 3 + 1, 9}};
  const auto out_id = static_cast<std::size_t>(g.output());
  util::metrics::set_enabled(true);
  for (const ops::KernelBackend backend :
       {ops::KernelBackend::kScalar, ops::KernelBackend::kBlocked}) {
    const std::string be(ops::backend_name(backend));
    const ExecutionPlan plan =
        compile(g, {.dtype = DType::kFixed32, .backend = backend});
    const Executor exec;
    Arena golden_arena, full_arena, arena;
    exec.run(plan, feeds, golden_arena);
    const std::vector<Tensor> golden = golden_arena.outputs();
    exec.run(plan, feeds, full_arena, fi::make_injections(plan, faults));
    util::metrics::reset();
    const Tensor out = exec.run_from(
        plan, golden, fi::make_injections(plan, faults), arena);
    EXPECT_EQ(util::metrics::counter_value("exec.materialized_elements"),
              192u)
        << be;
    EXPECT_EQ(dense_dispatches(), 0u) << be;
    // Every node below the root took the element-sparse tier.
    EXPECT_EQ(util::metrics::counter_value("exec.sparse_nodes"),
              cone_size(plan, g.find("conv1")) - 1)
        << be;
    ASSERT_TRUE(bitwise_differs(out, golden[out_id]))
        << be << ": the flip must reach the output";
    expect_bitwise_equal(out, full_arena.outputs()[out_id], be + " output");
    expect_all_nodes_equal(arena.outputs(), full_arena.outputs(), g, be);
  }
  util::metrics::set_enabled(false);
  util::metrics::reset();
}

// A corrupted filter element i of a conv with oc output channels feeds
// output channel i % oc alone.  With a golden data input the conv
// recomputes that channel on the element-sparse tier — no dense kernel
// anywhere in the cone, whose other ops all have sparse kernels — its
// changes lie in the one channel, the run builds no full tensor but the
// returned output (so no filter copy), and every node equals the full run
// with the same injections.  The filter is a Const faulted by injection
// (a weight fault), or a computed one (Tanh of a second input) faulted
// upstream of the filter slot; both reach the conv as valued change sets.
TEST(ExecutionPlan, ParameterFaultRecomputesOneChannel) {
  util::Rng rng(29);
  GraphBuilder cb;
  cb.input("input", Shape{1, 8, 8, 3});
  cb.conv2d("conv", random_tensor(Shape{3, 3, 3, 6}, rng, 0.4f),
            random_tensor(Shape{6}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  cb.activation("act", ops::OpKind::kTanh);
  GraphBuilder tb;
  const NodeId x = tb.input("input", Shape{1, 8, 8, 3});
  tb.input("filter_in", Shape{3, 3, 3, 6});
  const NodeId f = tb.activation("filter_act", ops::OpKind::kTanh);
  tb.append("conv",
            std::make_shared<ops::Conv2DOp>(
                ops::Conv2DParams{1, 1, ops::Padding::kSame}),
            {x, f});
  struct Source {
    std::string name;
    Graph g;
    std::string root;  // the faulted node: the filter, or its producer
  };
  const Source sources[] = {{"const filter", cb.finish(), "conv/filter"},
                            {"computed filter", tb.finish(), "filter_act"}};
  const std::size_t element = ((1 * 3 + 2) * 3 + 1) * 6 + 4;  // channel 4
  util::metrics::set_enabled(true);
  for (const Source& src : sources) {
    const Graph& g = src.g;
    const std::unordered_map<std::string, Tensor> feeds{
        {"input", random_tensor(Shape{1, 8, 8, 3}, rng)},
        {"filter_in", random_tensor(Shape{3, 3, 3, 6}, rng, 0.4f)}};
    for (const ops::KernelBackend backend :
         {ops::KernelBackend::kScalar, ops::KernelBackend::kBlocked}) {
      for (const DType dtype : {DType::kFixed32, DType::kFloat32}) {
        const std::string be(ops::backend_name(backend));
        const std::string what =
            src.name + " " + be + " " + std::string(tensor::dtype_name(dtype));
        const ExecutionPlan plan =
            compile(g, {.dtype = dtype, .backend = backend});
        const Executor exec;
        Arena golden_arena, full_arena, arena;
        exec.run(plan, feeds, golden_arena);
        const std::vector<Tensor> golden = golden_arena.outputs();
        // Bit 9 is worth 0.5 under fixed32; under float32 it moves the
        // mantissa, which still changes every product it enters.
        const std::vector<Injection> injections =
            fi::make_injections(plan, fi::FaultSet{{src.root, element, 9}});
        ASSERT_EQ(injections.size(), 1u) << what;
        exec.run(plan, feeds, full_arena, injections);
        util::metrics::reset();
        exec.run_from(plan, golden, injections, arena);
        EXPECT_EQ(dense_dispatches(), 0u) << what;
        EXPECT_EQ(util::metrics::counter_value("exec.sparse_nodes"),
                  cone_size(plan, g.find(src.root)) - 1)
            << what;
        EXPECT_EQ(util::metrics::counter_value("exec.materialized_elements"),
                  golden[static_cast<std::size_t>(g.output())].elements())
            << what;
        expect_all_nodes_equal(arena.outputs(), full_arena.outputs(), g,
                               what);
        const auto id = static_cast<std::size_t>(g.find("conv"));
        const auto out = arena.outputs()[id].values();
        const auto gold = golden[id].values();
        std::size_t changed = 0;
        for (std::size_t i = 0; i < out.size(); ++i)
          if (std::bit_cast<std::uint32_t>(out[i]) !=
              std::bit_cast<std::uint32_t>(gold[i])) {
            EXPECT_EQ(i % 6, 4u) << what << " element " << i;
            ++changed;
          }
        EXPECT_GT(changed, 0u) << what;
      }
    }
  }
  util::metrics::set_enabled(false);
  util::metrics::reset();
}

// Reachability sets match a brute-force transitive closure over consumer
// edges.
TEST(ExecutionPlan, ReachabilityMatchesBruteForce) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const Graph g = random_graph(seed);
    const ExecutionPlan plan = plan_of(g, DType::kFloat32);
    const std::size_t n = g.size();
    // Brute force closure.
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (std::size_t i = n; i-- > 0;) {
      reach[i][i] = true;
      for (const NodeId c : g.consumers(static_cast<NodeId>(i)))
        for (std::size_t j = 0; j < n; ++j)
          if (reach[static_cast<std::size_t>(c)][j]) reach[i][j] = true;
    }
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(plan.reaches(static_cast<NodeId>(i),
                               static_cast<NodeId>(j)),
                  reach[i][j])
            << "seed " << seed << " reach(" << i << "," << j << ")";
  }
}

TEST(ExecutionPlan, MarkDirtyIsUnionOfCones) {
  const Graph g = random_graph(21);
  const ExecutionPlan plan = plan_of(g, DType::kFixed32);
  const NodeId a = g.find("conv_a");
  const NodeId b = g.find("conv_b");
  ASSERT_NE(a, kInvalidNode);
  ASSERT_NE(b, kInvalidNode);
  std::vector<bool> dirty;
  const NodeId roots[] = {a, b};
  const std::size_t count = plan.mark_dirty(roots, dirty);
  std::size_t expected = 0;
  for (std::size_t j = 0; j < g.size(); ++j) {
    const bool want =
        plan.reaches(a, static_cast<NodeId>(j)) ||
        plan.reaches(b, static_cast<NodeId>(j));
    EXPECT_EQ(dirty[j], want) << "node " << j;
    expected += want ? 1u : 0u;
  }
  EXPECT_EQ(count, expected);
}

// Const nodes are pre-quantized at plan compile time; executing the plan
// must produce exactly what per-trial quantisation used to.
TEST(ExecutionPlan, ConstCacheIsPreQuantized) {
  const Graph g = random_graph(31);
  for (const DType dtype : {DType::kFixed32, DType::kFixed16}) {
    const ExecutionPlan plan = plan_of(g, dtype);
    for (const Node& n : g.nodes()) {
      if (n.op->kind() != ops::OpKind::kConst) continue;
      const Tensor raw = n.op->compute({});
      const Tensor& cached = plan.const_output(n.id);
      ASSERT_EQ(raw.elements(), cached.elements());
      for (std::size_t i = 0; i < raw.elements(); ++i)
        EXPECT_EQ(tensor::dtype_quantize(dtype, raw.at(i)), cached.at(i));
    }
    EXPECT_THROW(plan.const_output(g.output()), std::out_of_range);
  }
}

// Arena reuse across repeated runs: same plan, same arena, interleaved
// feeds — results must be stable, and the quantised-feed cache must not
// leak stale values across different feed tensors.
TEST(Arena, ReuseAcrossRunsAndFeeds) {
  const Graph g = random_graph(41);
  util::Rng rng(5);
  const Tensor x1 = random_tensor(g.node(0).op->infer_shape({}), rng);
  const Tensor x2 = random_tensor(g.node(0).op->infer_shape({}), rng);
  const Executor exec;
  const ExecutionPlan plan = plan_of(g, DType::kFixed32);

  Arena fresh1, fresh2;
  const Tensor y1 = exec.run(plan, {{"input", x1}}, fresh1);
  const Tensor y2 = exec.run(plan, {{"input", x2}}, fresh2);

  Arena reused;
  for (int i = 0; i < 3; ++i) {
    expect_bitwise_equal(exec.run(plan, {{"input", x1}}, reused), y1,
                         "reused arena, feed 1");
    expect_bitwise_equal(exec.run(plan, {{"input", x2}}, reused), y2,
                         "reused arena, feed 2");
  }

  // Rebinding to a different plan resets cleanly.
  const ExecutionPlan plan16 = plan_of(g, DType::kFixed16);
  const Tensor y16 = exec.run(plan16, {{"input", x1}}, reused);
  Arena fresh16;
  expect_bitwise_equal(y16, exec.run(plan16, {{"input", x1}}, fresh16),
                       "rebound arena");
}

// A plan of the Ranger-protected graph folds the spliced /ranger
// restriction nodes into the reachability sets, so fault sites planned on
// the unprotected graph (by name) replay on the protected plan and the
// restriction ops re-execute.
TEST(ExecutionPlan, ProtectedGraphReplaysByName) {
  const Graph g = random_graph(51);
  util::Rng rng(3);
  const Tensor x = random_tensor(g.node(0).op->infer_shape({}), rng);
  const std::vector<fi::Feeds> samples{{{"input", x}}};

  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(g, samples);
  const Graph prot = core::RangerTransform{}.apply(g, bounds);
  ASSERT_GT(prot.size(), g.size());

  const DType dtype = DType::kFixed32;
  const Executor exec;
  const ExecutionPlan plan = plan_of(prot, dtype);
  Arena arena, full_arena;
  exec.run(plan, {{"input", x}}, arena);
  const std::vector<Tensor> golden = arena.outputs();

  // The restriction node is in its producer's downstream set.
  const NodeId act = prot.find("act1");
  const NodeId clamp = prot.find(std::string("act1") +
                                 core::RangerTransform::kSuffix);
  ASSERT_NE(act, kInvalidNode);
  ASSERT_NE(clamp, kInvalidNode);
  EXPECT_TRUE(plan.reaches(act, clamp));

  // Faults planned by unprotected-graph names replay bit-identically.
  for (const Node& n : g.nodes()) {
    if (!n.injectable) continue;
    const NodeId replay = prot.find(n.name);
    ASSERT_NE(replay, kInvalidNode) << n.name;
    const fi::FaultSet faults{{n.name, 0, 28}};
    const PostOpHook hook = fi::make_injection_hook(prot, dtype, faults);
    const Tensor full = exec.run(plan, {{"input", x}}, full_arena, hook);
    const Tensor partial = exec.run_from(
        plan, golden, fi::make_injections(plan, faults), arena);
    expect_bitwise_equal(partial, full, "protected replay at " + n.name);
  }
}

}  // namespace
}  // namespace rangerpp::graph
