// Kernel-backend and batched-execution contracts:
//  * scalar vs blocked equivalence — bit-exact (the design guarantee) and
//    therefore trivially within the paper-level tolerance — across conv
//    shapes, strides, paddings, dtypes and odd batch sizes;
//  * run-to-run bit-identity of the blocked backend;
//  * batched plan runs reproduce per-image runs bit-identically, and
//    batched campaign trials reproduce per-trial campaigns bit-identically
//    (the property the shard-merge golden gates rest on).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/restrict_op.hpp"
#include "fi/equivalence.hpp"
#include "fi/runner.hpp"
#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "graph/plan.hpp"
#include "ops/backend.hpp"
#include "util/rng.hpp"

namespace rangerpp {
namespace {

tensor::Tensor random_tensor(tensor::Shape shape, util::Rng& rng,
                             float scale = 1.0f) {
  std::vector<float> v(shape.elements());
  for (float& x : v) x = static_cast<float>(rng.uniform(-scale, scale));
  return tensor::Tensor(shape, std::move(v));
}

void expect_bit_identical(const tensor::Tensor& a, const tensor::Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.elements(), b.elements()) << what;
  const auto av = a.values();
  const auto bv = b.values();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(av[i]),
              std::bit_cast<std::uint32_t>(bv[i]))
        << what << " differs at element " << i << ": " << av[i] << " vs "
        << bv[i];
  }
}

// A plan of `g` that keeps every node (Observe::kAll), so arena outputs
// line up node for node across backends and batch sizes.
graph::ExecutionPlan backend_plan(
    const graph::Graph& g, tensor::DType dtype,
    ops::KernelBackend backend = ops::default_backend(),
    std::size_t batch = 1) {
  return graph::compile(g, {.dtype = dtype,
                            .backend = backend,
                            .batch = batch,
                            .observe = graph::Observe::kAll});
}

// Runs one op as a tiny graph under both backends and checks bit-identity
// (which implies any numeric tolerance) of the full executor pipeline,
// including quantisation.
void check_backend_equivalence(graph::Graph g,
                               const fi::Feeds& feeds,
                               tensor::DType dtype,
                               const std::string& what) {
  const graph::Executor exec;
  graph::Arena a_scalar, a_blocked;
  const graph::ExecutionPlan scalar =
      backend_plan(g, dtype, ops::KernelBackend::kScalar);
  const graph::ExecutionPlan blocked =
      backend_plan(g, dtype, ops::KernelBackend::kBlocked);
  const tensor::Tensor out_s = exec.run(scalar, feeds, a_scalar);
  const tensor::Tensor out_b = exec.run(blocked, feeds, a_blocked);
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    expect_bit_identical(a_scalar.outputs()[i], a_blocked.outputs()[i],
                         what + " node " + std::to_string(i));
    // The design contract is bit-identity; assert the paper-level numeric
    // tolerance too so a future backend that only promises tolerance has
    // the test it needs.
    const auto sv = a_scalar.outputs()[i].values();
    const auto bv = a_blocked.outputs()[i].values();
    for (std::size_t e = 0; e < sv.size(); ++e) {
      if (!std::isnan(sv[e])) {
        ASSERT_NEAR(sv[e], bv[e], 1e-5) << what;
      }
    }
  }
  expect_bit_identical(out_s, out_b, what + " output");
}

TEST(BackendTest, ParseAndNames) {
  EXPECT_EQ(ops::parse_backend("scalar"), ops::KernelBackend::kScalar);
  EXPECT_EQ(ops::parse_backend("blocked"), ops::KernelBackend::kBlocked);
  EXPECT_EQ(ops::parse_backend("simd"), ops::KernelBackend::kSimd);
  EXPECT_FALSE(ops::parse_backend("gpu").has_value());
  EXPECT_EQ(ops::backend_name(ops::KernelBackend::kBlocked), "blocked");
  EXPECT_EQ(ops::backend_name(ops::KernelBackend::kSimd), "simd");
}

TEST(BackendTest, ConvEquivalenceAcrossShapesStridesPaddings) {
  util::Rng rng(17);
  struct Case {
    int ih, iw, ic, kh, kw, oc, sh, sw;
    ops::Padding pad;
  };
  const Case cases[] = {
      {12, 12, 3, 3, 3, 8, 1, 1, ops::Padding::kSame},
      {12, 12, 3, 3, 3, 8, 1, 1, ops::Padding::kValid},
      {16, 16, 4, 5, 5, 19, 1, 1, ops::Padding::kSame},
      {16, 16, 4, 5, 5, 19, 2, 2, ops::Padding::kSame},
      {15, 11, 6, 3, 5, 7, 2, 3, ops::Padding::kValid},
      {9, 9, 16, 3, 3, 33, 1, 1, ops::Padding::kSame},
      {28, 28, 1, 5, 5, 6, 1, 1, ops::Padding::kSame},
      {7, 7, 2, 7, 7, 5, 1, 1, ops::Padding::kSame},
      // 56 = 32 + 16 + 8: every register block of the pixel kernel.
      {10, 10, 5, 3, 3, 56, 1, 1, ops::Padding::kSame},
      // ResNet-18's stage-4 shape: 12 of the 16 output pixels are on the
      // edge.
      {4, 4, 64, 3, 3, 64, 1, 1, ops::Padding::kSame},
  };
  for (const Case& c : cases) {
    for (const tensor::DType dtype :
         {tensor::DType::kFixed32, tensor::DType::kFloat32}) {
      graph::GraphBuilder b;
      b.input("input", tensor::Shape{1, c.ih, c.iw, c.ic});
      b.conv2d("conv",
               random_tensor({c.kh, c.kw, c.ic, c.oc}, rng, 0.5f),
               random_tensor({c.oc}, rng, 0.1f),
               {c.sh, c.sw, c.pad});
      const fi::Feeds feeds{
          {"input", random_tensor({1, c.ih, c.iw, c.ic}, rng, 2.0f)}};
      check_backend_equivalence(
          b.finish(), feeds, dtype,
          "conv " + std::to_string(c.ih) + "x" + std::to_string(c.iw) +
              "x" + std::to_string(c.ic) + " k" + std::to_string(c.kh) +
              "x" + std::to_string(c.kw) + " oc" + std::to_string(c.oc) +
              " s" + std::to_string(c.sh) + std::to_string(c.sw));
    }
  }
}

TEST(BackendTest, GlobalAvgPoolHeadEquivalence) {
  util::Rng rng(19);
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 9, 7, 3});
  b.conv2d("conv", random_tensor({3, 3, 3, 24}, rng, 0.5f),
           random_tensor({24}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.global_avg_pool("gap");
  b.flatten("flatten");
  b.dense("fc", random_tensor({24, 10}, rng, 0.3f),
          random_tensor({10}, rng, 0.05f));
  const graph::Graph g = b.finish();
  const fi::Feeds feeds{{"input", random_tensor({1, 9, 7, 3}, rng, 2.0f)}};
  for (const tensor::DType dtype :
       {tensor::DType::kFixed32, tensor::DType::kFixed16,
        tensor::DType::kFloat32})
    check_backend_equivalence(g, feeds, dtype,
                              std::string("gap head ") +
                                  std::string(tensor::dtype_name(dtype)));
}

TEST(BackendTest, MixedOpGraphEquivalence) {
  util::Rng rng(23);
  graph::GraphBuilder b2;
  b2.input("input", tensor::Shape{1, 14, 14, 3});
  b2.conv2d("conv1", random_tensor({3, 3, 3, 12}, rng, 0.4f),
            random_tensor({12}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b2.batch_norm("bn", std::vector<float>(12, 1.1f),
                std::vector<float>(12, -0.05f));
  b2.activation("relu", ops::OpKind::kRelu);
  b2.lrn("lrn", {2, 1.0f, 0.05f, 0.75f});
  b2.max_pool("maxpool", {2, 2, 2, 2, ops::Padding::kValid});
  b2.avg_pool("avgpool", {3, 3, 1, 1, ops::Padding::kSame});
  b2.activation("tanh", ops::OpKind::kTanh);
  b2.append("clamp", std::make_shared<ops::ClampOp>(-0.5f, 0.9f),
            {b2.current()});
  b2.append("zero_reset", std::make_shared<core::ZeroResetOp>(-0.4f, 0.8f),
            {b2.current()});
  b2.append("rand_replace",
            std::make_shared<core::RandomReplaceOp>(-0.3f, 0.7f, 99),
            {b2.current()});
  b2.flatten("flatten");
  b2.dense("fc", random_tensor({7 * 7 * 12, 10}, rng, 0.2f),
           random_tensor({10}, rng, 0.05f));
  b2.softmax("softmax");
  const fi::Feeds feeds{
      {"input", random_tensor({1, 14, 14, 3}, rng, 2.0f)}};
  const graph::Graph g = b2.finish();
  for (const tensor::DType dtype :
       {tensor::DType::kFixed32, tensor::DType::kFixed16,
        tensor::DType::kFloat32})
    check_backend_equivalence(g, feeds, dtype, "mixed graph");
}

TEST(BackendTest, LrnWindowWiderThanChannels) {
  // C = 3 with radius 2: every channel's window is clipped on both sides.
  util::Rng rng(29);
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 5, 4, 3});
  b.lrn("lrn", {2, 2.0f, 0.3f, 0.75f});
  const graph::Graph g = b.finish();
  const fi::Feeds feeds{{"input", random_tensor({1, 5, 4, 3}, rng, 3.0f)}};
  for (const tensor::DType dtype :
       {tensor::DType::kFixed32, tensor::DType::kFixed16,
        tensor::DType::kFloat32})
    check_backend_equivalence(g, feeds, dtype, "lrn c3 r2");
}

TEST(BackendTest, BlockedBackendRunToRunBitIdentity) {
  util::Rng rng(31);
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 16, 16, 8});
  b.conv2d("conv", random_tensor({3, 3, 8, 24}, rng, 0.3f),
           random_tensor({24}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  const graph::Graph g = b.finish();
  const fi::Feeds feeds{{"input", random_tensor({1, 16, 16, 8}, rng)}};
  const graph::ExecutionPlan plan =
      backend_plan(g, tensor::DType::kFixed32, ops::KernelBackend::kBlocked);
  const graph::Executor exec;
  graph::Arena a1, a2;
  const tensor::Tensor first = exec.run(plan, feeds, a1);
  for (int i = 0; i < 3; ++i)
    expect_bit_identical(first, exec.run(plan, feeds, a2),
                         "run-to-run " + std::to_string(i));
}

graph::Graph small_classifier(util::Rng& rng) {
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 10, 10, 2});
  b.conv2d("conv1", random_tensor({3, 3, 2, 6}, rng, 0.4f),
           random_tensor({6}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.activation("relu1", ops::OpKind::kRelu);
  b.max_pool("pool1", {2, 2, 2, 2, ops::Padding::kValid});
  b.flatten("flatten");
  b.dense("fc", random_tensor({5 * 5 * 6, 4}, rng, 0.3f),
          random_tensor({4}, rng, 0.05f), /*injectable=*/false);
  b.softmax("softmax");
  return b.finish();
}

TEST(BatchedPlanTest, BatchedRunMatchesPerImageRunsBitIdentically) {
  util::Rng rng(47);
  const graph::Graph g = small_classifier(rng);
  ASSERT_TRUE(graph::plan_supports_batch(g));
  const graph::Executor exec;
  const graph::ExecutionPlan single =
      backend_plan(g, tensor::DType::kFixed32);
  // Odd batch sizes included: nothing in the contract requires powers of
  // two.  Images are packed along the leading dimension and each output
  // row cut back out, as TrialExecutor batches trials.
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{5}, std::size_t{8}}) {
    const graph::ExecutionPlan batched = backend_plan(
        g, tensor::DType::kFixed32, ops::default_backend(), batch);
    std::vector<tensor::Tensor> images;
    for (std::size_t i = 0; i < batch; ++i)
      images.push_back(random_tensor({1, 10, 10, 2}, rng));
    graph::Arena ab;
    const tensor::Tensor out =
        exec.run(batched, {{"input", graph::pack_batch(images)}}, ab);
    ASSERT_EQ(out.shape().dim(0), static_cast<int>(batch));
    for (std::size_t i = 0; i < batch; ++i) {
      graph::Arena a;
      const tensor::Tensor want = exec.run(single, {{"input", images[i]}}, a);
      expect_bit_identical(
          graph::slice_batch(out, i, batch, want.shape()), want,
          "batch " + std::to_string(batch) + " row " + std::to_string(i));
    }
  }
}

// A batch-4 blocked run of `g` against scalar per-image runs, every node
// of every row bit for bit, under fixed32 (what campaigns run) and float32
// (which keeps every rounding visible).
void expect_batched_blocked_matches_scalar(const graph::Graph& g,
                                           tensor::Shape image,
                                           util::Rng& rng,
                                           const std::string& what) {
  ASSERT_TRUE(graph::plan_supports_batch(g)) << what;
  constexpr std::size_t batch = 4;
  std::vector<tensor::Tensor> images;
  for (std::size_t i = 0; i < batch; ++i)
    images.push_back(random_tensor(image, rng));
  const graph::Executor exec;
  for (const tensor::DType dtype :
       {tensor::DType::kFixed32, tensor::DType::kFloat32}) {
    const graph::ExecutionPlan batched =
        backend_plan(g, dtype, ops::KernelBackend::kBlocked, batch);
    const graph::ExecutionPlan single =
        backend_plan(g, dtype, ops::KernelBackend::kScalar);
    graph::Arena ab;
    exec.run(batched, {{"input", graph::pack_batch(images)}}, ab);
    for (std::size_t i = 0; i < batch; ++i) {
      graph::Arena a;
      exec.run(single, {{"input", images[i]}}, a);
      for (std::size_t n = 0; n < single.size(); ++n) {
        if (single.is_const(static_cast<graph::NodeId>(n))) continue;
        const tensor::Tensor& want = a.outputs()[n];
        expect_bit_identical(
            graph::slice_batch(ab.outputs()[n], i, batch, want.shape()),
            want,
            what + " " + std::string(tensor::dtype_name(dtype)) + " row " +
                std::to_string(i) + " node " +
                g.node(static_cast<graph::NodeId>(n)).name);
      }
    }
  }
}

TEST(BatchedPlanTest, BatchedLrnMatchesScalarPerImageRuns) {
  // Large enough (4 x 32 x 32 rows of 16 channels) that the blocked LRN
  // spreads its rows over workers.
  util::Rng rng(53);
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 32, 32, 3});
  b.conv2d("conv", random_tensor({3, 3, 3, 16}, rng, 0.5f),
           random_tensor({16}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  b.lrn("lrn", {2, 1.0f, 0.05f, 0.75f});
  b.max_pool("pool", {2, 2, 2, 2, ops::Padding::kValid});
  b.flatten("flatten");
  b.dense("fc", random_tensor({16 * 16 * 16, 4}, rng, 0.05f),
          random_tensor({4}, rng, 0.05f));
  expect_batched_blocked_matches_scalar(b.finish(), {1, 32, 32, 3}, rng,
                                        "lrn");
}

TEST(BatchedPlanTest, BatchedGlobalAvgPoolMatchesScalarPerImageRuns) {
  // Large enough (4 images of 32 x 32 x 64) that the blocked
  // GlobalAvgPool spreads its images over workers.
  util::Rng rng(59);
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 32, 32, 3});
  b.conv2d("conv", random_tensor({3, 3, 3, 64}, rng, 0.5f),
           random_tensor({64}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  b.global_avg_pool("gap");
  b.flatten("flatten");
  b.dense("fc", random_tensor({64, 4}, rng, 0.2f),
          random_tensor({4}, rng, 0.05f));
  expect_batched_blocked_matches_scalar(b.finish(), {1, 32, 32, 3}, rng,
                                        "gap");
}

TEST(BatchedPlanTest, ReshapeGraphsRefuseBatch) {
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 4, 4, 1});
  b.reshape("reshape", tensor::Shape{1, 16});
  const graph::Graph g = b.finish();
  EXPECT_FALSE(graph::plan_supports_batch(g));
  EXPECT_THROW(
      backend_plan(g, tensor::DType::kFloat32, ops::default_backend(), 2),
      std::invalid_argument);
}

TEST(BatchedPlanTest, PackAndSliceRoundTrip) {
  util::Rng rng(5);
  std::vector<tensor::Tensor> images;
  for (int i = 0; i < 3; ++i)
    images.push_back(random_tensor({1, 2, 3, 4}, rng));
  const tensor::Tensor packed = graph::pack_batch(images);
  EXPECT_EQ(packed.shape(), (tensor::Shape{3, 2, 3, 4}));
  for (std::size_t i = 0; i < images.size(); ++i)
    expect_bit_identical(
        graph::slice_batch(packed, i, 3, tensor::Shape{1, 2, 3, 4}),
        images[i], "slice " + std::to_string(i));
  const tensor::Tensor tiled =
      graph::tile_batch(images[0], 2, tensor::Shape{2, 2, 3, 4});
  expect_bit_identical(
      graph::slice_batch(tiled, 1, 2, tensor::Shape{1, 2, 3, 4}),
      images[0], "tile");
}

// The hard end-to-end property: campaigns — batched or not, scalar or
// blocked — produce identical SDC verdicts trial for trial.
TEST(BatchedCampaignTest, BatchingAndBackendNeverChangeSdcCounts) {
  util::Rng rng(61);
  const graph::Graph g = small_classifier(rng);
  std::vector<fi::Feeds> inputs;
  for (int i = 0; i < 2; ++i)
    inputs.push_back({{"input", random_tensor({1, 10, 10, 2}, rng)}});
  const std::vector<fi::JudgePtr> judges{std::make_shared<fi::Top1Judge>()};

  std::vector<fi::CampaignReport> reports;
  for (const ops::KernelBackend backend :
       {ops::KernelBackend::kScalar, ops::KernelBackend::kBlocked}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
      for (const bool partial : {true, false}) {
        fi::RunnerConfig rc;
        rc.campaign.dtype = tensor::DType::kFixed32;
        rc.campaign.trials_per_input = 60;
        rc.campaign.seed = 2024;
        rc.campaign.backend = backend;
        rc.campaign.batch = batch;
        rc.campaign.partial_reexecution = partial;
        reports.push_back(fi::CampaignRunner(rc).run(g, inputs, judges));
        EXPECT_EQ(reports.back().executed(), 120u);
      }
    }
  }
  // Positive control: the reference configuration must see SDCs, or
  // "identical across configs" could hold with injection silently
  // missing everywhere.
  EXPECT_GT(reports[0].aggregate[0].sdcs, 0u);
  for (std::size_t i = 1; i < reports.size(); ++i)
    EXPECT_TRUE(reports[i].records == reports[0].records)
        << "configuration " << i
        << " diverged: backends/batching must be bit-identical";
}

TEST(BatchedCampaignTest, TrialBatchOutputsMatchPerTrialOutputs) {
  util::Rng rng(71);
  const graph::Graph g = small_classifier(rng);
  std::vector<fi::Feeds> inputs;
  inputs.push_back({{"input", random_tensor({1, 10, 10, 2}, rng)}});

  fi::CampaignConfig cc;
  cc.dtype = tensor::DType::kFixed32;
  cc.trials_per_input = 16;
  cc.seed = 7;
  cc.batch = 4;
  const fi::TrialPlanner planner(g, cc, inputs.size());
  const fi::TrialExecutor executor(g, cc, inputs, 1);
  ASSERT_EQ(executor.batch(), 4u);

  for (std::size_t t0 = 0; t0 < 16; t0 += 4) {
    std::vector<fi::FaultSet> faults;
    for (std::size_t t = t0; t < t0 + 4; ++t)
      faults.push_back(planner.plan(t).faults);
    const std::vector<tensor::Tensor> rows =
        executor.run_trial_batch(0, 0, faults);
    ASSERT_EQ(rows.size(), 4u);
    for (std::size_t b = 0; b < 4; ++b)
      expect_bit_identical(rows[b], executor.run_trial(0, 0, faults[b]),
                           "trial " + std::to_string(t0 + b));
  }
}

// ---- simd backend: tolerance-judged equivalence ----------------------------
//
// The simd backend is NOT part of the byte contract: its AVX2 GEMM core
// accumulates lanes with FMA, so conv/matmul outputs may differ from the
// reference in the last ulps.  These tests hold it to the fi::Equivalence
// contract instead (and must never be added to the bit-identity loops
// above).  On hosts without AVX2 the simd backend delegates to blocked,
// and the tolerance judge passes trivially — the test is still worth
// running there as a dispatch smoke test.

void check_simd_tolerance(graph::Graph g, const fi::Feeds& feeds,
                          tensor::DType dtype, const std::string& what) {
  const graph::Executor exec;
  graph::Arena a_scalar, a_simd;
  const graph::ExecutionPlan scalar =
      backend_plan(g, dtype, ops::KernelBackend::kScalar);
  const graph::ExecutionPlan simd =
      backend_plan(g, dtype, ops::KernelBackend::kSimd);
  const tensor::Tensor out_s = exec.run(scalar, feeds, a_scalar);
  const tensor::Tensor out_v = exec.run(simd, feeds, a_simd);
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    const fi::ToleranceSpec tol = fi::ToleranceSpec::for_scheme(
        scalar.qscheme(static_cast<graph::NodeId>(i)));
    const fi::TensorCompareReport r = fi::compare_tensors(
        a_scalar.outputs()[i], a_simd.outputs()[i], tol);
    EXPECT_TRUE(r.within)
        << what << " node " << i << ": " << r.mismatched << "/"
        << r.compared << " outside tolerance (max abs "
        << r.max_abs_diff << ", max ulp " << r.max_ulp_diff << ")";
  }
  const fi::TensorCompareReport r =
      fi::compare_tensors(out_s, out_v, fi::ToleranceSpec{});
  EXPECT_TRUE(r.within) << what << " output";
}

TEST(SimdBackendTest, ConvToleranceAcrossShapesStridesPaddings) {
  util::Rng rng(17);  // same stream as the bit-identity conv suite
  struct Case {
    int ih, iw, ic, kh, kw, oc, sh, sw;
    ops::Padding pad;
  };
  const Case cases[] = {
      {12, 12, 3, 3, 3, 8, 1, 1, ops::Padding::kSame},
      {12, 12, 3, 3, 3, 8, 1, 1, ops::Padding::kValid},
      {16, 16, 4, 5, 5, 19, 1, 1, ops::Padding::kSame},
      {16, 16, 4, 5, 5, 19, 2, 2, ops::Padding::kSame},
      {15, 11, 6, 3, 5, 7, 2, 3, ops::Padding::kValid},
      {9, 9, 16, 3, 3, 33, 1, 1, ops::Padding::kSame},
      {28, 28, 1, 5, 5, 6, 1, 1, ops::Padding::kSame},
      {7, 7, 2, 7, 7, 5, 1, 1, ops::Padding::kSame},
      // 56 = 32 + 16 + 8: every register block of the pixel kernel.
      {10, 10, 5, 3, 3, 56, 1, 1, ops::Padding::kSame},
      // ResNet-18's stage-4 shape: 12 of the 16 output pixels are on the
      // edge.
      {4, 4, 64, 3, 3, 64, 1, 1, ops::Padding::kSame},
  };
  for (const Case& c : cases) {
    for (const tensor::DType dtype :
         {tensor::DType::kFixed32, tensor::DType::kFloat32}) {
      graph::GraphBuilder b;
      b.input("input", tensor::Shape{1, c.ih, c.iw, c.ic});
      b.conv2d("conv",
               random_tensor({c.kh, c.kw, c.ic, c.oc}, rng, 0.5f),
               random_tensor({c.oc}, rng, 0.1f),
               {c.sh, c.sw, c.pad});
      const fi::Feeds feeds{
          {"input", random_tensor({1, c.ih, c.iw, c.ic}, rng, 2.0f)}};
      check_simd_tolerance(
          b.finish(), feeds, dtype,
          "simd conv " + std::to_string(c.ih) + "x" + std::to_string(c.iw) +
              "x" + std::to_string(c.ic) + " k" + std::to_string(c.kh) +
              "x" + std::to_string(c.kw) + " oc" + std::to_string(c.oc) +
              " s" + std::to_string(c.sh) + std::to_string(c.sw));
    }
  }
}

TEST(SimdBackendTest, MixedGraphToleranceAndArgmaxAgreement) {
  util::Rng rng(61);
  const graph::Graph g = small_classifier(rng);
  const graph::Executor exec;
  const graph::ExecutionPlan scalar =
      backend_plan(g, tensor::DType::kFixed32, ops::KernelBackend::kScalar);
  const graph::ExecutionPlan simd =
      backend_plan(g, tensor::DType::kFixed32, ops::KernelBackend::kSimd);
  std::vector<tensor::Tensor> outs_s, outs_v;
  graph::Arena a1, a2;
  for (int i = 0; i < 8; ++i) {
    const fi::Feeds feeds{{"input", random_tensor({1, 10, 10, 2}, rng)}};
    outs_s.push_back(exec.run(scalar, feeds, a1));
    outs_v.push_back(exec.run(simd, feeds, a2));
  }
  // Clean-run argmax agreement is the acceptance bar from the issue:
  // >= 99.9%.  On 8 inputs that means all 8.
  EXPECT_EQ(fi::argmax_agreement(outs_s, outs_v), 1.0);
}

TEST(SimdBackendTest, RunToRunBitIdentity) {
  // Tolerance-judged across backends, but the simd backend must still be
  // deterministic with itself: same plan, same feeds, same bits.
  util::Rng rng(31);
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 16, 16, 8});
  b.conv2d("conv", random_tensor({3, 3, 8, 24}, rng, 0.3f),
           random_tensor({24}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  const graph::Graph g = b.finish();
  const fi::Feeds feeds{{"input", random_tensor({1, 16, 16, 8}, rng)}};
  const graph::ExecutionPlan plan =
      backend_plan(g, tensor::DType::kFixed32, ops::KernelBackend::kSimd);
  const graph::Executor exec;
  graph::Arena a1, a2;
  const tensor::Tensor first = exec.run(plan, feeds, a1);
  for (int i = 0; i < 3; ++i)
    expect_bit_identical(first, exec.run(plan, feeds, a2),
                         "simd run-to-run " + std::to_string(i));
}

TEST(SimdBackendTest, CampaignSdcRatesStatisticallyEqualToScalar) {
  util::Rng rng(61);
  const graph::Graph g = small_classifier(rng);
  std::vector<fi::Feeds> inputs;
  for (int i = 0; i < 2; ++i)
    inputs.push_back({{"input", random_tensor({1, 10, 10, 2}, rng)}});
  const std::vector<fi::JudgePtr> judges{std::make_shared<fi::Top1Judge>()};
  fi::RunnerConfig rc;
  rc.campaign.dtype = tensor::DType::kFixed32;
  rc.campaign.trials_per_input = 100;
  rc.campaign.seed = 2024;
  rc.campaign.backend = ops::KernelBackend::kScalar;
  const fi::CampaignResult rs =
      fi::CampaignRunner(rc).run(g, inputs, judges).aggregate[0];
  rc.campaign.backend = ops::KernelBackend::kSimd;
  const fi::CampaignResult rv =
      fi::CampaignRunner(rc).run(g, inputs, judges).aggregate[0];
  EXPECT_EQ(rs.trials, rv.trials);
  EXPECT_TRUE(fi::rates_statistically_equal(rs.sdcs, rs.trials, rv.sdcs,
                                            rv.trials))
      << "scalar " << rs.sdcs << "/" << rs.trials << " vs simd " << rv.sdcs
      << "/" << rv.trials;
}

TEST(QuantizeSpanTest, MatchesPerElementCodec) {
  util::Rng rng(83);
  std::vector<float> values;
  for (int i = 0; i < 4096; ++i)
    values.push_back(static_cast<float>(rng.uniform(-3e6, 3e6)));
  values.insert(values.end(),
                {0.0f, -0.0f, 1e30f, -1e30f,
                 std::numeric_limits<float>::infinity(),
                 -std::numeric_limits<float>::infinity(),
                 std::numeric_limits<float>::quiet_NaN(), 0.125f,
                 -0.1253f});
  for (const tensor::DType d :
       {tensor::DType::kFixed32, tensor::DType::kFixed16,
        tensor::DType::kInt8, tensor::DType::kFloat32}) {
    std::vector<float> spanned = values;
    tensor::dtype_quantize_span(d, spanned);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const float expected = tensor::dtype_quantize(d, values[i]);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(spanned[i]),
                std::bit_cast<std::uint32_t>(expected))
          << tensor::dtype_name(d) << " element " << i << " value "
          << values[i];
    }
  }
}

}  // namespace
}  // namespace rangerpp
