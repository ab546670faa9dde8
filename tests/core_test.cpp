#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "core/flops_profiler.hpp"
#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "core/restrict_op.hpp"
#include "fi/campaign.hpp"
#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::core {
namespace {

using graph::GraphBuilder;
using tensor::Shape;
using tensor::Tensor;

// relu -> maxpool -> flatten net exercising Algorithm 1's extension rules.
graph::Graph relu_pool_net() {
  GraphBuilder b;
  b.input("input", Shape{1, 4, 4, 1});
  b.conv2d("conv", Tensor::full(Shape{3, 3, 1, 2}, 0.3f),
           Tensor(Shape{2}), {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  b.max_pool("pool", {2, 2, 2, 2, ops::Padding::kValid});
  b.flatten("flatten");
  return b.finish();
}

// Concat net: two relu branches merged (the SqueezeNet fire pattern).
graph::Graph concat_net() {
  GraphBuilder b;
  b.input("input", Shape{1, 2, 2, 1});
  const graph::NodeId stem = b.current();
  b.conv2d("conv_a", Tensor::full(Shape{1, 1, 1, 1}, 1.0f),
           Tensor(Shape{1}), {1, 1, ops::Padding::kSame});
  b.activation("relu_a", ops::OpKind::kRelu);
  const graph::NodeId a = b.current();
  b.set_current(stem);
  b.conv2d("conv_b", Tensor::full(Shape{1, 1, 1, 1}, 2.0f),
           Tensor(Shape{1}), {1, 1, ops::Padding::kSame});
  b.activation("relu_b", ops::OpKind::kRelu);
  const graph::NodeId bb = b.current();
  b.concat("concat", a, bb);
  return b.finish();
}

std::vector<fi::Feeds> const_feeds(float v, int n = 3) {
  std::vector<fi::Feeds> feeds;
  for (int i = 0; i < n; ++i)
    feeds.push_back({{"input",
                      Tensor::full(Shape{1, 4, 4, 1},
                                   v + 0.1f * static_cast<float>(i))}});
  return feeds;
}

// A float32 plan whose nodes are `g`'s, so hooks see every node.
graph::ExecutionPlan float_plan(const graph::Graph& g) {
  return graph::compile(g, {.dtype = tensor::DType::kFloat32,
                            .observe = graph::Observe::kAll});
}

// ---- RangeProfiler ----------------------------------------------------------

TEST(RangeProfiler, ObservesActivationExtrema) {
  const graph::Graph g = relu_pool_net();
  const RangeProfiler prof;
  const RangeProfile p = prof.profile(g, const_feeds(1.0f));
  const util::RunningRange r = p.range_of("relu");
  EXPECT_GT(r.count, 0u);
  // conv of all-1.2 inputs with 0.3 kernel: centre 9*0.3*1.2 = 3.24 max.
  EXPECT_GT(r.max_value, 2.0f);
  EXPECT_GE(r.min_value, 0.0f);  // relu output is non-negative
  EXPECT_THROW(p.range_of("conv"), std::invalid_argument);  // not an ACT
}

TEST(RangeProfiler, BoundsAtFullPercentileEqualExtrema) {
  const graph::Graph g = relu_pool_net();
  const RangeProfiler prof;
  const RangeProfile p = prof.profile(g, const_feeds(1.0f));
  const Bounds b = p.bounds(100.0);
  ASSERT_TRUE(b.contains("relu"));
  const util::RunningRange r = p.range_of("relu");
  EXPECT_FLOAT_EQ(b.at("relu").up, r.max_value);
  EXPECT_FLOAT_EQ(b.at("relu").low, r.min_value);
}

TEST(RangeProfiler, PercentileBoundTightens) {
  const graph::Graph g = relu_pool_net();
  const RangeProfiler prof;
  const RangeProfile p = prof.profile(g, const_feeds(1.0f, 20));
  const Bounds full = p.bounds(100.0);
  const Bounds tight = p.bounds(90.0);
  EXPECT_LE(tight.at("relu").up, full.at("relu").up);
  EXPECT_THROW(p.bounds(0.0), std::invalid_argument);
  EXPECT_THROW(p.bounds(101.0), std::invalid_argument);
}

TEST(RangeProfiler, AnalyticBoundsForTanhSigmoid) {
  GraphBuilder b;
  b.input("input", Shape{4});
  b.activation("tanh", ops::OpKind::kTanh);
  b.activation("sigmoid", ops::OpKind::kSigmoid);
  const graph::Graph g = b.finish();
  const RangeProfiler prof;
  const Bounds bounds = prof.derive_bounds(
      g, {{{"input", Tensor(Shape{4}, {-1, 0, 1, 2})}}});
  EXPECT_FLOAT_EQ(bounds.at("tanh").low, -1.0f);
  EXPECT_FLOAT_EQ(bounds.at("tanh").up, 1.0f);
  EXPECT_FLOAT_EQ(bounds.at("sigmoid").low, 0.0f);
  EXPECT_FLOAT_EQ(bounds.at("sigmoid").up, 1.0f);
}

// conv -> relu -> conv -> elu: two statistical ACT layers, the second
// signed, so percentile bounds read both reservoir tails.
graph::Graph two_act_net(util::Rng& rng) {
  const auto random = [&rng](Shape shape, float scale) {
    std::vector<float> v(shape.elements());
    for (float& x : v) x = static_cast<float>(rng.uniform(-scale, scale));
    return Tensor(shape, std::move(v));
  };
  GraphBuilder b;
  b.input("input", Shape{1, 6, 6, 2});
  b.conv2d("conv1", random(Shape{3, 3, 2, 4}, 0.5f), random(Shape{4}, 0.1f),
           {1, 1, ops::Padding::kSame});
  b.activation("relu1", ops::OpKind::kRelu);
  b.conv2d("conv2", random(Shape{3, 3, 4, 3}, 0.5f), random(Shape{3}, 0.1f),
           {1, 1, ops::Padding::kSame});
  b.activation("elu2", ops::OpKind::kElu);
  return b.finish();
}

void expect_same_bits(float a, float b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b))
      << what << ": " << a << " vs " << b;
}

// The stream the profiler must reproduce, computed the plain serial way:
// every sample in order, each ACT output in element order, into a range
// and a reservoir seeded as the profiler seeds them.
struct StreamStats {
  util::RunningRange range;
  util::Reservoir reservoir;
};
std::map<std::string, StreamStats> serial_stream(
    const graph::Graph& g, const std::vector<fi::Feeds>& feeds,
    const ProfileOptions& o) {
  std::map<std::string, StreamStats> ref;
  for (const graph::Node& n : g.nodes())
    if (ops::is_activation(n.op->kind()))
      ref.emplace(n.name,
                  StreamStats{{},
                              util::Reservoir(
                                  o.reservoir_capacity,
                                  util::derive_seed(
                                      o.seed,
                                      static_cast<std::uint64_t>(n.id)))});
  const graph::ExecutionPlan plan = float_plan(g);
  const graph::Executor exec;
  graph::Arena arena;
  for (const fi::Feeds& f : feeds)
    exec.run(plan, f, arena, [&](const graph::Node& node, Tensor& out) {
      const auto it = ref.find(node.name);
      if (it == ref.end()) return;
      for (const float v : out.values()) {
        it->second.range.observe(v);
        it->second.reservoir.observe(v);
      }
    });
  return ref;
}

TEST(RangeProfiler, SampleParallelProfileMatchesSerialBitwise) {
  util::Rng rng(41);
  const graph::Graph g = two_act_net(rng);
  // Several chunks' worth of samples on any host, each contributing more
  // values per layer than the small reservoir holds, so the sample a
  // reservoir keeps depends on the order values arrive in.
  std::vector<fi::Feeds> feeds;
  for (std::size_t i = 0; i < 4 * util::default_thread_count() + 3; ++i) {
    std::vector<float> v(72);
    for (float& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
    feeds.push_back({{"input", Tensor(Shape{1, 6, 6, 2}, std::move(v))}});
  }
  const ProfileOptions options{.reservoir_capacity = 64};
  const RangeProfiler profiler(options);
  const RangeProfile parallel = profiler.profile(g, feeds);
  const RangeProfile serial = [&] {
    const util::ScopedPoolWorker inline_loops;  // every loop runs inline
    return profiler.profile(g, feeds);
  }();

  for (const double q : {100.0, 99.0}) {
    const Bounds a = parallel.bounds(q), b = serial.bounds(q);
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [name, bound] : b) {
      ASSERT_TRUE(a.contains(name)) << name;
      expect_same_bits(a.at(name).low, bound.low, name + " low");
      expect_same_bits(a.at(name).up, bound.up, name + " up");
    }
  }
  // Both runs must also equal the plain serial stream: a wrong merge
  // order would move the parallel and the inline run together.
  const std::map<std::string, StreamStats> stream =
      serial_stream(g, feeds, options);
  ASSERT_EQ(stream.size(), 2u);
  for (const RangeProfile* p : {&parallel, &serial}) {
    ASSERT_EQ(p->layers().size(), stream.size());
    for (const auto& [name, want] : stream) {
      const util::RunningRange r = p->range_of(name);
      EXPECT_EQ(r.count, want.range.count) << name;
      expect_same_bits(r.min_value, want.range.min_value, name + " min");
      expect_same_bits(r.max_value, want.range.max_value, name + " max");
      const auto want_sample = want.reservoir.values();
      const auto got_sample = p->layers().at(name).reservoir.values();
      EXPECT_GT(want.reservoir.seen(), want_sample.size()) << name;
      ASSERT_EQ(got_sample.size(), want_sample.size()) << name;
      for (std::size_t i = 0; i < want_sample.size(); ++i)
        expect_same_bits(got_sample[i], want_sample[i], name + " reservoir");
    }
  }
}

// ---- RangerTransform ---------------------------------------------------------

TEST(RangerTransform, InsertsClampAfterActAndTransparentOps) {
  const graph::Graph g = relu_pool_net();
  const Bounds bounds{{"relu", {0.0f, 5.0f}}};
  RangerTransform transform;
  const graph::Graph protected_g = transform.apply(g, bounds);

  // relu, pool and flatten each gain a restriction op.
  EXPECT_NE(protected_g.find("relu/ranger"), graph::kInvalidNode);
  EXPECT_NE(protected_g.find("pool/ranger"), graph::kInvalidNode);
  EXPECT_NE(protected_g.find("flatten/ranger"), graph::kInvalidNode);
  EXPECT_EQ(transform.last_stats().restriction_ops_inserted, 3u);
  EXPECT_EQ(transform.last_stats().activations_bounded, 1u);
  EXPECT_EQ(transform.last_stats().transparent_ops_bounded, 2u);
  EXPECT_EQ(transform.last_stats().bound_values_stored(), 6u);

  // Original names all survive (fault-replay compatibility).
  for (const graph::Node& n : g.nodes())
    EXPECT_NE(protected_g.find(n.name), graph::kInvalidNode) << n.name;
}

TEST(RangerTransform, PreservesFaultFreeOutput) {
  const graph::Graph g = relu_pool_net();
  const RangeProfiler prof;
  const Bounds bounds = prof.derive_bounds(g, const_feeds(1.0f));
  const graph::Graph protected_g = RangerTransform{}.apply(g, bounds);

  const graph::ExecutionPlan plan = float_plan(g);
  const graph::ExecutionPlan plan_prot = float_plan(protected_g);
  const graph::Executor exec;
  graph::Arena arena, arena_prot;
  for (const fi::Feeds& feeds : const_feeds(1.0f)) {
    const Tensor y0 = exec.run(plan, feeds, arena);
    const Tensor y1 = exec.run(plan_prot, feeds, arena_prot);
    ASSERT_EQ(y0.elements(), y1.elements());
    for (std::size_t i = 0; i < y0.elements(); ++i)
      EXPECT_FLOAT_EQ(y0.at(i), y1.at(i));
  }
}

TEST(RangerTransform, RestrictsInjectedFault) {
  const graph::Graph g = relu_pool_net();
  const Bounds bounds{{"relu", {0.0f, 4.0f}}};
  const graph::Graph protected_g = RangerTransform{}.apply(g, bounds);
  const graph::ExecutionPlan plan = float_plan(g);
  const graph::ExecutionPlan plan_prot = float_plan(protected_g);
  const graph::Executor exec;
  graph::Arena arena, arena_prot;
  const fi::Feeds feeds{{"input", Tensor::full(Shape{1, 4, 4, 1}, 1.0f)}};

  // Corrupt the relu output with a huge value; the protected graph's
  // output must stay within what a 4.0-bounded activation can produce.
  const auto corrupt = [](const graph::Node& n, Tensor& out) {
    if (n.name == "relu") out.set(0, 1e9f);
  };
  const Tensor bad = exec.run(plan, feeds, arena, corrupt);
  const Tensor good = exec.run(plan_prot, feeds, arena_prot, corrupt);
  float bad_max = 0.0f, good_max = 0.0f;
  for (float v : bad.values()) bad_max = std::max(bad_max, v);
  for (float v : good.values()) good_max = std::max(good_max, v);
  EXPECT_GE(bad_max, 1e8f);
  EXPECT_LE(good_max, 4.0f);
}

TEST(RangerTransform, ConcatMergesBranchBounds) {
  const graph::Graph g = concat_net();
  const Bounds bounds{{"relu_a", {0.0f, 2.0f}}, {"relu_b", {-1.0f, 7.0f}}};
  RangerTransform transform;
  const graph::Graph protected_g = transform.apply(g, bounds);
  const graph::NodeId concat_clamp = protected_g.find("concat/ranger");
  ASSERT_NE(concat_clamp, graph::kInvalidNode);
  const auto* clamp = dynamic_cast<const ops::ClampOp*>(
      protected_g.node(concat_clamp).op.get());
  ASSERT_NE(clamp, nullptr);
  // Merged bound = (min lows, max ups) — Algorithm 1 lines 7-8.
  EXPECT_FLOAT_EQ(clamp->low(), -1.0f);
  EXPECT_FLOAT_EQ(clamp->high(), 7.0f);
}

TEST(RangerTransform, ConcatWithOneUnboundedBranchIsNotRestricted) {
  const graph::Graph g = concat_net();
  const Bounds bounds{{"relu_a", {0.0f, 2.0f}}};  // relu_b unprofiled
  const graph::Graph protected_g = RangerTransform{}.apply(g, bounds);
  EXPECT_EQ(protected_g.find("concat/ranger"), graph::kInvalidNode);
}

TEST(RangerTransform, UnboundedActivationsAreLeftAlone) {
  const graph::Graph g = relu_pool_net();
  const graph::Graph protected_g = RangerTransform{}.apply(g, {});
  EXPECT_EQ(protected_g.size(), g.size());
  EXPECT_EQ(RangerTransform{}.last_stats().restriction_ops_inserted, 0u);
}

// ---- Restriction policies (§VI-C design alternatives) -------------------------

TEST(RestrictionPolicies, ZeroResetZeroesOutOfBound) {
  const ZeroResetOp op(0.0f, 1.0f);
  const Tensor x(Shape{3}, {0.5f, 2.0f, -1.0f});
  const Tensor y = op.compute(std::array{x});
  EXPECT_FLOAT_EQ(y.at(0), 0.5f);
  EXPECT_FLOAT_EQ(y.at(1), 0.0f);
  EXPECT_FLOAT_EQ(y.at(2), 0.0f);
}

TEST(RestrictionPolicies, RandomReplaceStaysInBoundsAndIsDeterministic) {
  const RandomReplaceOp op(0.0f, 1.0f, 42);
  const Tensor x(Shape{4}, {0.5f, 5.0f, -3.0f, 0.9f});
  const Tensor y1 = op.compute(std::array{x});
  const Tensor y2 = op.compute(std::array{x});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(y1.at(i), 0.0f);
    EXPECT_LE(y1.at(i), 1.0f);
    EXPECT_FLOAT_EQ(y1.at(i), y2.at(i));  // deterministic
  }
  EXPECT_FLOAT_EQ(y1.at(0), 0.5f);  // in-bound values untouched
}

TEST(RestrictionPolicies, TransformHonoursPolicyChoice) {
  const graph::Graph g = relu_pool_net();
  const Bounds bounds{{"relu", {0.0f, 1.0f}}};
  const graph::Graph zeroed =
      RangerTransform{{RestrictionPolicy::kZero}}.apply(g, bounds);
  const graph::ExecutionPlan plan = float_plan(zeroed);
  const graph::Executor exec;
  graph::Arena arena;
  const fi::Feeds feeds{{"input", Tensor::full(Shape{1, 4, 4, 1}, 1.0f)}};
  // relu outputs exceed 1.0 for this input, so zero-reset nukes them and
  // the final output collapses to 0 — the accuracy catastrophe of §VI-C.
  const Tensor y = exec.run(plan, feeds, arena);
  for (float v : y.values()) EXPECT_FLOAT_EQ(v, 0.0f);
}

// ---- FLOPs profiler -----------------------------------------------------------

TEST(FlopsProfiler, CountsPerKindAndTotal) {
  // Per-kind accounting goes through the metrics registry, not a
  // bespoke report field.
  util::metrics::set_enabled(true);
  util::metrics::reset();
  const graph::Graph g = relu_pool_net();
  const FlopsReport r = profile_flops(g);
  util::metrics::set_enabled(false);
  EXPECT_GT(r.total, 0u);
  EXPECT_EQ(util::metrics::counter_value("flops.total"), r.total);
  EXPECT_GT(util::metrics::counter_value("flops.Conv2D"), 0u);
  EXPECT_GT(util::metrics::counter_value("flops.Relu"), 0u);
  // Conv dominates this net.
  EXPECT_GT(util::metrics::counter_value("flops.Conv2D"),
            util::metrics::counter_value("flops.Relu"));
  util::metrics::reset();
}

TEST(FlopsProfiler, RangerOverheadIsSmallAndPositive) {
  const graph::Graph g = relu_pool_net();
  const Bounds bounds{{"relu", {0.0f, 5.0f}}};
  const graph::Graph protected_g = RangerTransform{}.apply(g, bounds);
  const double pct = flops_overhead_pct(g, protected_g);
  EXPECT_GT(pct, 0.0);
  EXPECT_LT(pct, 50.0);  // tiny nets have high relative clamp cost
}

}  // namespace
}  // namespace rangerpp::core
