#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <string>

#include "fi/fault_model.hpp"
#include "fi/runner.hpp"
#include "fi/sdc.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::fi {
namespace {

using graph::GraphBuilder;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

graph::Graph relu_net() {
  GraphBuilder b;
  b.input("input", Shape{1, 4, 4, 1});
  b.conv2d("conv", Tensor::full(Shape{3, 3, 1, 4}, 0.2f),
           Tensor(Shape{4}), {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  b.max_pool("pool", {2, 2, 2, 2, ops::Padding::kValid});
  b.flatten("flatten");
  return b.finish();
}

// A fixed32 plan whose nodes are `g`'s, so injection hooks see every node.
graph::ExecutionPlan fixed32_plan(const graph::Graph& g) {
  return graph::compile(
      g, {.dtype = DType::kFixed32, .observe = graph::Observe::kAll});
}

TEST(SiteSpace, CountsInjectableElements) {
  const graph::Graph g = relu_net();
  const SiteSpace sites(g, DType::kFixed32);
  // conv(4x4x4=64) + bias_add(64) + relu(64) + pool(2x2x4=16) +
  // flatten(16) = 224.
  EXPECT_EQ(sites.total_elements(), 224u);
  EXPECT_EQ(sites.elements_of("relu"), 64u);
  EXPECT_EQ(sites.elements_of("input"), 0u);    // not injectable
  EXPECT_EQ(sites.elements_of("missing"), 0u);
}

TEST(SiteSpace, SamplingIsUniformOverElements) {
  const graph::Graph g = relu_net();
  const SiteSpace sites(g, DType::kFixed32);
  util::Rng rng(11);
  std::size_t relu_hits = 0;
  constexpr std::size_t kTrials = 20000;
  for (std::size_t i = 0; i < kTrials; ++i) {
    const FaultSet f = sites.sample(rng, 1);
    ASSERT_EQ(f.size(), 1u);
    EXPECT_LT(f[0].element, sites.elements_of(f[0].node_name) == 0
                                ? SIZE_MAX
                                : sites.elements_of(f[0].node_name));
    EXPECT_GE(f[0].bit, 0);
    EXPECT_LT(f[0].bit, 32);
    if (f[0].node_name == "relu") ++relu_hits;
  }
  // relu holds 64/224 of the site mass.
  const double expected = 64.0 / 224.0;
  EXPECT_NEAR(static_cast<double>(relu_hits) / kTrials, expected, 0.02);
}

TEST(SiteSpace, MultiBitSamplesIndependentPoints) {
  const graph::Graph g = relu_net();
  const SiteSpace sites(g, DType::kFixed16);
  util::Rng rng(5);
  const FaultSet f = sites.sample(rng, 5);
  EXPECT_EQ(f.size(), 5u);
  for (const FaultPoint& p : f) EXPECT_LT(p.bit, 16);
}

TEST(InjectionHook, FlipsExactlyTheTargetedValue) {
  const graph::Graph g = relu_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  const graph::Executor exec;
  graph::Arena arena;
  const Tensor x = Tensor::full(Shape{1, 4, 4, 1}, 1.0f);

  const Tensor golden = exec.run(plan, {{"input", x}}, arena);
  const FaultSet faults{{"pool", 3, 12}};
  const Tensor faulty =
      exec.run(plan, {{"input", x}}, arena,
               make_injection_hook(g, DType::kFixed32, faults));
  // Output = flatten(pool): element 3 differs, all others equal.
  for (std::size_t i = 0; i < golden.elements(); ++i) {
    if (i == 3) {
      EXPECT_NE(faulty.at(i), golden.at(i));
    } else {
      EXPECT_FLOAT_EQ(faulty.at(i), golden.at(i));
    }
  }
}

TEST(InjectionHook, DeterministicGivenFaultSet) {
  const graph::Graph g = relu_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  const graph::Executor exec;
  graph::Arena arena;
  const Tensor x = Tensor::full(Shape{1, 4, 4, 1}, 0.5f);
  const FaultSet faults{{"conv", 7, 29}};
  const Tensor a =
      exec.run(plan, {{"input", x}}, arena,
               make_injection_hook(g, DType::kFixed32, faults));
  const Tensor b =
      exec.run(plan, {{"input", x}}, arena,
               make_injection_hook(g, DType::kFixed32, faults));
  for (std::size_t i = 0; i < a.elements(); ++i)
    EXPECT_FLOAT_EQ(a.at(i), b.at(i));
}

TEST(InjectionHook, UnknownNodeNamesAreIgnored) {
  const graph::Graph g = relu_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  const graph::Executor exec;
  graph::Arena arena;
  const Tensor x = Tensor::full(Shape{1, 4, 4, 1}, 0.5f);
  const Tensor golden = exec.run(plan, {{"input", x}}, arena);
  const Tensor out =
      exec.run(plan, {{"input", x}}, arena,
               make_injection_hook(g, DType::kFixed32,
                                   {{"not_a_node", 0, 0}}));
  for (std::size_t i = 0; i < out.elements(); ++i)
    EXPECT_FLOAT_EQ(out.at(i), golden.at(i));
}

// ---- Judges -----------------------------------------------------------------

TEST(Judges, Top1) {
  const Top1Judge j;
  const Tensor golden(Shape{3}, {0.1f, 0.8f, 0.1f});
  EXPECT_FALSE(j.is_sdc(golden, Tensor(Shape{3}, {0.2f, 0.7f, 0.1f})));
  EXPECT_TRUE(j.is_sdc(golden, Tensor(Shape{3}, {0.9f, 0.05f, 0.05f})));
}

TEST(Judges, Top5KeepsLabelInSet) {
  const Top5Judge j;
  Tensor golden(Shape{10});
  golden.set(7, 1.0f);  // fault-free label = 7
  Tensor faulty(Shape{10});
  for (int i = 0; i < 10; ++i)
    faulty.set(static_cast<std::size_t>(i), static_cast<float>(i) * 0.01f);
  faulty.set(7, 0.05f);  // 7 still within top-5 (values 5..9 dominate)
  EXPECT_FALSE(j.is_sdc(golden, faulty));
  faulty.set(7, -1.0f);  // now pushed out of top-5
  EXPECT_TRUE(j.is_sdc(golden, faulty));
}

TEST(Judges, SteeringThresholdsInDegrees) {
  const SteeringJudge j30(30.0, /*radians=*/false);
  EXPECT_FALSE(j30.is_sdc(Tensor::scalar(10.0f), Tensor::scalar(35.0f)));
  EXPECT_TRUE(j30.is_sdc(Tensor::scalar(10.0f), Tensor::scalar(45.0f)));
  EXPECT_THROW(SteeringJudge(0.0, false), std::invalid_argument);
}

TEST(Judges, SteeringRadiansConversion) {
  const SteeringJudge j15(15.0, /*radians=*/true);
  const float rad15 = static_cast<float>(15.0 * std::numbers::pi / 180.0);
  EXPECT_FALSE(j15.is_sdc(Tensor::scalar(0.0f),
                          Tensor::scalar(rad15 * 0.9f)));
  EXPECT_TRUE(j15.is_sdc(Tensor::scalar(0.0f),
                         Tensor::scalar(rad15 * 1.1f)));
}

TEST(Judges, NanOutputIsAlwaysSdc) {
  const SteeringJudge j(120.0, false);
  EXPECT_TRUE(j.is_sdc(Tensor::scalar(0.0f),
                       Tensor::scalar(std::numeric_limits<float>::quiet_NaN())));
}

// ---- TrialExecutor -------------------------------------------------------------

void expect_same_tensors(std::span<const Tensor> a, std::span<const Tensor> b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t n = 0; n < a.size(); ++n) {
    ASSERT_EQ(a[n].shape(), b[n].shape()) << what << " node " << n;
    const auto av = a[n].values();
    const auto bv = b[n].values();
    for (std::size_t e = 0; e < av.size(); ++e)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(av[e]),
                std::bit_cast<std::uint32_t>(bv[e]))
          << what << " node " << n << " element " << e;
  }
}

TEST(TrialExecutor, InputParallelGoldensMatchSerialBitwise) {
  const graph::Graph g = relu_net();
  std::vector<Feeds> inputs;
  for (int i = 0; i < 5; ++i) {
    std::vector<float> v(16);
    for (std::size_t e = 0; e < v.size(); ++e)
      v[e] = 0.3f * static_cast<float>(i) - 0.1f * static_cast<float>(e);
    inputs.push_back({{"input", Tensor(Shape{1, 4, 4, 1}, std::move(v))}});
  }
  // Partial re-execution resumes from tiled goldens; full re-execution
  // re-runs from tiled feeds.
  for (const bool partial : {true, false}) {
    CampaignConfig cfg;
    cfg.batch = 3;
    cfg.partial_reexecution = partial;
    const TrialExecutor parallel(g, cfg, inputs, 2);
    std::optional<TrialExecutor> serial;
    {
      const util::ScopedPoolWorker inline_loops;  // every loop runs inline
      serial.emplace(g, cfg, inputs, 2);
    }
    ASSERT_EQ(parallel.batch(), 3u);
    const std::vector<FaultSet> clean(3);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::string what =
          (partial ? "partial input " : "full input ") + std::to_string(i);
      expect_same_tensors({&parallel.golden_output(i), 1},
                          {&serial->golden_output(i), 1}, what + " output");
      expect_same_tensors(parallel.golden_activations(i),
                          serial->golden_activations(i),
                          what + " activations");
      EXPECT_EQ(parallel.batch_golden(i).empty(), !partial) << what;
      expect_same_tensors(parallel.batch_golden(i), serial->batch_golden(i),
                          what + " tiled goldens");
      expect_same_tensors(parallel.run_trial_batch(0, i, clean),
                          serial->run_trial_batch(0, i, clean),
                          what + " fault-free batch");
    }
  }
}

// ---- Campaign ----------------------------------------------------------------

// SDC iff output element 0 deviates by more than `t`.
class DevJudge final : public SdcJudge {
 public:
  explicit DevJudge(float t) : t_(t) {}
  bool is_sdc(const Tensor& g, const Tensor& f) const override {
    return std::abs(g.at(0) - f.at(0)) > t_;
  }

 private:
  float t_;
};

std::vector<Feeds> ones_input() {
  return {{{"input", Tensor::full(Shape{1, 4, 4, 1}, 1.0f)}}};
}

TEST(CampaignRunner, DeterministicGivenSeed) {
  const graph::Graph g = relu_net();
  RunnerConfig rc;
  rc.campaign.trials_per_input = 200;
  rc.campaign.seed = 99;
  const std::vector<JudgePtr> judges{std::make_shared<DevJudge>(1.0f)};
  const CampaignReport r1 = CampaignRunner(rc).run(g, ones_input(), judges);
  const CampaignReport r2 = CampaignRunner(rc).run(g, ones_input(), judges);
  EXPECT_TRUE(r1.records == r2.records);
  const CampaignResult& r = r1.aggregate[0];
  EXPECT_EQ(r.trials, 200u);
  EXPECT_GT(r.sdcs, 0u);           // high-order bit flips must deviate
  EXPECT_LT(r.sdc_rate(), 1.0);    // low-order flips must not
}

TEST(CampaignRunner, MultiJudgeSharesTrials) {
  const graph::Graph g = relu_net();
  RunnerConfig rc;
  rc.campaign.trials_per_input = 100;
  const std::vector<JudgePtr> judges{std::make_shared<DevJudge>(0.5f),
                                     std::make_shared<DevJudge>(5.0f),
                                     std::make_shared<DevJudge>(500.0f)};
  const CampaignReport report =
      CampaignRunner(rc).run(g, ones_input(), judges);
  // Threshold family: a looser threshold can never yield more SDCs.
  const std::vector<CampaignResult>& results = report.aggregate;
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GE(results[0].sdcs, results[1].sdcs);
  EXPECT_GE(results[1].sdcs, results[2].sdcs);
  // One execution per trial, judged three times: the record stream is
  // that of three single-judge campaigns with their verdicts merged into
  // one mask, judge j in bit j.
  std::vector<TrialRecord> merged;
  for (std::size_t j = 0; j < judges.size(); ++j) {
    const CampaignReport single =
        CampaignRunner(rc).run(g, ones_input(), {judges[j]});
    if (j == 0) {
      merged = single.records;
      continue;
    }
    ASSERT_EQ(single.records.size(), merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
      merged[i].sdc_mask |= single.records[i].sdc_mask << j;
  }
  EXPECT_TRUE(report.records == merged);
}

TEST(Campaign, ResultStatistics) {
  CampaignResult r{1000, 150};
  EXPECT_DOUBLE_EQ(r.sdc_rate(), 0.15);
  EXPECT_DOUBLE_EQ(r.sdc_rate_pct(), 15.0);
  EXPECT_NEAR(r.ci95_pct(), 2.21, 0.05);
}

TEST(CampaignRunner, PairedRunReplaysIdenticalFaults) {
  const graph::Graph g = relu_net();
  // The "protected" graph here is an identical clone: faults planned on
  // `g`, replayed on the clone and judged against `g`'s goldens (the
  // ranger-paired cell setup) must reproduce the plain run's records
  // exactly — fault sets, strata and verdicts, trial by trial.
  const graph::Graph clone = g.clone();
  const std::vector<Feeds> inputs = ones_input();
  RunnerConfig rc;
  rc.campaign.trials_per_input = 100;
  const CampaignRunner runner(rc);
  const std::vector<JudgePtr> judges{std::make_shared<DevJudge>(1.0f)};
  const CampaignReport plain = runner.run(g, inputs, judges);
  const TrialExecutor unprotected(g, rc.campaign, inputs, 1);
  RunContext paired;
  paired.plan_graph = &g;
  paired.exec_graph = &clone;
  paired.golden_executor = &unprotected;
  const CampaignReport replay = runner.run(paired, inputs, judges);
  EXPECT_EQ(replay.executed(), 100u);
  EXPECT_GT(plain.aggregate[0].sdcs, 0u);
  EXPECT_TRUE(plain.records == replay.records);
}

}  // namespace
}  // namespace rangerpp::fi
