// Cross-module integration tests: the full profile -> transform ->
// inject -> judge pipeline on real zoo models, the consecutive-bit fault
// model, the ablation transform option, DOT export, and the CLI-level
// invariants every bench relies on.
#include <gtest/gtest.h>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/runner.hpp"
#include "graph/dot_export.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "models/workload.hpp"

namespace rangerpp {
namespace {

using models::ModelId;

struct Pipeline {
  models::Workload workload;
  core::Bounds bounds;
  graph::Graph protected_graph;
};

Pipeline build_pipeline(ModelId id, bool trained = true) {
  Pipeline p;
  models::WorkloadOptions wo;
  wo.trained = trained;
  wo.eval_inputs = 4;
  wo.profile_samples = 40;
  wo.validation_samples = 30;
  p.workload = models::make_workload(id, wo);
  p.bounds = core::RangeProfiler{}.derive_bounds(
      p.workload.graph, p.workload.profile_feeds);
  p.protected_graph =
      core::RangerTransform{}.apply(p.workload.graph, p.bounds);
  return p;
}

// Fault-free float32 output of `g` on `feeds`.
tensor::Tensor float_output(const graph::Graph& g, const fi::Feeds& feeds) {
  const graph::ExecutionPlan plan =
      graph::compile(g, {.dtype = tensor::DType::kFloat32});
  graph::Arena arena;
  return graph::Executor{}.run(plan, feeds, arena);
}

// SDC result of an in-memory campaign of `cc` on `g` under `judge`.
fi::CampaignResult campaign_sdc(const fi::CampaignConfig& cc,
                                const graph::Graph& g,
                                const std::vector<fi::Feeds>& inputs,
                                fi::JudgePtr judge) {
  fi::RunnerConfig rc;
  rc.campaign = cc;
  return fi::CampaignRunner(rc).run(g, inputs, {std::move(judge)})
      .aggregate[0];
}

TEST(Integration, RangerCutsLeNetSdcRateSubstantially) {
  const Pipeline p = build_pipeline(ModelId::kLeNet);
  fi::CampaignConfig cc;
  cc.trials_per_input = 300;
  cc.seed = 5;
  const auto judge = std::make_shared<fi::Top1Judge>();
  const fi::CampaignResult orig =
      campaign_sdc(cc, p.workload.graph, p.workload.eval_feeds, judge);
  const fi::CampaignResult prot =
      campaign_sdc(cc, p.protected_graph, p.workload.eval_feeds, judge);
  EXPECT_GT(orig.sdc_rate(), 0.05);  // unprotected LeNet is vulnerable
  EXPECT_LT(prot.sdc_rate(), orig.sdc_rate() / 3.0)
      << "Ranger must reduce the SDC rate by a large factor (paper: 3x-50x)";
}

TEST(Integration, RangerNeverIncreasesSdcOnPairedTrials) {
  // Trial-by-trial: the identical fault replayed on the protected graph
  // never produces an SDC when the unprotected graph had none *and* the
  // fault hit a restricted region it would have clamped.  Aggregate
  // version: protected SDC count <= unprotected SDC count + slack for the
  // clamp ops' own (new) fault sites.
  const Pipeline p = build_pipeline(ModelId::kComma);
  fi::RunnerConfig rc;
  rc.campaign.trials_per_input = 300;
  rc.campaign.seed = 6;
  const fi::CampaignRunner runner(rc);
  const std::vector<fi::JudgePtr> judges{
      std::make_shared<fi::SteeringJudge>(30.0, false)};
  const fi::CampaignReport plain =
      runner.run(p.workload.graph, p.workload.eval_feeds, judges);
  // Faults planned on the unprotected graph, replayed on the protected
  // twin (the transform preserves node names).
  fi::RunContext paired;
  paired.plan_graph = &p.workload.graph;
  paired.exec_graph = &p.protected_graph;
  const fi::CampaignReport replay =
      runner.run(paired, p.workload.eval_feeds, judges);
  // Both streams are complete and sorted: join them on trial index, as
  // fi::paired_coverage does.
  ASSERT_EQ(plain.records.size(), replay.records.size());
  std::size_t worse = 0, improved = 0;
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    ASSERT_EQ(plain.records[i].trial, replay.records[i].trial);
    const bool sdc_unprotected = plain.records[i].sdc_mask != 0;
    const bool sdc_protected = replay.records[i].sdc_mask != 0;
    if (sdc_protected && !sdc_unprotected) ++worse;
    if (!sdc_protected && sdc_unprotected) ++improved;
  }
  EXPECT_GT(improved, 10u);
  EXPECT_LT(worse, improved / 5 + 3);
}

TEST(Integration, Fixed16CampaignAlsoImproves) {
  const Pipeline p = build_pipeline(ModelId::kLeNet);
  fi::CampaignConfig cc;
  cc.dtype = tensor::DType::kFixed16;
  cc.trials_per_input = 300;
  cc.seed = 7;
  const auto judge = std::make_shared<fi::Top1Judge>();
  const fi::CampaignResult orig =
      campaign_sdc(cc, p.workload.graph, p.workload.eval_feeds, judge);
  const fi::CampaignResult prot =
      campaign_sdc(cc, p.protected_graph, p.workload.eval_feeds, judge);
  EXPECT_LT(prot.sdc_rate(), orig.sdc_rate());
}

TEST(Integration, MultiBitIndependentIsWorseThanSingleBit) {
  const Pipeline p = build_pipeline(ModelId::kLeNet);
  fi::CampaignConfig cc;
  cc.trials_per_input = 400;
  cc.seed = 8;
  const auto judge = std::make_shared<fi::Top1Judge>();
  cc.n_bits = 1;
  const double sdc1 =
      campaign_sdc(cc, p.workload.graph, p.workload.eval_feeds, judge)
          .sdc_rate();
  cc.n_bits = 4;
  const double sdc4 =
      campaign_sdc(cc, p.workload.graph, p.workload.eval_feeds, judge)
          .sdc_rate();
  EXPECT_GT(sdc4, sdc1);  // more corrupted values, more SDCs (Fig 11)
}

TEST(Integration, ConsecutiveBurstSamplesOneValue) {
  const Pipeline p = build_pipeline(ModelId::kLeNet, /*trained=*/false);
  const fi::SiteSpace sites(p.workload.graph, tensor::DType::kFixed32);
  util::Rng rng(3);
  for (int rep = 0; rep < 50; ++rep) {
    const fi::FaultSet f = sites.sample_consecutive(rng, 4);
    ASSERT_EQ(f.size(), 4u);
    for (const fi::FaultPoint& pt : f) {
      EXPECT_EQ(pt.node_name, f[0].node_name);
      EXPECT_EQ(pt.element, f[0].element);
    }
    for (std::size_t i = 1; i < 4; ++i)
      EXPECT_EQ(f[i].bit, f[0].bit + static_cast<int>(i));
    EXPECT_LE(f[3].bit, 31);
  }
  EXPECT_THROW(sites.sample_consecutive(rng, 33), std::invalid_argument);
}

TEST(Integration, ActOnlyTransformInsertsFewerOpsAndProtectsLess) {
  const Pipeline p = build_pipeline(ModelId::kVgg11, /*trained=*/false);

  core::TransformOptions act_only;
  act_only.extend_to_transparent_ops = false;
  core::RangerTransform act_transform{act_only};
  const graph::Graph g_act =
      act_transform.apply(p.workload.graph, p.bounds);
  const std::size_t n_act =
      act_transform.last_stats().restriction_ops_inserted;

  core::RangerTransform full_transform;
  const graph::Graph g_full =
      full_transform.apply(p.workload.graph, p.bounds);
  const std::size_t n_full =
      full_transform.last_stats().restriction_ops_inserted;

  EXPECT_LT(n_act, n_full);
  EXPECT_EQ(act_transform.last_stats().transparent_ops_bounded, 0u);

  // Both preserve fault-free behaviour.
  const fi::Feeds& feeds = p.workload.eval_feeds[0];
  const tensor::Tensor y0 = float_output(p.workload.graph, feeds);
  const tensor::Tensor ya = float_output(g_act, feeds);
  const tensor::Tensor yf = float_output(g_full, feeds);
  for (std::size_t i = 0; i < y0.elements(); ++i) {
    EXPECT_FLOAT_EQ(y0.at(i), ya.at(i));
    EXPECT_FLOAT_EQ(y0.at(i), yf.at(i));
  }
}

TEST(Integration, DotExportMarksRangerOps) {
  const Pipeline p = build_pipeline(ModelId::kLeNet, /*trained=*/false);
  const std::string dot = graph::to_dot(p.protected_graph);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("/ranger"), std::string::npos);
  // Restriction ops render distinctly: hexagons with the restriction
  // label and a bold incoming edge.
  EXPECT_NE(dot.find("shape=hexagon"), std::string::npos);
  EXPECT_NE(dot.find("(restrict)"), std::string::npos);
  // Constants hidden by default.
  EXPECT_EQ(dot.find("(Const)"), std::string::npos);
  graph::DotOptions opts;
  opts.hide_constants = false;
  EXPECT_NE(graph::to_dot(p.protected_graph, opts).find("(Const)"),
            std::string::npos);
  // Switching the highlight off falls back to the plain op style.
  opts.highlight_restrictions = false;
  const std::string plain = graph::to_dot(p.protected_graph, opts);
  EXPECT_EQ(plain.find("shape=hexagon"), std::string::npos);
  EXPECT_NE(plain.find("palegreen"), std::string::npos);
}

TEST(Integration, PercentileBoundsRestrictMoreAggressively) {
  models::WorkloadOptions wo;
  wo.eval_inputs = 3;
  wo.profile_samples = 60;
  wo.validation_samples = 40;
  const models::Workload w =
      models::make_workload(ModelId::kComma, wo);
  const core::RangeProfile profile =
      core::RangeProfiler{}.profile(w.graph, w.profile_feeds);

  // Tighter percentile => lower or equal upper bound per layer.
  const core::Bounds b100 = profile.bounds(100.0);
  const core::Bounds b98 = profile.bounds(98.0);
  for (const auto& [layer, bound] : b98) {
    ASSERT_TRUE(b100.contains(layer));
    EXPECT_LE(bound.up, b100.at(layer).up) << layer;
  }

  // And fault-free accuracy degrades monotonically-ish (Table V's trend):
  // RMSE at 98% bound >= RMSE at 100% bound.
  const graph::Graph g100 = core::RangerTransform{}.apply(w.graph, b100);
  const graph::Graph g98 = core::RangerTransform{}.apply(w.graph, b98);
  const double rmse100 =
      models::steering_metrics(g100, w.input_name, w.validation, false)
          .rmse;
  const double rmse98 =
      models::steering_metrics(g98, w.input_name, w.validation, false)
          .rmse;
  EXPECT_GE(rmse98, rmse100 - 1e-9);
}

TEST(Integration, HeadCalibrationGivesAlexNetRealAccuracy) {
  models::WorkloadOptions wo;
  wo.eval_inputs = 3;
  wo.validation_samples = 60;
  const models::Workload w =
      models::make_workload(ModelId::kAlexNet, wo);
  const double acc =
      models::top1_accuracy(w.graph, w.input_name, w.validation);
  EXPECT_GT(acc, 0.6) << "calibrated AlexNet head should separate the 10 "
                         "synthetic classes";
}

TEST(Integration, WeightCacheMakesWorkloadsReproducible) {
  // Two constructions of the same workload yield identical graph outputs
  // (weights are cached on disk after the first training run).
  models::WorkloadOptions wo;
  wo.eval_inputs = 2;
  wo.validation_samples = 10;
  const models::Workload a = models::make_workload(ModelId::kLeNet, wo);
  const models::Workload b = models::make_workload(ModelId::kLeNet, wo);
  const tensor::Tensor ya = float_output(a.graph, a.eval_feeds[0]);
  const tensor::Tensor yb = float_output(b.graph, a.eval_feeds[0]);
  for (std::size_t i = 0; i < ya.elements(); ++i)
    EXPECT_FLOAT_EQ(ya.at(i), yb.at(i));
}

}  // namespace
}  // namespace rangerpp
