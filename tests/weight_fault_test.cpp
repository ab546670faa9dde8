// Weight-memory fault subsystem: site enumeration, fault-kind sampling,
// ECC filtering, Const-injection execution equivalence, the persistent-
// fault input sweep, and the determinism contracts (shard/resume and
// scalar/blocked backends bit-identical).  Everything runs on tiny
// builder graphs — the properties under test are the subsystem's, not
// the models'.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <set>

#include "fi/record_codec.hpp"
#include "fi/report.hpp"
#include "fi/runner.hpp"
#include "fi/suite.hpp"
#include "fi/weight_fault.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "ops/backend.hpp"

namespace rangerpp::fi {
namespace {

using graph::GraphBuilder;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

// conv(filter 3x3x1x2 = 18, bias 2) -> relu -> flatten ->
// fc1(weights 32x8 = 256, bias 8) -> relu -> fc2 (non-injectable: the
// last-FC exclusion the builders mark on the op, which must propagate to
// fc2's parameters).
graph::Graph weight_net() {
  GraphBuilder b;
  b.input("input", Shape{1, 4, 4, 1});
  b.conv2d("conv", Tensor::full(Shape{3, 3, 1, 2}, 0.2f), Tensor(Shape{2}),
           {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  b.flatten("flatten");
  b.dense("fc1", Tensor::full(Shape{32, 8}, 0.05f),
          Tensor::full(Shape{8}, 0.01f));
  b.activation("relu2", ops::OpKind::kRelu);
  b.dense("fc2", Tensor::full(Shape{8, 4}, 0.1f), Tensor(Shape{4}),
          /*injectable=*/false);
  return b.finish();
}

// A fixed32 plan whose nodes are `g`'s: every Const keeps its name and
// every hook fires.
graph::ExecutionPlan fixed32_plan(const graph::Graph& g) {
  return graph::compile(
      g, {.dtype = DType::kFixed32, .observe = graph::Observe::kAll});
}

std::vector<Feeds> two_inputs() {
  return {{{"input", Tensor::full(Shape{1, 4, 4, 1}, 1.0f)}},
          {{"input", Tensor::full(Shape{1, 4, 4, 1}, 0.5f)}}};
}

class Dev1Judge final : public SdcJudge {
 public:
  bool is_sdc(const Tensor& g, const Tensor& f) const override {
    return std::abs(g.at(0) - f.at(0)) > 1.0f;
  }
};

std::vector<JudgePtr> dev1_judges() {
  return {std::make_shared<Dev1Judge>()};
}

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

// ---- WeightSiteSpace --------------------------------------------------------

TEST(WeightSiteSpace, EnumeratesInjectableConstsOnly) {
  const graph::Graph g = weight_net();
  const WeightSiteSpace sites(g, DType::kFixed32);
  // conv/filter 18 + conv/bias 2 + fc1/weights 256 + fc1/bias 8 = 284;
  // fc2's parameters are excluded because their consumers are marked
  // non-injectable (§V-B propagated to the layer's consts).
  EXPECT_EQ(sites.total_elements(), 284u);
  EXPECT_EQ(sites.injectable_tensors(), 4u);
  EXPECT_EQ(sites.elements_of("conv/filter"), 18u);
  EXPECT_EQ(sites.elements_of("fc1/weights"), 256u);
  EXPECT_EQ(sites.elements_of("fc2/weights"), 0u);
  EXPECT_EQ(sites.elements_of("fc2/bias"), 0u);
  EXPECT_EQ(sites.elements_of("relu"), 0u);  // not a Const
  EXPECT_EQ(sites.site_index("fc2/weights"), SIZE_MAX);
}

TEST(WeightSiteSpace, NoInjectableConstsThrows) {
  GraphBuilder b;
  b.input("input", Shape{1, 4});
  b.dense("fc", Tensor::full(Shape{4, 2}, 0.1f), Tensor(Shape{2}),
          /*injectable=*/false);
  const graph::Graph g = b.finish();
  EXPECT_THROW(WeightSiteSpace(g, DType::kFixed32), std::invalid_argument);
}

TEST(WeightSiteSpace, SamplesEveryKindWithinBounds) {
  const graph::Graph g = weight_net();
  const WeightSiteSpace sites(g, DType::kFixed32);
  util::Rng rng(7);

  const FaultSet single = sites.sample(rng, {WeightFaultKind::kSingleBit});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].action, FaultAction::kFlip);
  EXPECT_LT(single[0].element, sites.elements_of(single[0].node_name));
  EXPECT_GE(single[0].bit, 0);
  EXPECT_LT(single[0].bit, 32);

  const FaultSet multi = sites.sample(rng, {WeightFaultKind::kMultiBit, 3});
  EXPECT_EQ(multi.size(), 3u);

  const FaultSet burst =
      sites.sample(rng, {WeightFaultKind::kConsecutiveBurst, 4});
  ASSERT_EQ(burst.size(), 4u);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(burst[i].node_name, burst[0].node_name);
    EXPECT_EQ(burst[i].element, burst[0].element);
    EXPECT_EQ(burst[i].bit, burst[0].bit + static_cast<int>(i));
  }
  EXPECT_LT(burst.back().bit, 32);

  const FaultSet s0 = sites.sample(rng, {WeightFaultKind::kStuckAt0});
  ASSERT_EQ(s0.size(), 1u);
  EXPECT_EQ(s0[0].action, FaultAction::kStuck0);
  const FaultSet s1 = sites.sample(rng, {WeightFaultKind::kStuckAt1});
  ASSERT_EQ(s1.size(), 1u);
  EXPECT_EQ(s1[0].action, FaultAction::kStuck1);
}

TEST(WeightSiteSpace, RowBurstStaysWithinOneInnermostRow) {
  const graph::Graph g = weight_net();
  const WeightSiteSpace sites(g, DType::kFixed32);
  util::Rng rng(21);
  for (int trial = 0; trial < 500; ++trial) {
    const FaultSet f = sites.sample(rng, {WeightFaultKind::kRowBurst, 4});
    ASSERT_GE(f.size(), 1u);
    ASSERT_LE(f.size(), 4u);
    const std::size_t site = sites.site_index(f[0].node_name);
    ASSERT_NE(site, SIZE_MAX);
    const std::size_t row = sites.site_row_length(site);
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_EQ(f[i].node_name, f[0].node_name);
      EXPECT_EQ(f[i].bit, f[0].bit);  // one failing bit line across cells
      EXPECT_EQ(f[i].element, f[0].element + i);
      EXPECT_EQ(f[i].element / row, f[0].element / row)
          << "burst crossed a row boundary";
    }
    // A burst shorter than n_bits must end exactly at the row boundary.
    if (f.size() < 4) {
      EXPECT_EQ((f.back().element + 1) % row, 0u);
    }
  }
}

// ---- ECC filtering ----------------------------------------------------------

TEST(EccModel, SecDedCorrectsSingleBitWordsAndPassesMultiBit) {
  util::Rng rng(1);
  const EccModel secded{EccKind::kSecDed, 0.0};
  // One word, one bit: corrected (dropped).
  EXPECT_TRUE(
      apply_ecc({{"conv/filter", 5, 3}}, secded, rng).empty());
  // One word, two bits: detected but passes uncorrected.
  const FaultSet two_in_word{{"conv/filter", 5, 3}, {"conv/filter", 5, 9}};
  EXPECT_EQ(apply_ecc(two_in_word, secded, rng).size(), 2u);
  // Two words, one bit each: both corrected.
  const FaultSet two_words{{"conv/filter", 5, 3}, {"fc1/weights", 7, 3}};
  EXPECT_TRUE(apply_ecc(two_words, secded, rng).empty());
  // Stuck-at cells are corrected on read like flips.
  EXPECT_TRUE(apply_ecc({{"conv/bias", 0, 1, FaultAction::kStuck1}},
                        secded, rng)
                  .empty());
}

TEST(EccModel, CoverageEndpointsMatchNoneAndSecDed) {
  const FaultSet f{{"conv/filter", 5, 3}, {"fc1/weights", 7, 9}};
  util::Rng rng_a(2), rng_b(2);
  EXPECT_EQ(apply_ecc(f, {EccKind::kCoverage, 0.0}, rng_a).size(), 2u);
  EXPECT_TRUE(apply_ecc(f, {EccKind::kCoverage, 1.0}, rng_b).empty());
  util::Rng rng_c(3);
  EXPECT_EQ(apply_ecc(f, EccModel{}, rng_c).size(), 2u);  // none
}

TEST(EccModel, TokensRoundTrip) {
  EXPECT_EQ(ecc_token(EccModel{}), "none");
  EXPECT_EQ(ecc_token({EccKind::kSecDed, 0.0}), "secded");
  EXPECT_EQ(ecc_token({EccKind::kCoverage, 0.5}), "cov0.5");
  EXPECT_EQ(ecc_from_token("secded")->kind, EccKind::kSecDed);
  EXPECT_DOUBLE_EQ(ecc_from_token("cov0.25")->coverage, 0.25);
  EXPECT_FALSE(ecc_from_token("cov1.5").has_value());
  EXPECT_FALSE(ecc_from_token("parity").has_value());
}

// ---- Const injections ------------------------------------------------------

// A weight fault applied as an injection on a Const must be bit-identical
// to rebuilding the graph with the corrupted weight value — in a full run
// and in a golden-prefix partial run — and leave the plan's own Const
// golden.
TEST(ConstInjection, MatchesRebuiltGraphBitExactly) {
  const graph::Graph g = weight_net();
  const graph::ExecutionPlan plan = fixed32_plan(g);
  const graph::Executor exec;
  const Feeds feeds = two_inputs()[0];

  const std::vector<graph::Injection> injections =
      make_injections(plan, FaultSet{{"conv/filter", 7, 28}});
  ASSERT_EQ(injections.size(), 1u);
  const graph::NodeId filter_id = g.find("conv/filter");
  const Tensor golden_filter = plan.const_output(filter_id).clone();

  // Reference: the same corrupted value baked into a rebuilt graph.  The
  // bit flips in the pre-quantized value, so the decoded float is
  // representable and survives the rebuild's quantisation unchanged.
  const float corrupted =
      tensor::q_apply_bit(plan.qscheme(filter_id), golden_filter.at(7), 28,
                          FaultAction::kFlip);
  ASSERT_NE(corrupted, golden_filter.at(7));
  Tensor filter = Tensor::full(Shape{3, 3, 1, 2}, 0.2f);
  filter.set(7, corrupted);
  GraphBuilder b;
  b.input("input", Shape{1, 4, 4, 1});
  b.conv2d("conv", filter.clone(), Tensor(Shape{2}),
           {1, 1, ops::Padding::kSame});
  b.activation("relu", ops::OpKind::kRelu);
  b.flatten("flatten");
  b.dense("fc1", Tensor::full(Shape{32, 8}, 0.05f),
          Tensor::full(Shape{8}, 0.01f));
  b.activation("relu2", ops::OpKind::kRelu);
  b.dense("fc2", Tensor::full(Shape{8, 4}, 0.1f), Tensor(Shape{4}),
          /*injectable=*/false);
  const graph::Graph rebuilt = b.finish();
  graph::Arena ra;
  const Tensor expected = exec.run(fixed32_plan(rebuilt), feeds, ra);

  graph::Arena arena;
  const Tensor full = exec.run(plan, feeds, arena, injections);
  ASSERT_EQ(full.elements(), expected.elements());
  for (std::size_t i = 0; i < full.elements(); ++i)
    EXPECT_EQ(full.at(i), expected.at(i)) << "element " << i;

  // Partial re-execution from the fault-free goldens, const as root.
  graph::Arena golden_arena;
  exec.run(plan, feeds, golden_arena);
  const std::vector<Tensor> golden = golden_arena.outputs();
  graph::Arena pa;
  const Tensor partial = exec.run_from(plan, golden, injections, pa);
  for (std::size_t i = 0; i < partial.elements(); ++i)
    EXPECT_EQ(partial.at(i), expected.at(i)) << "element " << i;

  // Both runs corrupted their own copy of the filter, not the plan's.
  const Tensor& after = plan.const_output(filter_id);
  for (std::size_t i = 0; i < after.elements(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(after.at(i)),
              std::bit_cast<std::uint32_t>(golden_filter.at(i)))
        << "plan filter element " << i;
}

// A fault stream replayed against another graph: a name absent from the
// executing graph and an element past its tensor's end give no
// injections (the make_injections contract, shared with activation
// faults), and no injections give the golden output, on the partial and
// on the full path.
TEST(ConstInjection, CrossGraphReplayIgnoresAbsentNames) {
  const graph::Graph g = weight_net();
  const std::vector<Feeds> inputs = two_inputs();
  for (const bool partial : {true, false}) {
    CampaignConfig cc;
    cc.fault_class = FaultClass::kWeight;
    cc.partial_reexecution = partial;
    const TrialExecutor ex(g, cc, inputs, 1);
    EXPECT_TRUE(ex.patch_consts({{"not_a_node", 0, 0}}).empty());
    EXPECT_TRUE(ex.patch_consts({{"conv/bias", 999, 3}}).empty());
    const Tensor out = ex.run_weight_trial(
        0, 1, ex.patch_consts({{"not_a_node", 0, 0}, {"conv/bias", 999, 3}}));
    const Tensor& golden = ex.golden_output(1);
    ASSERT_EQ(out.elements(), golden.elements());
    for (std::size_t i = 0; i < out.elements(); ++i)
      EXPECT_EQ(out.at(i), golden.at(i)) << "partial " << partial;
  }
}

// The activation-side contract the docs promise, pinned in its replay
// form: a fault stream planned on graph A replays on graph B that lacks
// some of A's nodes — the absent names are ignored, the shared ones
// inject.
TEST(InjectionHookReplay, AbsentNodeNamesAreIgnoredAcrossGraphs) {
  GraphBuilder a;
  a.input("input", Shape{1, 4});
  a.dense("fc", Tensor::full(Shape{4, 4}, 0.5f), Tensor(Shape{4}));
  a.activation("extra", ops::OpKind::kRelu);  // only graph A has this
  const graph::Graph graph_a = a.finish();

  GraphBuilder bb;
  bb.input("input", Shape{1, 4});
  bb.dense("fc", Tensor::full(Shape{4, 4}, 0.5f), Tensor(Shape{4}));
  const graph::Graph graph_b = bb.finish();

  const SiteSpace sites(graph_a, DType::kFixed32);
  ASSERT_GT(sites.elements_of("extra"), 0u);
  const Feeds feeds{{"input", Tensor::full(Shape{1, 4}, 1.0f)}};
  const graph::ExecutionPlan plan_b = fixed32_plan(graph_b);
  const graph::Executor exec;
  graph::Arena arena;
  const Tensor golden_b = exec.run(plan_b, feeds, arena);

  // A fault on the node graph B lacks is a no-op there...
  const Tensor replay_absent = exec.run(
      plan_b, feeds, arena,
      make_injection_hook(graph_b, DType::kFixed32, {{"extra", 0, 30}}));
  for (std::size_t i = 0; i < replay_absent.elements(); ++i)
    EXPECT_EQ(replay_absent.at(i), golden_b.at(i));

  // ...while a fault on a shared name still injects.
  const Tensor replay_shared = exec.run(
      plan_b, feeds, arena,
      make_injection_hook(graph_b, DType::kFixed32,
                          {{"fc/bias_add", 0, 30}}));
  EXPECT_NE(replay_shared.at(0), golden_b.at(0));
}

// ---- Planner: the input sweep ----------------------------------------------

TEST(WeightPlanner, SweepsInputsUnderAFixedFault) {
  CampaignConfig cc;
  cc.fault_class = FaultClass::kWeight;
  cc.trials_per_input = 5;  // = number of faults
  cc.seed = 11;
  const graph::Graph g = weight_net();
  const TrialPlanner planner(g, cc, /*n_inputs=*/3);
  EXPECT_EQ(planner.total_trials(), 15u);
  for (std::size_t t = 0; t < planner.total_trials(); ++t) {
    const TrialSpec spec = planner.plan(t);
    EXPECT_EQ(spec.input, t % 3);
    // All trials of one fault index sample the identical fault set.
    const TrialSpec first = planner.plan((t / 3) * 3);
    ASSERT_EQ(spec.faults.size(), first.faults.size());
    for (std::size_t i = 0; i < spec.faults.size(); ++i) {
      EXPECT_EQ(spec.faults[i].node_name, first.faults[i].node_name);
      EXPECT_EQ(spec.faults[i].element, first.faults[i].element);
      EXPECT_EQ(spec.faults[i].bit, first.faults[i].bit);
    }
  }
}

TEST(WeightPlanner, RejectsStratifiedSampling) {
  CampaignConfig cc;
  cc.fault_class = FaultClass::kWeight;
  StratifiedOptions stratified;
  stratified.enabled = true;
  const graph::Graph g = weight_net();
  EXPECT_THROW(TrialPlanner(g, cc, 2, stratified), std::invalid_argument);
}

// ---- Runner: determinism contracts -----------------------------------------

RunnerConfig weight_config(std::size_t n_faults = 40) {
  RunnerConfig rc;
  rc.campaign.fault_class = FaultClass::kWeight;
  rc.campaign.trials_per_input = n_faults;
  rc.campaign.seed = 99;
  rc.check_every = 16;
  return rc;
}

TEST(WeightRunner, ShardsMergeBitIdenticallyToUnshardedRun) {
  const graph::Graph g = weight_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();

  const CampaignReport full =
      CampaignRunner(weight_config()).run(g, inputs, judges);
  EXPECT_EQ(full.executed(), 80u);
  EXPECT_GT(full.aggregate[0].sdcs, 0u);  // high-bit weight flips bite

  std::vector<TrialRecord> merged;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    RunnerConfig rc = weight_config();
    rc.shard_index = shard;
    rc.shard_count = 3;
    const CampaignReport part =
        CampaignRunner(rc).run(g, inputs, judges);
    merged.insert(merged.end(), part.records.begin(), part.records.end());
  }
  const CampaignReport rebuilt =
      build_report(std::move(merged), 1, full.planned);
  EXPECT_TRUE(full.records == rebuilt.records);
}

TEST(WeightRunner, KillAndResumeReproducesTheUninterruptedRun) {
  const graph::Graph g = weight_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();
  const std::string path = temp_path("weight_resume.rcp");
  std::remove(path.c_str());

  RunnerConfig killed = weight_config();
  killed.checkpoint_path = path;
  killed.max_new_trials = 30;  // simulate a killed job mid-campaign
  const CampaignReport partial =
      CampaignRunner(killed).run(g, inputs, judges);
  EXPECT_EQ(partial.executed(), 30u);

  RunnerConfig resumed = weight_config();
  resumed.checkpoint_path = path;
  const CampaignReport finished =
      CampaignRunner(resumed).run(g, inputs, judges);

  const CampaignReport reference =
      CampaignRunner(weight_config()).run(g, inputs, judges);
  EXPECT_TRUE(finished.records == reference.records);
  std::remove(path.c_str());
}

TEST(WeightRunner, BackendsProduceIdenticalRecords) {
  const graph::Graph g = weight_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();

  RunnerConfig scalar = weight_config();
  scalar.campaign.backend = ops::KernelBackend::kScalar;
  RunnerConfig blocked = weight_config();
  blocked.campaign.backend = ops::KernelBackend::kBlocked;
  const CampaignReport a = CampaignRunner(scalar).run(g, inputs, judges);
  const CampaignReport b = CampaignRunner(blocked).run(g, inputs, judges);
  EXPECT_TRUE(a.records == b.records);
  EXPECT_EQ(a.aggregate[0].sdcs, b.aggregate[0].sdcs);
}

TEST(WeightRunner, PartialAndFullReexecutionAgree) {
  const graph::Graph g = weight_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();

  RunnerConfig partial = weight_config();
  RunnerConfig full = weight_config();
  full.campaign.partial_reexecution = false;
  const CampaignReport a = CampaignRunner(partial).run(g, inputs, judges);
  const CampaignReport b = CampaignRunner(full).run(g, inputs, judges);
  EXPECT_TRUE(a.records == b.records);
}

// SEC-DED + single-bit weight faults: every sampled fault is corrected
// before it touches memory, so the campaign records zero SDCs — by
// construction, not by luck.
TEST(WeightRunner, SecDedSingleBitYieldsZeroSdc) {
  const graph::Graph g = weight_net();
  const auto inputs = two_inputs();
  RunnerConfig rc = weight_config();
  rc.campaign.ecc = EccModel{EccKind::kSecDed, 0.0};
  const CampaignReport report =
      CampaignRunner(rc).run(g, inputs, dev1_judges());
  EXPECT_EQ(report.executed(), 80u);
  EXPECT_EQ(report.aggregate[0].sdcs, 0u);
  for (const TrialRecord& r : report.records) {
    EXPECT_EQ(r.sdc_mask, 0u);
    EXPECT_FALSE(r.faults.empty());  // the *sampled* fault is recorded
  }
}

// Weight checkpoints carry the fault-model kind in their fingerprint: a
// SEC-DED checkpoint must refuse to resume a no-ECC campaign, and an
// activation checkpoint must refuse a weight campaign of equal scalars.
TEST(WeightRunner, FingerprintSeparatesClassesAndEcc) {
  const graph::Graph g = weight_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();
  const std::string path = temp_path("weight_fp.rcp");
  std::remove(path.c_str());

  RunnerConfig rc = weight_config();
  rc.checkpoint_path = path;
  CampaignRunner(rc).run(g, inputs, judges);

  RunnerConfig ecc_rc = weight_config();
  ecc_rc.checkpoint_path = path;
  ecc_rc.campaign.ecc = EccModel{EccKind::kSecDed, 0.0};
  EXPECT_THROW(CampaignRunner(ecc_rc).run(g, inputs, judges),
               std::runtime_error);

  RunnerConfig act_rc = weight_config();
  act_rc.checkpoint_path = path;
  act_rc.campaign.fault_class = FaultClass::kActivation;
  EXPECT_THROW(CampaignRunner(act_rc).run(g, inputs, judges),
               std::runtime_error);
  std::remove(path.c_str());
}

// Stuck-at fault points survive the checkpoint round trip (the "s0"/"s1"
// record-grammar extension).
TEST(WeightRunner, StuckAtRecordsRoundTripThroughCheckpoints) {
  const graph::Graph g = weight_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();
  const std::string path = temp_path("weight_stuck.rcp");
  std::remove(path.c_str());

  RunnerConfig rc = weight_config(20);
  rc.campaign.weight_fault.kind = WeightFaultKind::kStuckAt1;
  rc.checkpoint_path = path;
  const CampaignReport live = CampaignRunner(rc).run(g, inputs, judges);
  bool saw_stuck = false;
  for (const TrialRecord& r : live.records)
    for (const FaultPoint& f : r.faults)
      saw_stuck = saw_stuck || f.action == FaultAction::kStuck1;
  EXPECT_TRUE(saw_stuck);

  const Checkpoint cp = load_checkpoint(path);
  EXPECT_EQ(cp.header.weight_kind, "stuck1");
  ASSERT_EQ(cp.records.size(), live.records.size());
  EXPECT_TRUE(cp.records == live.records);
  std::remove(path.c_str());
}

// ---- Suite wiring -----------------------------------------------------------

TEST(SuiteGrid, WeightFaultCellsGetDistinctIdsAndRejectDuplicates) {
  SuiteSpec spec;
  spec.models = {models::ModelId::kLeNet};
  FaultModelSpec act;
  FaultModelSpec weight;
  weight.cls = FaultClass::kWeight;
  FaultModelSpec weight_ecc = weight;
  weight_ecc.ecc = EccModel{EccKind::kSecDed, 0.0};
  spec.faults = {act, weight, weight_ecc};
  const SuitePlan plan = compile_suite(spec);
  std::set<std::string> ids;
  for (const SuiteCell& c : plan.cells) ids.insert(c.id);
  EXPECT_EQ(ids.size(), plan.cells.size());
  EXPECT_EQ(fault_spec_token(weight), "wsingle");
  EXPECT_EQ(fault_spec_token(weight_ecc), "wsingle-secded");

  spec.faults = {weight, weight};  // duplicate weight cell
  EXPECT_THROW(compile_suite(spec), std::invalid_argument);
  spec.faults = {weight, weight_ecc};  // distinct ECC: allowed
  EXPECT_NO_THROW(compile_suite(spec));

  // Kinds that ignore n_bits must not let it fake distinctness: both of
  // these would share the cell id (and checkpoint file) "wstuck0".
  FaultModelSpec stuck1 = weight, stuck2 = weight;
  stuck1.wkind = stuck2.wkind = WeightFaultKind::kStuckAt0;
  stuck2.n_bits = 2;
  spec.faults = {stuck1, stuck2};
  EXPECT_THROW(compile_suite(spec), std::invalid_argument);
  // ...while a count-bearing kind keeps n_bits as a real axis.
  FaultModelSpec row3 = weight, row4 = weight;
  row3.wkind = row4.wkind = WeightFaultKind::kRowBurst;
  row3.n_bits = 3;
  row4.n_bits = 4;
  spec.faults = {row3, row4};
  EXPECT_NO_THROW(compile_suite(spec));
}

}  // namespace
}  // namespace rangerpp::fi
