// fi::Suite orchestration: grid compilation, shared-state caching,
// bit-identity with the standalone CampaignRunner campaigns the bench
// binaries used to run, suite-level sharding + merge, kill-and-resume
// manifest identity, and the Table-VI paired-coverage join.
//
// Everything runs on tiny LeNet campaigns (the real workload path — the
// properties under test are the orchestrator's contracts over real
// cells, not the models').
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/suite.hpp"
#include "ops/backend.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"
#include "util/trace.hpp"

namespace rangerpp::fi {
namespace {

std::string temp_dir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Complete spans named exactly `name` in a flushed trace file.
std::size_t count_spans(const std::string& trace_json,
                        const std::string& name) {
  const std::string needle = "\"" + name + "\"";
  std::size_t n = 0;
  for (std::size_t pos = trace_json.find(needle); pos != std::string::npos;
       pos = trace_json.find(needle, pos + needle.size()))
    ++n;
  return n;
}

SuiteSpec tiny_spec(const char* name) {
  SuiteSpec spec;
  spec.name = name;
  spec.models = {models::ModelId::kLeNet};
  spec.trials_small = 18;
  spec.inputs = 2;
  spec.seed = 2021;
  spec.check_every = 8;
  return spec;
}

TEST(SuitePlan, GridExpansionIsDeterministic) {
  SuiteSpec spec = tiny_spec("grid");
  spec.models = {models::ModelId::kLeNet, models::ModelId::kAlexNet};
  spec.dtypes = {tensor::DType::kFixed32, tensor::DType::kFixed16};
  spec.faults = {{1, false}, {3, false}};
  const SuitePlan plan = compile_suite(spec);
  // 2 models × 2 dtypes × 2 faults × 2 techniques.
  ASSERT_EQ(plan.cells.size(), 16u);
  EXPECT_EQ(plan.cells[0].id, "lenet.fixed32.b1.unprotected");
  EXPECT_EQ(plan.cells[1].id, "lenet.fixed32.b1.ranger");
  EXPECT_EQ(plan.cells[2].id, "lenet.fixed32.b3.unprotected");
  EXPECT_EQ(plan.cells[4].id, "lenet.fixed16.b1.unprotected");
  EXPECT_EQ(plan.cells[8].id, "alexnet.fixed32.b1.unprotected");
  // Offsets tile the suite-global trial stream without gaps.
  std::size_t expected_offset = 0;
  for (const SuiteCell& c : plan.cells) {
    EXPECT_EQ(c.global_offset, expected_offset);
    EXPECT_EQ(c.total_trials, c.trials_per_input * spec.inputs);
    expected_offset += c.total_trials;
  }
  EXPECT_EQ(plan.total_trials, expected_offset);
}

TEST(SuitePlan, CellShardIndexPartitionsTheGlobalStream) {
  // For any offset, the cell-local shard indices must select exactly the
  // global indices g with g % N == i.
  for (const std::size_t offset : {0u, 7u, 36u, 100u}) {
    for (std::size_t i = 0; i < 3; ++i) {
      const std::size_t local = cell_shard_index(i, 3, offset);
      EXPECT_LT(local, 3u);
      for (std::size_t t = local; t < 30; t += 3)
        EXPECT_EQ((offset + t) % 3, i);
    }
  }
}

TEST(SuitePlan, RejectsBadSpecs) {
  EXPECT_THROW(compile_suite(SuiteSpec{}), std::invalid_argument);
  SuiteSpec bad_shard = tiny_spec("x");
  bad_shard.shard_index = 2;
  bad_shard.shard_count = 2;
  EXPECT_THROW(compile_suite(bad_shard), std::invalid_argument);
  SuiteSpec bad_name = tiny_spec("a/b");
  EXPECT_THROW(compile_suite(bad_name), std::invalid_argument);
  SuiteSpec bad_bits = tiny_spec("x");
  bad_bits.faults = {{0, false}};
  EXPECT_THROW(compile_suite(bad_bits), std::invalid_argument);
  SuiteSpec no_batch = tiny_spec("x");
  no_batch.check_every = 0;
  EXPECT_THROW(compile_suite(no_batch), std::invalid_argument);

  // Stratified sampling is defined over single-bit activation sites
  // only; the planner would throw only once a cell started running.
  SuiteSpec stratified = tiny_spec("x");
  stratified.stratified.enabled = true;
  EXPECT_NO_THROW(compile_suite(stratified));
  SuiteSpec strat_weight = stratified;
  strat_weight.faults[0].cls = FaultClass::kWeight;
  EXPECT_THROW(compile_suite(strat_weight), std::invalid_argument);
  SuiteSpec strat_multi = stratified;
  strat_multi.faults = {{2, false}};
  EXPECT_THROW(compile_suite(strat_multi), std::invalid_argument);
  SuiteSpec strat_burst = stratified;
  strat_burst.faults = {{1, true}};
  EXPECT_THROW(compile_suite(strat_burst), std::invalid_argument);
}

// The acceptance contract of the port: a suite cell's records are
// bit-identical to the standalone CampaignRunner campaign the fig6/fig9
// benches used to run directly.
TEST(Suite, CellsMatchStandaloneRunnerBitForBit) {
  SuiteSpec spec = tiny_spec("equiv");
  spec.dtypes = {tensor::DType::kFixed32, tensor::DType::kFixed16};
  Suite suite(spec);
  const SuiteResult result = suite.run();
  ASSERT_EQ(result.cells.size(), 4u);

  models::WorkloadOptions wo;
  wo.eval_inputs = spec.inputs;
  wo.seed = spec.seed;
  const models::Workload w = models::make_workload(models::ModelId::kLeNet, wo);
  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);
  const graph::Graph protected_g =
      core::RangerTransform{}.apply(w.graph, bounds);

  for (const SuiteCellResult& cell : result.cells) {
    RunnerConfig rc;
    rc.campaign.dtype = cell.cell.dtype;
    rc.campaign.trials_per_input = cell.cell.trials_per_input;
    rc.campaign.seed = spec.seed;
    rc.check_every = spec.check_every;
    const graph::Graph& g = cell.cell.technique == Technique::kRanger
                                ? protected_g
                                : w.graph;
    const CampaignReport standalone = CampaignRunner(rc).run(
        g, w.eval_feeds, models::default_judges(models::ModelId::kLeNet));
    EXPECT_TRUE(cell.report.records == standalone.records)
        << cell.cell.id;
  }
}

// A one-cell stratified suite is the campaign a standalone
// CampaignRunner runs with RunnerConfig::stratified on, unsharded and
// per shard.
TEST(Suite, StratifiedCellMatchesStandaloneRunner) {
  SuiteSpec spec = tiny_spec("strat");
  spec.techniques = {Technique::kUnprotected};
  spec.stratified.enabled = true;
  spec.stratified.bit_group_size = 4;

  models::WorkloadOptions wo;
  wo.eval_inputs = spec.inputs;
  wo.seed = spec.seed;
  const models::Workload w = models::make_workload(models::ModelId::kLeNet, wo);
  for (const std::size_t shards : {1u, 2u}) {
    const std::size_t index = shards - 1;
    SuiteSpec cell_spec = spec;
    cell_spec.shard_index = index;
    cell_spec.shard_count = shards;
    const SuiteResult result = Suite(cell_spec).run();
    ASSERT_EQ(result.cells.size(), 1u);

    RunnerConfig rc;
    rc.campaign.trials_per_input = result.cells[0].cell.trials_per_input;
    rc.campaign.seed = spec.seed;
    rc.stratified = spec.stratified;
    rc.check_every = spec.check_every;
    rc.shard_index = index;
    rc.shard_count = shards;
    const CampaignReport standalone = CampaignRunner(rc).run(
        w.graph, w.eval_feeds, models::default_judges(models::ModelId::kLeNet));
    EXPECT_FALSE(standalone.records.empty());
    EXPECT_TRUE(result.cells[0].report.records == standalone.records)
        << "shard " << index << "/" << shards;
  }
}

TEST(Suite, WorkloadAndExecutorStateIsSharedAcrossCells) {
  SuiteSpec spec = tiny_spec("cache");
  spec.dtypes = {tensor::DType::kFixed32, tensor::DType::kFixed16};
  spec.faults = {{1, false}, {2, false}};
  util::metrics::set_enabled(true);
  util::metrics::reset();
  Suite suite(spec);
  const SuiteResult result = suite.run();
  util::metrics::set_enabled(false);
  EXPECT_EQ(result.cells.size(), 8u);
  // 8 cells, one workload construction; bounds/protected graph built
  // once per (model, act) regardless of dtype/fault/technique count;
  // one executor per (dtype, variant): 2 dtypes × {unprotected, ranger},
  // each reused by the other fault model's cell.
  EXPECT_EQ(suite.workloads().size(), 1u);
  EXPECT_EQ(util::metrics::counter_value("cache.bounds.build"), 1u);
  EXPECT_EQ(util::metrics::counter_value("cache.protected.build"), 1u);
  EXPECT_EQ(util::metrics::counter_value("cache.executor.build"), 4u);
  EXPECT_EQ(util::metrics::counter_value("cache.executor.hit"), 4u);
  util::metrics::reset();
}

// SuiteSpec::verify_plan reaches every cell executor's compiled plans:
// the static verifier runs even in release builds, where compile() skips
// it by default (suite_cli --verify-plan relies on this).
TEST(Suite, VerifyPlanVerifiesEveryExecutorPlan) {
  SuiteSpec spec = tiny_spec("verify");
  spec.verify_plan = true;
  const std::string trace_path =
      testing::TempDir() + "/suite_verify_trace.json";
  ASSERT_TRUE(util::trace::start(trace_path));
  Suite(spec).run();
  ASSERT_TRUE(util::trace::stop_and_flush());
  const std::string trace_json = slurp(trace_path);
  std::filesystem::remove(trace_path);
  // Two executors ({unprotected, ranger}), each looked up once and
  // compiling at least one plan.
  EXPECT_GE(count_spans(trace_json, "compile.verify_plan"), 2u);
  EXPECT_EQ(count_spans(trace_json, "cache.executor.build"), 2u);
  EXPECT_EQ(count_spans(trace_json, "cache.executor.get"), 2u);
}

TEST(Suite, ShardedRunsMergeBitIdenticalToUnsharded) {
  const std::string golden_dir = temp_dir("suite_golden");
  const std::string shard_dir = temp_dir("suite_shards");

  SuiteSpec spec = tiny_spec("shardsuite");
  spec.checkpoint_dir = golden_dir;
  Suite golden_suite(spec);
  const SuiteResult golden = golden_suite.run();

  for (std::size_t i = 0; i < 2; ++i) {
    SuiteSpec shard = spec;
    shard.checkpoint_dir = shard_dir;
    shard.shard_index = i;
    shard.shard_count = 2;
    Suite s(shard);
    const SuiteResult part = s.run();
    // Each shard executes its slice of the *global* stream.
    for (const SuiteCellResult& c : part.cells)
      for (const TrialRecord& r : c.report.records)
        EXPECT_EQ((c.cell.global_offset + r.trial) % 2, i);
  }

  // The merger writes each cell's merged records back into the shard
  // directory as its unsharded checkpoint: the golden run's file, byte
  // for byte.  A second merge reads that file as one of its inputs and
  // rewrites it unchanged.
  SuiteSpec merge_spec = spec;
  merge_spec.checkpoint_dir = shard_dir;
  Suite merger(merge_spec);
  SuiteResult merged;
  for (int pass = 0; pass < 2; ++pass) {
    merged = merger.merge({shard_dir});
    ASSERT_EQ(merged.cells.size(), golden.cells.size());
    for (std::size_t c = 0; c < merged.cells.size(); ++c) {
      EXPECT_TRUE(merged.cells[c].report.records ==
                  golden.cells[c].report.records)
          << merged.cells[c].cell.id;
      const std::string file =
          cell_checkpoint_name(spec.name, merged.cells[c].cell, 0, 1);
      EXPECT_EQ(slurp(shard_dir + "/" + file), slurp(golden_dir + "/" + file))
          << file << " (merge pass " << pass << ")";
    }
  }

  // The aggregate manifest is byte-identical: merged shards vs the
  // unsharded run (the CI suite-smoke gate).
  const std::string a = golden_dir + "/SUITE_a.json";
  const std::string b = golden_dir + "/SUITE_b.json";
  write_suite_manifest(a, golden);
  write_suite_manifest(b, merged);
  EXPECT_EQ(slurp(a), slurp(b));
}

// The telemetry contract: metrics + tracing on vs off changes no record
// byte (CI gates the same way on the suite-smoke checkpoints), while the
// instrumented run actually observes cache traffic and kernel dispatch.
TEST(Suite, TelemetryIsAPureObserver) {
  const std::string dir_off = temp_dir("suite_telemetry_off");
  const std::string dir_on = temp_dir("suite_telemetry_on");

  SuiteSpec spec = tiny_spec("telemetry");
  spec.checkpoint_dir = dir_off;
  Suite(spec).run();

  util::metrics::set_enabled(true);
  util::metrics::reset();
  const std::string trace_path =
      testing::TempDir() + "/suite_telemetry_trace.json";
  ASSERT_TRUE(util::trace::start(trace_path));
  SuiteSpec spec_on = tiny_spec("telemetry");
  spec_on.checkpoint_dir = dir_on;
  Suite(spec_on).run();
  ASSERT_TRUE(util::trace::stop_and_flush());
  util::metrics::set_enabled(false);

  // The instrumented run saw real work...
  EXPECT_GT(util::metrics::counter_value("campaign.trials"), 0u);
  EXPECT_GT(util::metrics::counter_value("suite.cells_done"), 0u);
  EXPECT_GT(util::metrics::counter_value("cache.workload.build"), 0u);
  std::uint64_t dispatches = 0;  // Σ kernel.*
  for (const ops::KernelBackend b :
       {ops::KernelBackend::kScalar, ops::KernelBackend::kBlocked,
        ops::KernelBackend::kSimd})
    dispatches += util::metrics::counter_value(
        "kernel." + std::string(ops::backend_name(b)));
  EXPECT_GT(dispatches, 0u);
  util::metrics::reset();
  const std::string trace_json = slurp(trace_path);
  std::filesystem::remove(trace_path);
  EXPECT_NE(trace_json.find("\"suite.cell\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"campaign.batch\""), std::string::npos);

  // ...and every checkpoint byte is identical to the untraced run's.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_off)) {
    const std::string name = entry.path().filename().string();
    ++files;
    EXPECT_EQ(slurp(entry.path().string()), slurp(dir_on + "/" + name))
        << name;
  }
  EXPECT_GT(files, 0u);
}

TEST(Suite, KillAndResumeProducesBitIdenticalManifest) {
  const std::string dir = temp_dir("suite_resume");

  SuiteSpec spec = tiny_spec("resume");
  Suite uninterrupted_suite(spec);
  const SuiteResult uninterrupted = uninterrupted_suite.run();

  // "Killed" suite: at most 7 new trials per cell land on disk...
  SuiteSpec killed = spec;
  killed.checkpoint_dir = dir;
  killed.max_new_trials = 7;
  Suite k(killed);
  const SuiteResult partial = k.run();
  for (const SuiteCellResult& c : partial.cells)
    EXPECT_EQ(c.report.executed(), 7u);

  // ...and the resumed suite executes exactly the missing trials.
  SuiteSpec resumed_spec = spec;
  resumed_spec.checkpoint_dir = dir;
  Suite r(resumed_spec);
  const SuiteResult resumed = r.run();
  ASSERT_EQ(resumed.cells.size(), uninterrupted.cells.size());
  for (std::size_t c = 0; c < resumed.cells.size(); ++c)
    EXPECT_TRUE(resumed.cells[c].report.records ==
                uninterrupted.cells[c].report.records);

  const std::string a = dir + "/SUITE_a.json";
  const std::string b = dir + "/SUITE_b.json";
  write_suite_manifest(a, uninterrupted);
  write_suite_manifest(b, resumed);
  EXPECT_EQ(slurp(a), slurp(b));
}

// int8 cells: per-node calibration is derived from the suite's cached
// bounds inside executor construction, so it must be invisible to the
// shard/resume machinery — a killed-and-resumed int8 cell produces
// records (and a fingerprint) bit-identical to an uninterrupted run's.
TEST(Suite, Int8CellsShardAndResumeBitIdentically) {
  const std::string dir = temp_dir("suite_int8");

  SuiteSpec spec = tiny_spec("int8");
  spec.dtypes = {tensor::DType::kInt8};
  Suite uninterrupted_suite(spec);
  const SuiteResult uninterrupted = uninterrupted_suite.run();
  ASSERT_EQ(uninterrupted.cells.size(), 2u);
  EXPECT_EQ(uninterrupted.cells[0].cell.id, "lenet.int8.b1.unprotected");
  for (const SuiteCellResult& c : uninterrupted.cells)
    EXPECT_EQ(c.report.executed(), c.cell.total_trials);

  SuiteSpec killed = spec;
  killed.checkpoint_dir = dir;
  killed.max_new_trials = 7;
  Suite k(killed);
  k.run();

  SuiteSpec resumed_spec = spec;
  resumed_spec.checkpoint_dir = dir;
  Suite r(resumed_spec);
  const SuiteResult resumed = r.run();
  ASSERT_EQ(resumed.cells.size(), uninterrupted.cells.size());
  for (std::size_t c = 0; c < resumed.cells.size(); ++c)
    EXPECT_TRUE(resumed.cells[c].report.records ==
                uninterrupted.cells[c].report.records)
        << resumed.cells[c].cell.id;

  const std::string a = dir + "/SUITE_a.json";
  const std::string b = dir + "/SUITE_b.json";
  write_suite_manifest(a, uninterrupted);
  write_suite_manifest(b, resumed);
  EXPECT_EQ(slurp(a), slurp(b));
}

// Table-VI contract: the paired-coverage join over (unprotected,
// ranger-paired) cells equals a direct replay of the unprotected fault
// stream through the protected plan — the computation the table6 bench
// used to do inline.
TEST(Suite, PairedCoverageMatchesDirectReplay) {
  SuiteSpec spec = tiny_spec("paired");
  spec.techniques = {Technique::kUnprotected, Technique::kRangerPaired};
  Suite suite(spec);
  const SuiteResult result = suite.run();
  ASSERT_EQ(result.cells.size(), 2u);
  const auto cov = paired_coverage(result, 1);
  ASSERT_TRUE(cov.has_value());

  // Direct replay with standalone components.
  models::WorkloadOptions wo;
  wo.eval_inputs = spec.inputs;
  wo.seed = spec.seed;
  const models::Workload w = models::make_workload(models::ModelId::kLeNet, wo);
  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);
  const graph::Graph protected_g =
      core::RangerTransform{}.apply(w.graph, bounds);

  CampaignConfig cc;
  cc.trials_per_input = spec.trials_small;
  cc.seed = spec.seed;
  const TrialPlanner planner(w.graph, cc, w.eval_feeds.size());
  const TrialExecutor exec_u(w.graph, cc, w.eval_feeds, 1);
  const TrialExecutor exec_p(protected_g, cc, w.eval_feeds, 1);
  const auto judges = models::default_judges(models::ModelId::kLeNet);

  std::size_t sdcs = 0, covered = 0;
  for (std::size_t t = 0; t < planner.total_trials(); ++t) {
    const TrialSpec s = planner.plan(t);
    const tensor::Tensor& golden = exec_u.golden_output(s.input);
    bool sdc_u = false, sdc_p = false;
    const tensor::Tensor out_u = exec_u.run_trial(0, s.input, s.faults);
    const tensor::Tensor out_p = exec_p.run_trial(0, s.input, s.faults);
    for (const auto& j : judges) {
      if (j->is_sdc(golden, out_u)) sdc_u = true;
      if (j->is_sdc(golden, out_p)) sdc_p = true;
    }
    if (sdc_u) {
      ++sdcs;
      if (!sdc_p) ++covered;
    }
  }
  EXPECT_GT(sdcs, 0u);
  EXPECT_EQ(cov->sdcs, sdcs);
  EXPECT_EQ(cov->covered, covered);
}

TEST(Suite, PairedCellsStayShardAlignedWithTheirSibling) {
  // Regression: a paired cell sits one cell-size further down the
  // global stream than its unprotected sibling, so phasing both by
  // their own global offset would give them disjoint shard-local trial
  // sets whenever cell_size % shard_count != 0 — and the coverage join
  // would silently intersect nothing.  Paired cells must reuse the
  // sibling's shard phase.
  const std::string dir = temp_dir("suite_paired_shards");
  SuiteSpec spec = tiny_spec("pairshard");
  spec.trials_small = 17;  // cell size 34; 34 % 3 != 0
  spec.techniques = {Technique::kUnprotected, Technique::kRangerPaired};

  Suite golden_suite(spec);
  const SuiteResult golden = golden_suite.run();
  const auto golden_cov = paired_coverage(golden, 1);
  ASSERT_TRUE(golden_cov.has_value());
  ASSERT_GT(golden_cov->sdcs, 0u);

  for (std::size_t i = 0; i < 3; ++i) {
    SuiteSpec shard = spec;
    shard.checkpoint_dir = dir;
    shard.shard_index = i;
    shard.shard_count = 3;
    Suite s(shard);
    const SuiteResult part = s.run();
    // Both cells of the pair executed the same shard-local trials.
    ASSERT_EQ(part.cells.size(), 2u);
    const auto& ru = part.cells[0].report.records;
    const auto& rp = part.cells[1].report.records;
    ASSERT_EQ(ru.size(), rp.size());
    for (std::size_t t = 0; t < ru.size(); ++t)
      EXPECT_EQ(ru[t].trial, rp[t].trial);
  }

  SuiteSpec merge_spec = spec;
  Suite merger(merge_spec);
  const SuiteResult merged = merger.merge({dir});
  const auto merged_cov = paired_coverage(merged, 1);
  ASSERT_TRUE(merged_cov.has_value());
  EXPECT_EQ(merged_cov->sdcs, golden_cov->sdcs);
  EXPECT_EQ(merged_cov->covered, golden_cov->covered);
}

TEST(Suite, RejectsMismatchedSharedWorkloadCache) {
  // A shared cache built for another seed/input count would hand out
  // goldens the checkpoint fingerprints (which record spec.seed) do not
  // describe — the constructor must refuse it.
  models::WorkloadOptions wo;
  wo.eval_inputs = 2;
  wo.seed = 2021;
  models::WorkloadCache cache(wo);
  SuiteSpec ok = tiny_spec("shared");
  EXPECT_NO_THROW(Suite(ok, &cache));
  SuiteSpec wrong_seed = ok;
  wrong_seed.seed = 7;
  EXPECT_THROW(Suite(wrong_seed, &cache), std::invalid_argument);
  SuiteSpec wrong_inputs = ok;
  wrong_inputs.inputs = 4;
  EXPECT_THROW(Suite(wrong_inputs, &cache), std::invalid_argument);
}

TEST(Suite, MergeRefusesForeignCheckpoints) {
  const std::string dir = temp_dir("suite_foreign");
  SuiteSpec spec = tiny_spec("foreign");
  spec.checkpoint_dir = dir;
  Suite s(spec);
  s.run();

  // Same name and grid, different seed: the per-cell header no longer
  // matches the merging spec and must be refused, not silently merged.
  SuiteSpec other = spec;
  other.checkpoint_dir.clear();
  other.seed = 7;
  Suite m(other);
  EXPECT_THROW(m.merge({dir}), std::runtime_error);

  // Same campaign scalars, other sampling: refused too.
  SuiteSpec stratified = spec;
  stratified.checkpoint_dir.clear();
  stratified.stratified.enabled = true;
  EXPECT_THROW(Suite(stratified).merge({dir}), std::runtime_error);
}

}  // namespace
}  // namespace rangerpp::fi
