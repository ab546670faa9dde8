// CampaignRunner orchestration: shard determinism, checkpoint resume
// and its failure modes (torn tails, JSONL files, failed writes),
// stratified sampling, merging and early stopping.  Everything here
// runs on a tiny builder graph — the properties under test are the
// runner's, not the models'.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "fi/record_codec.hpp"
#include "fi/report.hpp"
#include "fi/runner.hpp"
#include "graph/builder.hpp"
#include "ops/backend.hpp"

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

std::vector<Feeds> two_inputs() {
  return {{{"input", Tensor::full(Shape{1, 4, 4, 1}, 1.0f)}},
          {{"input", Tensor::full(Shape{1, 4, 4, 1}, 0.5f)}}};
}

// SDC iff element 0 deviates by > 1 (same judge fi_test uses).
class Dev1Judge final : public SdcJudge {
 public:
  bool is_sdc(const Tensor& g, const Tensor& f) const override {
    return std::abs(g.at(0) - f.at(0)) > 1.0f;
  }
};

class NeverJudge final : public SdcJudge {
 public:
  bool is_sdc(const Tensor&, const Tensor&) const override { return false; }
};

std::vector<JudgePtr> dev1_judges() {
  return {std::make_shared<Dev1Judge>()};
}

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

RunnerConfig base_config(std::size_t trials_per_input = 90) {
  RunnerConfig rc;
  rc.campaign.trials_per_input = trials_per_input;
  rc.campaign.seed = 99;
  rc.check_every = 16;
  return rc;
}

TEST(CampaignRunner, ShardsPartitionTheTrialStream) {
  const graph::Graph g = relu_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();

  const CampaignReport full =
      CampaignRunner(base_config()).run(g, inputs, judges);
  EXPECT_EQ(full.executed(), 180u);
  EXPECT_EQ(full.planned, 180u);
  EXPECT_GT(full.aggregate[0].sdcs, 0u);

  std::vector<TrialRecord> records;
  std::size_t shard_sdcs = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    RunnerConfig rc = base_config();
    rc.shard_index = i;
    rc.shard_count = 3;
    const CampaignReport part =
        CampaignRunner(rc).run(g, inputs, judges);
    EXPECT_EQ(part.executed(), 60u);
    shard_sdcs += part.aggregate[0].sdcs;
    records.insert(records.end(), part.records.begin(),
                   part.records.end());
  }
  const CampaignReport merged =
      build_report(std::move(records), judges.size(), 180);
  // Union of shards == the single-process run, trial for trial.
  EXPECT_TRUE(merged.records == full.records);
  EXPECT_EQ(shard_sdcs, full.aggregate[0].sdcs);
  EXPECT_EQ(merged.aggregate[0].sdcs, full.aggregate[0].sdcs);
}

TEST(CampaignRunner, CheckpointResumeIsBitIdentical) {
  const graph::Graph g = relu_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();
  const std::string path = temp_path("resume.rcp");
  std::remove(path.c_str());

  // Uninterrupted reference run (no checkpoint).
  const CampaignReport ref =
      CampaignRunner(base_config()).run(g, inputs, judges);

  // "Killed" run: only 37 trials land in the checkpoint...
  RunnerConfig rc = base_config();
  rc.checkpoint_path = path;
  rc.max_new_trials = 37;
  const CampaignReport partial = CampaignRunner(rc).run(g, inputs, judges);
  EXPECT_EQ(partial.executed(), 37u);
  EXPECT_EQ(partial.planned, 180u);

  // ...and the resumed run executes exactly the missing 143.
  rc.max_new_trials = 0;
  const CampaignReport resumed = CampaignRunner(rc).run(g, inputs, judges);
  EXPECT_EQ(resumed.executed(), 180u);
  EXPECT_TRUE(resumed.records == ref.records);

  // Per-stratum Wilson intervals agree with the uninterrupted run's.
  ASSERT_EQ(resumed.strata.size(), ref.strata.size());
  for (std::size_t s = 0; s < ref.strata.size(); ++s) {
    EXPECT_EQ(resumed.strata[s].key, ref.strata[s].key);
    EXPECT_EQ(resumed.strata[s].trials, ref.strata[s].trials);
    EXPECT_DOUBLE_EQ(resumed.strata[s].wilson95(0).center,
                     ref.strata[s].wilson95(0).center);
    EXPECT_DOUBLE_EQ(resumed.strata[s].wilson95(0).half_width,
                     ref.strata[s].wilson95(0).half_width);
  }

  // The file itself round-trips to the same records.
  const Checkpoint cp = load_checkpoint(path);
  const CampaignReport from_file =
      build_report(cp.records, judges.size(), 180);
  EXPECT_TRUE(from_file.records == ref.records);
  std::remove(path.c_str());
}

TEST(CampaignRunner, ResumeRejectsMismatchedCheckpoint) {
  const graph::Graph g = relu_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();
  const std::string path = temp_path("mismatch.rcp");
  std::remove(path.c_str());

  RunnerConfig rc = base_config();
  rc.checkpoint_path = path;
  CampaignRunner(rc).run(g, inputs, judges);

  rc.campaign.seed = 100;  // different campaign, same file
  EXPECT_THROW(CampaignRunner(rc).run(g, inputs, judges),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(CampaignRunner, StratifiedSamplingCoversEveryStratum) {
  const graph::Graph g = relu_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();

  RunnerConfig rc = base_config(120);
  rc.stratified.enabled = true;
  rc.stratified.bit_group_size = 8;
  const CampaignReport rep =
      CampaignRunner(rc).run(g, inputs, judges);

  // 5 injectable layers × 4 bit groups under fixed32.
  const TrialPlanner planner(g, rc.campaign, inputs.size(), rc.stratified);
  EXPECT_EQ(planner.strata_count(), 20u);
  EXPECT_EQ(rep.strata.size(), 20u);
  double weight_sum = 0.0;
  for (const StratumStats& s : rep.strata) {
    // Round-robin assignment: equal trials per stratum.
    EXPECT_EQ(s.trials, 240u / 20u);
    ASSERT_GE(s.weight, 0.0);
    weight_sum += s.weight;
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
  // The weighted (unbiased) aggregate is available and sane.
  ASSERT_EQ(rep.weighted.size(), 1u);
  EXPECT_GE(rep.weighted[0].center, 0.0);
  EXPECT_LE(rep.weighted[0].center, 1.0);

  // Every sampled fault lies inside its stratum's layer and bit range.
  for (const TrialRecord& r : rep.records) {
    ASSERT_EQ(r.faults.size(), 1u);
    const std::string& key = r.stratum;
    const std::size_t colon = key.rfind(":b");
    ASSERT_NE(colon, std::string::npos);
    EXPECT_EQ(key.substr(0, colon), r.faults[0].node_name);
    const int lo = std::atoi(key.c_str() + colon + 2);
    const int hi = std::atoi(key.c_str() + key.rfind('-') + 1);
    EXPECT_GE(r.faults[0].bit, lo);
    EXPECT_LE(r.faults[0].bit, hi);
  }
}

TEST(CampaignRunner, StratifiedShardsStillCoverEveryStratum) {
  // Regression: round-robin stratum assignment (t % S) aliases with
  // shard partitioning (t % N) whenever N shares a factor with S — an
  // even shard would then never sample odd strata.  The per-block
  // permutation must keep every stratum reachable from every shard.
  const graph::Graph g = relu_net();
  const auto inputs = two_inputs();
  for (std::size_t i = 0; i < 2; ++i) {
    RunnerConfig rc = base_config(240);  // 240 trials in each half-shard
    rc.stratified.enabled = true;
    rc.shard_index = i;
    rc.shard_count = 2;  // shares factor 2 with the 20 strata
    const CampaignReport rep =
        CampaignRunner(rc).run(g, inputs, dev1_judges());
    EXPECT_EQ(rep.strata.size(), 20u) << "shard " << i;
  }
}

TEST(CampaignRunner, StratifiedRejectsMultiBitConfig) {
  RunnerConfig rc = base_config();
  rc.stratified.enabled = true;
  rc.campaign.n_bits = 3;
  const graph::Graph g = relu_net();
  EXPECT_THROW(CampaignRunner(rc).run(g, two_inputs(), dev1_judges()),
               std::invalid_argument);
}

TEST(CampaignRunner, MergedShardCheckpointsMatchSingleRun) {
  const graph::Graph g = relu_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();
  const std::string p0 = temp_path("shard0.rcp");
  const std::string p1 = temp_path("shard1.rcp");
  std::remove(p0.c_str());
  std::remove(p1.c_str());

  for (std::size_t i = 0; i < 2; ++i) {
    RunnerConfig rc = base_config();
    rc.shard_index = i;
    rc.shard_count = 2;
    rc.checkpoint_path = i == 0 ? p0 : p1;
    CampaignRunner(rc).run(g, inputs, judges);
  }
  const CampaignReport single =
      CampaignRunner(base_config()).run(g, inputs, judges);

  CheckpointHeader header;
  const CampaignReport merged = merge_checkpoints({p0, p1}, &header);
  EXPECT_EQ(header.shard_count, 1u);
  EXPECT_EQ(merged.planned, 180u);
  EXPECT_TRUE(merged.records == single.records);
  EXPECT_EQ(merged.aggregate[0].sdcs, single.aggregate[0].sdcs);
  // Weighted aggregate survives the merge via the header's strata table.
  EXPECT_EQ(merged.weighted.size(), judges.size());

  // A checkpoint from a different campaign refuses to merge.
  const std::string alien = temp_path("alien.rcp");
  std::remove(alien.c_str());
  RunnerConfig rc = base_config();
  rc.campaign.seed = 7;
  rc.checkpoint_path = alien;
  CampaignRunner(rc).run(g, inputs, judges);
  EXPECT_THROW(merge_checkpoints({p0, alien}), std::runtime_error);
  std::remove(p0.c_str());
  std::remove(p1.c_str());
  std::remove(alien.c_str());
}

TEST(CampaignRunner, EarlyStopHaltsOnTightInterval) {
  const graph::Graph g = relu_net();
  const auto inputs = two_inputs();

  RunnerConfig rc = base_config(800);  // 1600 planned trials
  rc.check_every = 50;
  rc.target_half_width_pct = 5.0;
  const CampaignReport rep = CampaignRunner(rc).run(
      g, inputs, {std::make_shared<NeverJudge>()});
  // At 0 observed SDCs the Wilson half-width drops below 5% within ~40
  // trials; the runner stops at the first batch boundary past that.
  EXPECT_GE(rep.executed(), 50u);
  EXPECT_LT(rep.executed(), 200u);
  EXPECT_EQ(rep.aggregate[0].sdcs, 0u);
  // A stopped run is a prefix of the shard's deterministic sequence.
  for (std::size_t i = 0; i < rep.records.size(); ++i)
    EXPECT_EQ(rep.records[i].trial, i);
}

TEST(Checkpoint, TornFinalRecordIsDropped) {
  // A killed writer leaves the file cut mid-frame: the load keeps every
  // whole record and flags the tear, and a resume re-executes the lost
  // trial and rewrites a canonical file — the uninterrupted run's bytes.
  const graph::Graph g = relu_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();
  const std::string ref_path = temp_path("torn_ref.rcp");
  const std::string path = temp_path("torn.rcp");
  std::remove(ref_path.c_str());
  RunnerConfig rc = base_config();
  rc.checkpoint_path = ref_path;
  const CampaignReport ref = CampaignRunner(rc).run(g, inputs, judges);
  const std::string whole = slurp(ref_path);

  // Cut three bytes into the last record's frame.
  std::string last_frame;
  encode_record(last_frame, ref.records.back());
  ASSERT_GT(last_frame.size(), 3u);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << whole.substr(0, whole.size() - last_frame.size() + 3);

  const Checkpoint cp = load_checkpoint(path);
  EXPECT_TRUE(cp.torn_tail);
  EXPECT_EQ(cp.records.size(), 179u);

  rc.checkpoint_path = path;
  const CampaignReport resumed = CampaignRunner(rc).run(g, inputs, judges);
  EXPECT_TRUE(resumed.records == ref.records);
  const Checkpoint canonical = load_checkpoint(path);
  EXPECT_FALSE(canonical.torn_tail);
  EXPECT_EQ(canonical.records.size(), 180u);
  EXPECT_EQ(slurp(path), whole);
  std::remove(ref_path.c_str());
  std::remove(path.c_str());
}

TEST(Checkpoint, JsonlFileIsRefusedNamingThePath) {
  // Checkpoints are RPRC only: a JSONL checkpoint from an older build is
  // refused by name — neither resumed nor overwritten.
  const graph::Graph g = relu_net();
  const auto inputs = two_inputs();
  const auto judges = dev1_judges();
  RunnerConfig rc = base_config();
  const CampaignReport ref = CampaignRunner(rc).run(g, inputs, judges);
  const std::string path = temp_path("legacy.jsonl");
  const std::string text = to_jsonl(
      CampaignRunner(rc).make_header(inputs.size(), judges.size()),
      ref.records);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

  const auto refusal = [&](const auto& load) {
    try {
      load();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string loaded = refusal([&] { load_checkpoint(path); });
  EXPECT_NE(loaded.find(path), std::string::npos) << loaded;
  EXPECT_NE(loaded.find("JSONL"), std::string::npos) << loaded;
  rc.checkpoint_path = path;
  const std::string resumed =
      refusal([&] { CampaignRunner(rc).run(g, inputs, judges); });
  EXPECT_NE(resumed.find(path), std::string::npos) << resumed;
  EXPECT_EQ(slurp(path), text);
  std::remove(path.c_str());
}

TEST(CampaignRunner, FailedCheckpointWriteStopsTheRun) {
  // A checkpoint that cannot grow (a full disk, a file-size limit) must
  // stop the run with the path in the error rather than report trials
  // the file does not hold.  The limit is this process's own and is
  // restored below; SIGXFSZ is ignored so the write fails with EFBIG
  // instead of killing the process.
  const std::string path = temp_path("fsize.rcp");
  std::remove(path.c_str());
  RunnerConfig rc = base_config();
  rc.checkpoint_path = path;

  rlimit old_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  rlimit low = old_limit;
  low.rlim_cur = 2048;  // room for the header and about 45 of 180 records
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &low), 0);
  std::string message;
  try {
    CampaignRunner(rc).run(relu_net(), two_inputs(), dev1_judges());
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_NE(message.find(path), std::string::npos) << message;
  // What did reach the file is a valid prefix: the header and whole
  // records, at most a torn tail.
  EXPECT_LT(load_checkpoint(path).records.size(), 180u);
  std::remove(path.c_str());
}

TEST(Runner, InvalidBackendEnvWarnsAndFallsBack) {
  // The campaign's kernel backend comes from RANGERPP_BACKEND; a typo
  // must fall back to the default with a warning, never silently change
  // behaviour (results are bit-identical across backends, but the
  // operator should learn their override was ignored).
  std::string warning;
  EXPECT_EQ(ops::backend_from_env(nullptr, &warning),
            ops::KernelBackend::kBlocked);
  EXPECT_TRUE(warning.empty());

  EXPECT_EQ(ops::backend_from_env("scalar", &warning),
            ops::KernelBackend::kScalar);
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(ops::backend_from_env("blocked", &warning),
            ops::KernelBackend::kBlocked);
  EXPECT_TRUE(warning.empty());

  EXPECT_EQ(ops::backend_from_env("blockedd", &warning),
            ops::KernelBackend::kBlocked);
  EXPECT_NE(warning.find("RANGERPP_BACKEND=blockedd"), std::string::npos);
  // A later valid value clears the previous warning.
  EXPECT_EQ(ops::backend_from_env("scalar", &warning),
            ops::KernelBackend::kScalar);
  EXPECT_TRUE(warning.empty());
}

TEST(Checkpoint, HeaderFingerprintDiscriminates) {
  CheckpointHeader a;
  a.seed = 1;
  a.dtype = "fixed32";
  a.trials_per_input = 10;
  a.inputs = 2;
  a.judges = 1;
  CheckpointHeader b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.shard_index = 1;  // shard-agnostic
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.seed = 2;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  // The strata table is the graph's signature: checkpoints of two
  // different models must not merge even when every scalar matches.
  CheckpointHeader c = a;
  c.strata_weights = "conv:b0-7=0.5;conv:b8-15=0.5";
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(Report, ConflictingRecordsThrow) {
  TrialRecord a;
  a.trial = 3;
  a.faults = {FaultPoint{"conv", 1, 2}};
  a.stratum = "conv:b0-7";
  TrialRecord b = a;
  b.sdc_mask = 1;  // same trial, different verdict: impossible if
                   // trials are deterministic
  EXPECT_THROW(build_report({a, b}, 1, 10), std::runtime_error);
  // Identical duplicates (overlapping checkpoints) deduplicate fine.
  const CampaignReport rep = build_report({a, a}, 1, 10);
  EXPECT_EQ(rep.executed(), 1u);
}

}  // namespace
}  // namespace rangerpp::fi
