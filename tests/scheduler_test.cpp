// fi::Scheduler concurrency/crash gates: the merged record stream of a
// scheduled request must be byte-identical to a one-shot suite_cli run
// of the same spec — regardless of worker count, steal order, slice
// boundaries, concurrent sibling requests, warm-vs-cold engine caches,
// a worker killed mid-run, or a cancel followed by a resuming
// resubmission.  Plus the strict request wire format and the
// WorkloadCache concurrent-reader regression (run under TSan in CI).
//
// Everything runs on tiny LeNet campaigns; byte-identity is asserted
// against per-cell checkpoints written by a one-shot unsharded Suite.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "fi/record_codec.hpp"
#include "fi/scheduler.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rangerpp::fi {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
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

// One workload cache for the whole binary: every spec below uses
// (seed 2021, inputs 2), so LeNet trains/loads once, not per test.
models::WorkloadCache& shared_cache() {
  static models::WorkloadCache cache = [] {
    models::WorkloadOptions wo;
    wo.seed = 2021;
    wo.eval_inputs = 2;
    return models::WorkloadCache(wo);
  }();
  return cache;
}

SuiteSpec tiny_spec(const std::string& name) {
  SuiteSpec spec;
  spec.name = name;
  spec.models = {models::ModelId::kLeNet};
  spec.trials_small = 18;  // 36 trials per cell at 2 inputs
  spec.inputs = 2;
  spec.seed = 2021;
  spec.check_every = 8;
  return spec;
}

// The per-cell checkpoint bytes (filename → contents) of a one-shot
// unsharded Suite run — the goldens every scheduler path must match.
std::map<std::string, std::string> one_shot_goldens(SuiteSpec spec,
                                                    const std::string& dir) {
  spec.checkpoint_dir = temp_dir(dir);
  Suite suite(spec, &shared_cache());
  suite.run();
  std::map<std::string, std::string> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(spec.checkpoint_dir))
    out[entry.path().filename().string()] = slurp(entry.path().string());
  return out;
}

void expect_matches_goldens(const std::vector<std::string>& paths,
                            const std::map<std::string, std::string>& golden) {
  ASSERT_EQ(paths.size(), golden.size());
  for (const std::string& path : paths) {
    const std::string name = std::filesystem::path(path).filename().string();
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "unexpected export " << name;
    EXPECT_EQ(slurp(path), it->second) << name << " diverges from one-shot";
  }
}

// Client-side record collector: what scheduler_cli reassembles from the
// streamed frames.
struct Collected {
  std::mutex mu;
  std::map<std::size_t, CheckpointHeader> headers;
  std::map<std::size_t, std::vector<TrialRecord>> records;
};

RecordSink collector(Collected& c) {
  return [&c](std::size_t ci, const CheckpointHeader& h,
              const std::vector<TrialRecord>& rs) {
    std::lock_guard<std::mutex> lk(c.mu);
    c.headers.emplace(ci, h);
    std::vector<TrialRecord>& v = c.records[ci];
    v.insert(v.end(), rs.begin(), rs.end());
  };
}

void expect_stream_matches_goldens(
    const SuiteSpec& spec, Collected& c,
    const std::map<std::string, std::string>& golden) {
  const SuitePlan plan = compile_suite(spec);
  std::lock_guard<std::mutex> lk(c.mu);
  ASSERT_EQ(c.records.size(), plan.cells.size());
  for (std::size_t ci = 0; ci < plan.cells.size(); ++ci) {
    const std::string name =
        cell_checkpoint_name(spec.name, plan.cells[ci], 0, 1);
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end());
    std::string bytes;
    encode_stream_header(bytes, c.headers.at(ci));
    bytes += encode_records(sort_unique_records(c.records.at(ci)));
    EXPECT_EQ(bytes, it->second) << "streamed " << name << " diverges";
  }
}

TEST(SchedulerWire, SpecRoundTripsExactly) {
  SuiteSpec spec = tiny_spec("wire");
  spec.dtypes = {tensor::DType::kFixed32, tensor::DType::kInt8};
  spec.faults = {{1, false}, {3, true}};
  FaultModelSpec wf;
  wf.cls = FaultClass::kWeight;
  wf.wkind = WeightFaultKind::kStuckAt0;
  spec.faults.push_back(wf);
  spec.techniques = {Technique::kUnprotected, Technique::kRangerPaired};
  spec.acts = {ops::OpKind::kInput, ops::OpKind::kTanh};
  spec.target_half_width_pct = 1.5;

  const std::string text = serialize_suite_spec(spec);
  const SuiteSpec back = parse_suite_spec(text);
  EXPECT_EQ(serialize_suite_spec(back), text);
  // The grids compile to identical plans — the property submit cares
  // about.
  const SuitePlan a = compile_suite(spec);
  const SuitePlan b = compile_suite(back);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].id, b.cells[i].id);
    EXPECT_EQ(a.cells[i].total_trials, b.cells[i].total_trials);
    EXPECT_EQ(a.cells[i].shard_offset, b.cells[i].shard_offset);
  }
  EXPECT_EQ(a.total_trials, b.total_trials);

  // A uniform spec serialises to the same bytes it did before sampling
  // was a spec field (lenet-serve's requests among them)...
  EXPECT_EQ(serialize_suite_spec(tiny_spec("uniform")),
            "name=uniform\nmodels=lenet\nacts=default\ndtypes=fixed32\n"
            "faults=b1\ntechniques=unprotected,ranger\ntrials=18\n"
            "trials_divisor=1\ninputs=2\nseed=2021\ncheck_every=8\n");
  // ...and a stratified one carries the checkpoint header's names.
  SuiteSpec strat = tiny_spec("strat");
  strat.stratified.enabled = true;
  strat.stratified.bit_group_size = 4;
  const std::string strat_text = serialize_suite_spec(strat);
  EXPECT_NE(strat_text.find("\nsampling=stratified\n"), std::string::npos);
  EXPECT_NE(strat_text.find("\nbit_group=4\n"), std::string::npos);
  const SuiteSpec strat_back = parse_suite_spec(strat_text);
  EXPECT_TRUE(strat_back.stratified.enabled);
  EXPECT_EQ(strat_back.stratified.bit_group_size, 4);
  EXPECT_EQ(serialize_suite_spec(strat_back), strat_text);
}

TEST(SchedulerWire, ParserIsStrict) {
  EXPECT_THROW(parse_suite_spec("models=notamodel\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_suite_spec("bogus_key=1\n"), std::invalid_argument);
  EXPECT_THROW(parse_suite_spec("no equals sign"), std::invalid_argument);
  EXPECT_THROW(parse_suite_spec("models=lenet,,lenet\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_suite_spec("trials=12abc\n"), std::invalid_argument);
  EXPECT_THROW(parse_suite_spec("faults=b0\n"), std::invalid_argument);
  EXPECT_THROW(parse_suite_spec("faults=wmulti\n"), std::invalid_argument);
  EXPECT_THROW(parse_suite_spec("target_ci=-1\n"), std::invalid_argument);
  EXPECT_THROW(parse_suite_spec("sampling=neyman\n"), std::invalid_argument);
  EXPECT_THROW(parse_suite_spec("bit_group=0\n"), std::invalid_argument);
}

TEST(SchedulerSubmit, RejectsShardedSpecsAndDuplicateNames) {
  SchedulerConfig cfg;
  cfg.workers = 2;
  Scheduler sched(cfg, &shared_cache());

  SuiteSpec sharded = tiny_spec("sharded");
  sharded.shard_count = 2;
  EXPECT_THROW(sched.submit(sharded), std::invalid_argument);
  // Refused at submit, before any cold build, not at the first slice.
  EXPECT_THROW(sched.submit(parse_suite_spec(
                   serialize_suite_spec(tiny_spec("batchless")) +
                   "check_every=0\n")),
               std::invalid_argument);

  // Block the first request inside its sink so it is provably still
  // running when the duplicate submit arrives (the sink must not call
  // back into the scheduler; blocking on an external latch is fine).
  std::mutex mu;
  std::condition_variable cv;
  bool release = false, entered = false;
  const std::uint64_t id = sched.submit(
      tiny_spec("dup"), [&](std::size_t, const CheckpointHeader&,
                            const std::vector<TrialRecord>&) {
        std::unique_lock<std::mutex> lk(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lk, [&] { return release; });
      });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return entered; });
  }
  EXPECT_THROW(sched.submit(tiny_spec("dup")), std::invalid_argument);
  EXPECT_FALSE(sched.cancel(9999));  // unknown id
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  sched.wait(id);
  // Settled: the name is free again.
  EXPECT_NO_THROW(sched.wait(sched.submit(tiny_spec("dup"))));
}

TEST(SchedulerIdentity, ConcurrentSubmittersMatchOneShotGoldens) {
  // Two clients with different grids — activation flips under
  // {unprotected, ranger}, and stuck-at-0 weight faults — share one
  // daemon, its caches and its worker pool.
  SuiteSpec spec_a = tiny_spec("conc_a");
  SuiteSpec spec_b = tiny_spec("conc_b");
  FaultModelSpec wf;
  wf.cls = FaultClass::kWeight;
  wf.wkind = WeightFaultKind::kStuckAt0;
  spec_b.faults = {wf};
  spec_b.techniques = {Technique::kUnprotected};

  const auto golden_a = one_shot_goldens(spec_a, "conc_a_golden");
  const auto golden_b = one_shot_goldens(spec_b, "conc_b_golden");

  SchedulerConfig cfg;
  cfg.workers = 3;
  cfg.partitions_per_cell = 3;
  cfg.slice_trials = 5;
  cfg.checkpoint_dir = temp_dir("conc_ckpt");
  Scheduler sched(cfg, &shared_cache());

  Collected ca, cb;
  std::uint64_t ida = 0, idb = 0;
  std::thread ta([&] { ida = sched.submit(spec_a, collector(ca)); });
  std::thread tb([&] { idb = sched.submit(spec_b, collector(cb)); });
  ta.join();
  tb.join();
  sched.wait(ida);
  sched.wait(idb);

  // Server-side export and the client-side reassembly of the streamed
  // frames must both match the one-shot bytes.
  expect_matches_goldens(
      sched.export_request(ida, temp_dir("conc_a_out")), golden_a);
  expect_matches_goldens(
      sched.export_request(idb, temp_dir("conc_b_out")), golden_b);
  expect_stream_matches_goldens(spec_a, ca, golden_a);
  expect_stream_matches_goldens(spec_b, cb, golden_b);

  const auto st = sched.status(ida);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, RequestState::kDone);
  EXPECT_EQ(st->streamed_trials, compile_suite(spec_a).total_trials);
}

// Stratified sampling rides the wire and the partitioned slices: the
// export equals the one-shot suite's stratified checkpoints.
TEST(SchedulerIdentity, StratifiedRequestMatchesOneShotSuite) {
  SuiteSpec spec = tiny_spec("strat");
  spec.stratified.enabled = true;
  spec.stratified.bit_group_size = 4;
  const auto golden = one_shot_goldens(spec, "strat_golden");

  SchedulerConfig cfg;
  cfg.workers = 2;
  cfg.partitions_per_cell = 3;
  cfg.slice_trials = 5;
  cfg.checkpoint_dir = temp_dir("strat_ckpt");
  Scheduler sched(cfg, &shared_cache());
  const std::uint64_t id =
      sched.submit(parse_suite_spec(serialize_suite_spec(spec)));
  sched.wait(id);
  expect_matches_goldens(sched.export_request(id, temp_dir("strat_out")),
                         golden);
}

TEST(SchedulerIdentity, WorkerCountSliceAndStealOrderAreInvisible) {
  // Same grid (including a ranger-paired cell, which pins the
  // shard_offset phasing and the shared-goldens judging path) under
  // radically different scheduling: 1 worker × whole partitions
  // vs 4 workers × 3-trial slices × 5 partitions.
  SuiteSpec spec = tiny_spec("inv");
  spec.techniques = {Technique::kUnprotected, Technique::kRanger,
                     Technique::kRangerPaired};
  const auto golden = one_shot_goldens(spec, "inv_golden");

  SchedulerConfig serial;
  serial.workers = 1;
  serial.partitions_per_cell = 1;
  Scheduler s1(serial, &shared_cache());
  const std::uint64_t id1 = s1.submit(spec);
  s1.wait(id1);
  expect_matches_goldens(s1.export_request(id1, temp_dir("inv_out1")),
                         golden);

  SchedulerConfig wide;
  wide.workers = 4;
  wide.partitions_per_cell = 5;
  wide.slice_trials = 3;
  wide.checkpoint_dir = temp_dir("inv_ckpt");
  Scheduler s4(wide, &shared_cache());
  const std::uint64_t id4 = s4.submit(spec);
  s4.wait(id4);
  expect_matches_goldens(s4.export_request(id4, temp_dir("inv_out4")),
                         golden);
}

TEST(SchedulerIdentity, WarmCachesChangeNothing) {
  // Second request of the same grid hits every engine cache (workloads,
  // bounds, protected graphs, executors) warm; records must not care.
  SuiteSpec cold = tiny_spec("warm_a");
  SuiteSpec warm = tiny_spec("warm_b");
  const auto golden = one_shot_goldens(cold, "warm_golden");

  SchedulerConfig cfg;
  cfg.workers = 2;
  cfg.partitions_per_cell = 2;
  util::metrics::set_enabled(true);
  util::metrics::reset();
  Scheduler sched(cfg, &shared_cache());
  const std::uint64_t ca = sched.submit(cold);
  sched.wait(ca);
  const std::uint64_t cold_builds =
      util::metrics::counter_value("cache.executor.build");
  const std::uint64_t cold_hits =
      util::metrics::counter_value("cache.executor.hit");
  const std::uint64_t wa = sched.submit(warm);
  sched.wait(wa);
  util::metrics::set_enabled(false);
  // The cold request builds one executor per variant ({unprotected,
  // ranger}); the warm one only hits them.
  EXPECT_EQ(cold_builds, 2u);
  EXPECT_EQ(util::metrics::counter_value("cache.executor.build"),
            cold_builds);
  EXPECT_GT(util::metrics::counter_value("cache.executor.hit"), cold_hits);
  util::metrics::reset();

  const auto cold_paths = sched.export_request(ca, temp_dir("warm_o1"));
  const auto warm_paths = sched.export_request(wa, temp_dir("warm_o2"));
  expect_matches_goldens(cold_paths, golden);
  ASSERT_EQ(cold_paths.size(), warm_paths.size());
  // Names differ (request name prefixes the file); bytes must not.
  for (std::size_t i = 0; i < cold_paths.size(); ++i)
    EXPECT_EQ(slurp(warm_paths[i]), slurp(cold_paths[i]));
}

TEST(SchedulerCrash, KilledWorkerLosesNoTrialsAndDuplicatesNone) {
  SuiteSpec spec = tiny_spec("kill");
  const auto golden = one_shot_goldens(spec, "kill_golden");

  SchedulerConfig cfg;
  cfg.workers = 2;
  cfg.partitions_per_cell = 3;
  cfg.slice_trials = 4;
  cfg.checkpoint_dir = temp_dir("kill_ckpt");
  Scheduler sched(cfg, &shared_cache());
  // Worker 1's second slice checkpoints but never streams, then the
  // worker exits — the kill-after-fsync crash window.  Worker 0 must
  // adopt the orphaned unit and stream its records from the checkpoint.
  sched.kill_worker_after(1, 2);

  Collected c;
  const std::uint64_t id = sched.submit(spec, collector(c));
  sched.wait(id);

  const auto st = sched.status(id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, RequestState::kDone);
  EXPECT_EQ(st->streamed_trials, compile_suite(spec).total_trials);
  expect_matches_goldens(sched.export_request(id, temp_dir("kill_out")),
                         golden);
  expect_stream_matches_goldens(spec, c, golden);

  // The daemon's partition checkpoints are ordinary suite shards: a
  // merge over its directory writes each cell's s0of1 file, equal to
  // the one-shot run's.
  SuiteSpec merge_spec = spec;
  merge_spec.checkpoint_dir = cfg.checkpoint_dir;
  Suite(merge_spec, &shared_cache()).merge({cfg.checkpoint_dir});
  for (const auto& [name, bytes] : golden)
    EXPECT_EQ(slurp(cfg.checkpoint_dir + "/" + name), bytes)
        << name << " merged from the daemon's partitions";
}

TEST(SchedulerCrash, CancelLeavesResumableCheckpointsThenResumeCompletes) {
  SuiteSpec spec = tiny_spec("cxl");
  spec.trials_small = 100;  // 200 trials/cell: cancel lands mid-run
  const auto golden = one_shot_goldens(spec, "cxl_golden");
  const std::string ckpt = temp_dir("cxl_ckpt");

  std::size_t cancelled_streamed = 0;
  {
    SchedulerConfig cfg;
    cfg.workers = 2;
    cfg.partitions_per_cell = 2;
    cfg.slice_trials = 4;
    cfg.checkpoint_dir = ckpt;
    Scheduler sched(cfg, &shared_cache());

    std::mutex mu;
    std::condition_variable cv;
    bool streamed = false;
    const std::uint64_t id = sched.submit(
        spec, [&](std::size_t, const CheckpointHeader&,
                  const std::vector<TrialRecord>&) {
          std::lock_guard<std::mutex> lk(mu);
          streamed = true;
          cv.notify_all();
        });
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return streamed; });
    }
    EXPECT_TRUE(sched.cancel(id));
    const SuiteResult partial = sched.wait(id);
    const auto st = sched.status(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, RequestState::kCancelled);
    cancelled_streamed = st->streamed_trials;
    EXPECT_GT(cancelled_streamed, 0u);
    EXPECT_LT(cancelled_streamed, compile_suite(spec).total_trials);
    // Partial reports still build (prefix-consistent records).
    EXPECT_EQ(partial.cells.size(), compile_suite(spec).cells.size());
    EXPECT_FALSE(sched.cancel(id));  // already settled
  }

  // Fresh daemon, same checkpoint dir: resubmitting the spec resumes
  // the surviving checkpoints and completes with one-shot bytes.
  {
    SchedulerConfig cfg;
    cfg.workers = 2;
    cfg.partitions_per_cell = 2;  // must match: partitions key filenames
    cfg.slice_trials = 4;
    cfg.checkpoint_dir = ckpt;
    Scheduler sched(cfg, &shared_cache());
    const std::uint64_t id = sched.submit(spec);
    sched.wait(id);
    expect_matches_goldens(
        sched.export_request(id, temp_dir("cxl_out")), golden);

    // No-op resume: everything is already checkpointed, so a third run
    // executes nothing new yet streams the full record set again and
    // exports the same bytes.
    Collected c;
    const std::uint64_t noop = sched.submit(spec, collector(c));
    sched.wait(noop);
    const auto st = sched.status(noop);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, RequestState::kDone);
    EXPECT_EQ(st->streamed_trials, compile_suite(spec).total_trials);
    expect_matches_goldens(
        sched.export_request(noop, temp_dir("cxl_out2")), golden);
    expect_stream_matches_goldens(spec, c, golden);
  }
}

TEST(SchedulerRetention, ReleaseDropsRecordsButKeepsStatus) {
  SchedulerConfig cfg;
  cfg.workers = 2;
  Scheduler sched(cfg, &shared_cache());
  const SuiteSpec spec = tiny_spec("rel");
  const std::uint64_t id = sched.submit(spec);
  sched.wait(id);

  EXPECT_FALSE(sched.release(9999));  // unknown id
  ASSERT_TRUE(sched.release(id));
  // Lightweight status survives the release; the buffered records do
  // not — export must refuse instead of writing empty files.
  const auto st = sched.status(id);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, RequestState::kDone);
  EXPECT_EQ(st->streamed_trials, compile_suite(spec).total_trials);
  EXPECT_THROW(sched.export_request(id, temp_dir("rel_out")),
               std::runtime_error);
}

TEST(SchedulerRetention, ReleaseRefusesRunningRequests) {
  SchedulerConfig cfg;
  cfg.workers = 2;
  Scheduler sched(cfg, &shared_cache());
  std::mutex mu;
  std::condition_variable cv;
  bool unblock = false, entered = false;
  // The sink blocks while the scheduler holds the request's internal
  // lock — release() must still answer false immediately (the atomic
  // state check), not wait out the stream.
  const std::uint64_t id = sched.submit(
      tiny_spec("rel_run"), [&](std::size_t, const CheckpointHeader&,
                                const std::vector<TrialRecord>&) {
        std::unique_lock<std::mutex> lk(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lk, [&] { return unblock; });
      });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return entered; });
  }
  EXPECT_FALSE(sched.release(id));
  {
    std::lock_guard<std::mutex> lk(mu);
    unblock = true;
  }
  cv.notify_all();
  sched.wait(id);
  EXPECT_TRUE(sched.release(id));
}

TEST(SchedulerRetention, SettledRequestsAreReapedBeyondTheCap) {
  SchedulerConfig cfg;
  cfg.workers = 2;
  cfg.settled_retention = 1;
  Scheduler sched(cfg, &shared_cache());

  const std::uint64_t a = sched.submit(tiny_spec("reap_a"));
  sched.wait(a);
  // One settled request ≤ cap: submitting b keeps a around.
  const std::uint64_t b = sched.submit(tiny_spec("reap_b"));
  EXPECT_TRUE(sched.status(a).has_value());
  sched.wait(b);
  // Two settled > cap: submitting c evicts the oldest (a), keeps b.
  const std::uint64_t c = sched.submit(tiny_spec("reap_c"));
  EXPECT_FALSE(sched.status(a).has_value());
  EXPECT_THROW(sched.wait(a), std::invalid_argument);
  EXPECT_TRUE(sched.status(b).has_value());
  sched.wait(c);
  EXPECT_EQ(sched.status_all().size(), 2u);  // b (retained) + c
}

// Extracts the integer following `"key": ` — enough JSON parsing for the
// structural assertions below (CI's scheduler-smoke runs a real parser).
std::uint64_t json_uint(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(SchedulerStats, StatsJsonReportsLiveFigures) {
  SchedulerConfig cfg;
  cfg.workers = 2;
  Scheduler sched(cfg, &shared_cache());

  // Before any work: structure present, counters at zero.
  const std::string idle = sched.stats_json();
  EXPECT_EQ(json_uint(idle, "workers"), 2u);
  EXPECT_EQ(json_uint(idle, "trials_streamed"), 0u);
  EXPECT_EQ(json_uint(idle, "slices"), 0u);
  EXPECT_NE(idle.find("\"queue_depths\""), std::string::npos);
  EXPECT_NE(idle.find("\"worker_busy_fraction\""), std::string::npos);
  EXPECT_NE(idle.find("\"requests\""), std::string::npos);
  // The registry is off in this test binary, so the embedded snapshot is
  // explicitly null — the scheduler-owned figures above stay live anyway.
  ASSERT_FALSE(util::metrics::enabled());
  EXPECT_NE(idle.find("\"metrics\": null"), std::string::npos);

  const SuiteSpec spec = tiny_spec("stats");
  const std::uint64_t id = sched.submit(spec);
  sched.wait(id);

  const std::string busy = sched.stats_json();
  EXPECT_EQ(json_uint(busy, "trials_streamed"),
            compile_suite(spec).total_trials);
  EXPECT_GT(json_uint(busy, "slices"), 0u);
  EXPECT_EQ(json_uint(busy, "done"), 1u);
  EXPECT_EQ(json_uint(busy, "running"), 0u);

  // Monotone across calls: a second request only grows the figures.
  const std::uint64_t id2 = sched.submit(tiny_spec("stats2"));
  sched.wait(id2);
  const std::string later = sched.stats_json();
  EXPECT_GE(json_uint(later, "trials_streamed"),
            json_uint(busy, "trials_streamed"));
  EXPECT_GE(json_uint(later, "slices"), json_uint(busy, "slices"));
  EXPECT_EQ(json_uint(later, "done"), 2u);

  // With the registry enabled the snapshot rides along as an object.
  util::metrics::set_enabled(true);
  const std::string with_metrics = sched.stats_json();
  util::metrics::set_enabled(false);
  util::metrics::reset();
  EXPECT_EQ(with_metrics.find("\"metrics\": null"), std::string::npos);
  EXPECT_NE(with_metrics.find("\"metrics\": {"), std::string::npos);
}

TEST(SchedulerShutdownRace, SubmitRacingShutdownAlwaysSettles) {
  // TSan regression for the submit-vs-shutdown TOCTOU: shutdown_ used to
  // be checked only at submit entry, so a submit that lost the race
  // enqueued units no worker would ever run — its wait() hung forever.
  // Now the enqueue section rechecks under the queue lock, settles the
  // already-registered request kFailed and throws.  Either way every
  // submit must end in a settled request or a throw, never a hang.
  for (int round = 0; round < 4; ++round) {
    SchedulerConfig cfg;
    cfg.workers = 2;
    Scheduler sched(cfg, &shared_cache());
    constexpr int kSubmitters = 4;
    std::atomic<bool> go{false};
    std::vector<std::uint64_t> ids(kSubmitters, 0);
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t)
      threads.emplace_back([&sched, &go, &ids, round, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        try {
          ids[static_cast<std::size_t>(t)] = sched.submit(tiny_spec(
              "race" + std::to_string(round) + "_" + std::to_string(t)));
        } catch (const std::runtime_error&) {
          // Lost to shutdown — the documented refusal.
        }
      });
    go.store(true, std::memory_order_release);
    sched.shutdown();
    for (std::thread& t : threads) t.join();
    for (const std::uint64_t id : ids) {
      if (id == 0) continue;  // the submit threw before registration
      // A registered request must have settled (shutdown fails running
      // requests; a completed one is kDone) — and wait() must return,
      // not hang on never-scheduled units.
      const auto st = sched.status(id);
      if (st.has_value()) {
        EXPECT_NE(st->state, RequestState::kRunning);
      }
      try {
        sched.wait(id);
      } catch (const std::runtime_error&) {
        // kFailed ("shut down before ...") surfaces here; fine.
      } catch (const std::invalid_argument&) {
        // Reaped by a concurrent submit's retention sweep; fine.
      }
    }
  }
}

TEST(SchedulerRetention, ExportRacingReleaseIsAllOrNothing) {
  // TSan regression for the export-vs-release TOCTOU: `released` used to
  // be checked once at export entry, so a concurrent release() emptied
  // the record buffers mid-export and the remaining cells were written
  // as silently truncated files.  Export now rechecks per cell and
  // throws — a racing export either delivers byte-complete files or
  // fails loudly.
  SchedulerConfig cfg;
  cfg.workers = 2;
  Scheduler sched(cfg, &shared_cache());
  std::map<std::string, std::string> golden;
  for (int round = 0; round < 4; ++round) {
    const std::string tag = "expreal" + std::to_string(round);
    const std::uint64_t id = sched.submit(tiny_spec(tag));
    sched.wait(id);
    if (golden.empty()) {
      // Reference bytes from an uncontended export (records and headers
      // are identical across rounds: same spec, same seed).
      const std::string dir = temp_dir("exp_ref");
      for (const std::string& path : sched.export_request(id, dir))
        golden[std::filesystem::path(path).filename().string().substr(
            tag.size())] = slurp(path);
    }
    const std::string out = temp_dir("exp_race" + std::to_string(round));
    std::vector<std::string> paths;
    bool export_threw = false;
    std::thread exporter([&] {
      try {
        paths = sched.export_request(id, out);
      } catch (const std::runtime_error&) {
        export_threw = true;
      }
    });
    std::thread releaser([&] { sched.release(id); });
    exporter.join();
    releaser.join();
    if (export_threw) continue;  // release won; the throw is the contract
    for (const std::string& path : paths) {
      const std::string key =
          std::filesystem::path(path).filename().string().substr(tag.size());
      const auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << "unexpected export " << path;
      EXPECT_EQ(slurp(path), it->second)
          << path << " truncated by a concurrent release";
    }
  }
}

// SchedulerConfig::verify_plans reaches every executor the daemon
// builds (scheduler_cli serve --verify-plan), and every slice's engine
// lookup runs under a cache.executor.get span.
TEST(SchedulerEngine, VerifyPlansVerifiesEveryExecutorPlan) {
  const std::string trace_path =
      testing::TempDir() + "/scheduler_verify_trace.json";
  ASSERT_TRUE(util::trace::start(trace_path));
  {
    SchedulerConfig cfg;
    cfg.workers = 2;
    cfg.verify_plans = true;
    Scheduler sched(cfg, &shared_cache());
    sched.wait(sched.submit(tiny_spec("sched_verify")));
  }  // workers joined before the flush
  ASSERT_TRUE(util::trace::stop_and_flush());
  const std::string trace_json = slurp(trace_path);
  std::filesystem::remove(trace_path);
  // Two executors ({unprotected, ranger}), each compiling at least one
  // plan.
  EXPECT_GE(count_spans(trace_json, "compile.verify_plan"), 2u);
  EXPECT_EQ(count_spans(trace_json, "cache.executor.build"), 2u);
  EXPECT_GE(count_spans(trace_json, "cache.executor.get"),
            count_spans(trace_json, "sched.slice"));
}

TEST(SchedulerEngine, SubmitBuildsColdStateBeforeQueueing) {
  // A cold cell's engine state is built on the submitting thread before
  // its units queue, so no worker blocks on a build (and a warm request
  // never waits behind one): both executors exist when submit()
  // returns, and running the request builds nothing more.
  SchedulerConfig cfg;
  cfg.workers = 2;
  util::metrics::set_enabled(true);
  util::metrics::reset();
  Scheduler sched(cfg, &shared_cache());
  const std::uint64_t id = sched.submit(tiny_spec("cold_submit"));
  const std::uint64_t at_submit =
      util::metrics::counter_value("cache.executor.build");
  const std::uint64_t bounds_at_submit =
      util::metrics::counter_value("cache.bounds.build");
  sched.wait(id);
  const std::uint64_t after_wait =
      util::metrics::counter_value("cache.executor.build");
  util::metrics::set_enabled(false);
  util::metrics::reset();
  EXPECT_EQ(at_submit, 2u);  // {unprotected, ranger}
  EXPECT_EQ(bounds_at_submit, 1u);
  EXPECT_EQ(after_wait, at_submit);
}

TEST(SchedulerEngine, WorkloadCacheConcurrentGetIsSafe) {
  // TSan regression for the find-or-insert + per-entry once_flag cache:
  // concurrent get() for the same and different keys must race-free
  // return one stable Workload instance per key.
  models::WorkloadOptions wo;
  wo.seed = 2021;
  wo.eval_inputs = 2;
  models::WorkloadCache cache(wo);
  constexpr int kThreads = 8;
  std::vector<const models::Workload*> seen(kThreads * 2, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&cache, &seen, t] {
      seen[2 * t] = &cache.get(models::ModelId::kLeNet);
      seen[2 * t + 1] =
          &cache.get(models::ModelId::kLeNet, ops::OpKind::kTanh);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.size(), 2u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[2 * t], seen[0]);
    EXPECT_EQ(seen[2 * t + 1], seen[1]);
  }
}

}  // namespace
}  // namespace rangerpp::fi
