// perfbench_workloads — runs one benchmark workload against the rangerpp
// library and prints its raw measurements as one JSON object on the last
// line of stdout.  perfbench/run.py builds this binary, owns the weight
// cache, the daemon process and the checkpoint directories, and turns
// the raw samples into the benchmark's metrics.
//
//   perfbench_workloads prepare
//       builds every benchmark workload once so the weight cache
//       ($RANGERPP_WEIGHTS_DIR) is warm before anything is timed
//   perfbench_workloads suite  --workload alexnet-act|resnet18-weight
//                           --seed N --seconds S --trace 0|1 --dir DIR
//       closed loop of fi::Suite::run requests (what suite_cli runs)
//   perfbench_workloads client --socket PATH --seed N --seconds S
//                           --trace 0|1
//       3-connection closed-loop load generator against a running
//       `scheduler_cli serve` daemon (the lenet-serve workload)
//   perfbench_workloads probe  --socket PATH --seed N
//       one cold request on a fresh daemon (lenet-serve set-up time)
//   perfbench_workloads layers --workload W --seed N
//       the per-layer set-up and trial replay alone (lenet-serve)
//   perfbench_workloads selftest
//       checks that the record comparison rejects a tampered record
//
// Timed phases never enable util::metrics or util::trace.  --trace 1
// adds a separate traced phase plus a single-threaded replay of the
// workload's cells through the layers' public functions, each call
// timed from here; nothing is instrumented inside the library.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/equivalence.hpp"
#include "fi/record_codec.hpp"
#include "fi/scheduler.hpp"
#include "fi/suite.hpp"
#include "graph/passes.hpp"
#include "models/workload.hpp"
#include "ops/backend.hpp"
#include "ops/cpu_features.hpp"
#include "util/ipc.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "util/trace.hpp"

using namespace rangerpp;
namespace fs = std::filesystem;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- JSON output ------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Insertion-ordered flat JSON object writer.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_quote(key) + ": " + json;
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_quote(v));
  }
  JsonObject& list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? ", " : "") + num(v[i]);
    return raw(key, s + "]");
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_workloads: %s\n", msg.c_str());
  std::exit(2);
}

// ---- Record checks ----------------------------------------------------------

// FNV-1a over the canonical JSONL lines of the sorted records — the
// digest two record streams of one campaign must share.
std::uint64_t records_digest(const std::vector<fi::TrialRecord>& records) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const fi::TrialRecord& r : records)
    for (const char c : fi::trial_record_line(r)) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  return h;
}

struct RecordCheck {
  std::size_t compared = 0;
  std::size_t mismatched = 0;
  std::string first_diff;
};

// Compares records against their reference recomputation.  Under the
// byte tier (scalar, blocked) each record must serialise identically;
// under the simd tier the trial identity (index, input, faults, stratum)
// must match exactly and the SDC verdicts only as a rate, by the
// fi/equivalence Wilson-overlap rule.
RecordCheck compare_records(const std::vector<fi::TrialRecord>& got,
                            const std::vector<fi::TrialRecord>& want,
                            bool tolerance_tier) {
  RecordCheck c;
  if (got.size() != want.size()) {
    c.mismatched = std::max(got.size(), want.size());
    c.first_diff = "record counts differ: " + std::to_string(got.size()) +
                   " vs " + std::to_string(want.size());
    return c;
  }
  std::size_t sdc_got = 0, sdc_want = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ++c.compared;
    fi::TrialRecord a = got[i], b = want[i];
    if (tolerance_tier) {
      sdc_got += a.sdc_mask & 1u;
      sdc_want += b.sdc_mask & 1u;
      a.sdc_mask = b.sdc_mask = 0;
    }
    const std::string la = fi::trial_record_line(a);
    const std::string lb = fi::trial_record_line(b);
    if (la != lb) {
      if (c.mismatched++ == 0) c.first_diff = "got " + la + "want " + lb;
    }
  }
  if (tolerance_tier &&
      !fi::rates_statistically_equal(sdc_got, got.size(), sdc_want,
                                     want.size())) {
    ++c.mismatched;
    if (c.first_diff.empty()) c.first_diff = "SDC rates differ beyond CI";
  }
  return c;
}

// ---- Suite workloads --------------------------------------------------------

struct SuiteWorkload {
  std::string name;
  models::ModelId model{};
  tensor::DType dtype = tensor::DType::kFixed32;
  fi::FaultModelSpec fault;
  std::size_t trials_small = 0;  // per input, before scaled_trials
  std::size_t inputs = 0;
  bool checkpoint = false;  // JSONL checkpoints to a fresh directory
  // Suite workloads build one warm state per seed derived from the run's
  // seed, and requests cycle over them, so a run averages over this many
  // input sets and fault streams.
  std::size_t states = 1;
};

SuiteWorkload suite_workload(const std::string& name) {
  SuiteWorkload w;
  w.name = name;
  if (name == "alexnet-act") {
    w.model = models::ModelId::kAlexNet;
    w.dtype = tensor::DType::kFixed32;
    w.trials_small = 40;  // 320 trials per cell
    w.inputs = 8;
    w.states = 3;
  } else if (name == "resnet18-weight") {
    w.model = models::ModelId::kResNet18;
    w.dtype = tensor::DType::kFixed16;
    w.fault.cls = fi::FaultClass::kWeight;
    w.fault.wkind = fi::WeightFaultKind::kSingleBit;
    // scaled_trials: 800 faults on one input per cell.  Weight-fault cost
    // depends heavily on which layer a fault hits, so the trials go to
    // distinct faults rather than to a wider input sweep.
    w.trials_small = 3200;
    w.inputs = 1;
    w.checkpoint = true;
    w.states = 3;
  } else if (name == "lenet-serve") {
    w.model = models::ModelId::kLeNet;
    w.dtype = tensor::DType::kFixed32;
    w.trials_small = 125;
    w.inputs = 4;
  } else {
    die("unknown workload '" + name + "'");
  }
  return w;
}

fi::SuiteSpec make_spec(const SuiteWorkload& w,
                        std::vector<fi::Technique> techniques,
                        std::uint64_t seed, const std::string& name,
                        const std::string& checkpoint_dir) {
  fi::SuiteSpec spec;
  spec.name = name;
  spec.models = {w.model};
  spec.dtypes = {w.dtype};
  spec.faults = {w.fault};
  spec.techniques = std::move(techniques);
  spec.trials_small = w.trials_small;
  spec.inputs = w.inputs;
  spec.seed = seed;
  spec.checkpoint_dir = checkpoint_dir;
  return spec;
}

// Per-layer set-up timings of one fresh build, all from public calls.
struct SetupSample {
  double workload_s = 0, bounds_s = 0, transform_s = 0;
  double executor_s = 0;            // the unprotected cell's executor
  double protected_executor_s = 0;  // the Ranger cell's executor
  double total() const {
    return workload_s + bounds_s + transform_s + executor_s +
           protected_executor_s;
  }
};

// The TrialExecutor a suite cell builds (Suite::executor's config).
std::unique_ptr<fi::TrialExecutor> build_executor(
    const fi::SuiteSpec& spec, const graph::Graph& g,
    const std::vector<fi::Feeds>& inputs) {
  fi::CampaignConfig ec;
  ec.dtype = spec.dtypes.front();
  ec.threads = spec.threads;
  const unsigned workers = util::worker_count(
      std::max<std::size_t>(1, spec.check_every), spec.threads);
  return std::make_unique<fi::TrialExecutor>(g, ec, inputs, workers);
}

// One warm benchmark state for one seed: the workload cache plus one
// Suite per cell (unprotected first), so the first cell's completion is
// observable from outside Suite::run.
struct SuiteState {
  std::unique_ptr<models::WorkloadCache> cache;
  std::vector<std::unique_ptr<fi::Suite>> suites;  // [unprotected, ranger]
  std::string dir;  // checkpoint directory ("" = in memory)
};

// Builds the state of `seed` from a fresh workload cache (the weight
// files are warm) and times each set-up step from outside.
SuiteState build_state(const SuiteWorkload& w, std::uint64_t seed,
                       const std::string& dir, SetupSample& sample) {
  SuiteState st;
  st.dir = dir;
  models::WorkloadOptions wo;
  wo.eval_inputs = w.inputs;
  wo.seed = seed;
  st.cache = std::make_unique<models::WorkloadCache>(wo);
  const fi::Technique techs[2] = {fi::Technique::kUnprotected,
                                  fi::Technique::kRanger};
  for (const fi::Technique t : techs) {
    const std::string token(fi::technique_token(t));
    const std::string ck =
        st.dir.empty() ? "" : (fs::path(st.dir) / token).string();
    st.suites.push_back(std::make_unique<fi::Suite>(
        make_spec(w, {t}, seed, w.name + "." + token, ck), st.cache.get()));
  }
  auto t0 = Clock::now();
  const models::Workload& wl = st.cache->get(w.model);
  sample.workload_s = seconds_since(t0);
  fi::Suite& ranger = *st.suites[1];
  t0 = Clock::now();
  ranger.bounds(w.model, ops::OpKind::kInput);
  sample.bounds_s = seconds_since(t0);
  t0 = Clock::now();
  const graph::Graph& prot = ranger.protected_graph(w.model, ops::OpKind::kInput);
  sample.transform_s = seconds_since(t0);
  const fi::SuiteSpec& spec = st.suites[0]->plan().spec;
  t0 = Clock::now();
  build_executor(spec, wl.graph, wl.eval_feeds).reset();
  sample.executor_s = seconds_since(t0);
  t0 = Clock::now();
  build_executor(spec, prot, wl.eval_feeds).reset();
  sample.protected_executor_s = seconds_since(t0);
  return st;
}

void clear_dir(const std::string& dir) {
  if (dir.empty()) return;
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::size_t dir_bytes(const std::string& dir) {
  std::size_t total = 0;
  if (dir.empty() || !fs::exists(dir)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

struct RequestLoop {
  std::vector<double> req_ms, first_ms;
  std::size_t trials = 0;
  double wall_s = 0;  // sum of request times (the trial phase)
  std::vector<std::string> errors;
  std::vector<fi::SuiteResult> last;  // per cell suite, last request
  SuiteState* last_state = nullptr;   // the state that served it
};

// Closed loop of requests on warm suites until `seconds` of request time
// (or `max_requests`) accumulate.  Request i runs every cell of state
// i mod states once; checkpointed workloads start each request from
// an empty directory and must execute exactly the planned trials (a
// resumed cell fails).
RequestLoop run_requests(std::vector<SuiteState>& states, double seconds,
                         std::size_t max_requests = 0) {
  RequestLoop loop;
  while (loop.wall_s < seconds &&
         (max_requests == 0 || loop.req_ms.size() < max_requests)) {
    SuiteState& st = states[loop.req_ms.size() % states.size()];
    clear_dir(st.dir);
    std::vector<fi::SuiteResult> results;
    const auto t0 = Clock::now();
    double first_ms = 0;
    for (std::size_t s = 0; s < st.suites.size(); ++s) {
      results.push_back(st.suites[s]->run());
      if (s == 0) first_ms = seconds_since(t0) * 1e3;
    }
    const double ms = seconds_since(t0) * 1e3;
    for (const fi::SuiteResult& r : results)
      for (const fi::SuiteCellResult& c : r.cells) {
        if (c.report.executed() != c.report.planned ||
            c.report.planned != c.cell.total_trials) {
          loop.errors.push_back("cell " + c.cell.id + " executed " +
                                std::to_string(c.report.executed()) + " of " +
                                std::to_string(c.report.planned) + " planned");
        }
        loop.trials += c.report.executed();
      }
    loop.req_ms.push_back(ms);
    loop.first_ms.push_back(first_ms);
    loop.wall_s += ms / 1e3;
    loop.last = std::move(results);
    loop.last_state = &st;
  }
  return loop;
}

// The cell's reference executor config: the simplest path (scalar
// backend, one trial per run, full re-execution).
fi::CampaignConfig reference_config(const fi::SuiteSpec& spec,
                                    const fi::SuiteCell& cell) {
  fi::CampaignConfig cfg = fi::cell_runner_config(spec, cell).campaign;
  cfg.backend = ops::KernelBackend::kScalar;
  cfg.batch = 1;
  cfg.partial_reexecution = false;
  cfg.threads = 1;
  return cfg;
}

// Recomputes a deterministic subsample of a cell's records on the
// reference path and returns them in the same order.
std::vector<fi::TrialRecord> recompute(const fi::SuiteSpec& spec,
                                       const fi::SuiteCell& cell,
                                       const graph::Graph& g,
                                       const models::Workload& wl,
                                       const std::vector<std::uint64_t>& trials) {
  const fi::CampaignConfig cfg = reference_config(spec, cell);
  const fi::RunnerConfig rc = fi::cell_runner_config(spec, cell);
  const fi::TrialPlanner planner(g, cfg, wl.eval_feeds.size(), rc.stratified);
  const fi::TrialExecutor ex(g, cfg, wl.eval_feeds, 1);
  const std::vector<fi::JudgePtr> judges = models::default_judges(cell.model);
  std::vector<fi::TrialRecord> out;
  for (const std::uint64_t t : trials) {
    const fi::TrialSpec ts = planner.plan(t);
    const tensor::Tensor y =
        cfg.fault_class == fi::FaultClass::kWeight
            ? ex.run_weight_trial(0, ts.input, ex.patch_consts(ts.applied))
            : ex.run_trial(0, ts.input, ts.faults);
    fi::TrialRecord r;
    r.trial = t;
    r.input = static_cast<std::uint32_t>(ts.input);
    r.faults = ts.faults;
    r.stratum = planner.stratum_key(ts.stratum);
    for (std::size_t j = 0; j < judges.size(); ++j)
      if (judges[j]->is_sdc(ex.golden_output(ts.input), y)) r.sdc_mask |= 1u << j;
    out.push_back(std::move(r));
  }
  return out;
}

struct Verdict {
  std::size_t checked = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  void fail(const std::string& e) {
    ++failed;
    errors.push_back(e);
  }
};

// The untimed outside check of one request's cells: a subsample of each
// cell recomputed on the reference path, and the paper's direction —
// the unprotected cell shows SDCs, the Ranger cell fewer.
void check_suite_results(SuiteState& st, const SuiteWorkload& w,
                         const std::vector<fi::SuiteResult>& results,
                         std::uint64_t seed, Verdict& v) {
  const bool tolerance = ops::default_backend() == ops::KernelBackend::kSimd;
  const models::Workload& wl = st.cache->get(w.model);
  std::size_t sdcs[2] = {0, 0};
  for (std::size_t s = 0; s < results.size(); ++s) {
    for (const fi::SuiteCellResult& c : results[s].cells) {
      const fi::SuiteSpec& spec = results[s].plan.spec;
      const graph::Graph& g =
          c.cell.technique == fi::Technique::kUnprotected
              ? wl.graph
              : st.suites[s]->protected_graph(w.model, ops::OpKind::kInput);
      sdcs[s] += c.report.aggregate.empty() ? 0 : c.report.aggregate[0].sdcs;
      util::Rng rng(util::derive_seed(seed ^ 0x636865636bULL, s));
      std::vector<std::uint64_t> picks;
      std::vector<fi::TrialRecord> got;
      const std::size_t n = c.report.records.size();
      for (std::size_t k = 0; k < std::min<std::size_t>(8, n); ++k) {
        const fi::TrialRecord& r = c.report.records[rng.uniform_index(n)];
        picks.push_back(r.trial);
        got.push_back(r);
      }
      const RecordCheck rc =
          compare_records(got, recompute(spec, c.cell, g, wl, picks), tolerance);
      v.checked += rc.compared;
      if (rc.mismatched)
        v.fail("cell " + c.cell.id + ": " + std::to_string(rc.mismatched) +
               " record(s) differ from the reference path; " + rc.first_diff);
    }
  }
  ++v.checked;
  if (sdcs[0] == 0) v.fail("unprotected cell recorded 0 SDCs");
  ++v.checked;
  if (sdcs[1] >= sdcs[0])
    v.fail("ranger cell SDCs (" + std::to_string(sdcs[1]) +
           ") not below unprotected (" + std::to_string(sdcs[0]) + ")");
}

// ---- Per-layer replay -------------------------------------------------------

struct LayerReplay {
  std::vector<double> plan_us, judge_us, trial_us, weight_trial_us,
      patch_us;
};

// Replays a cell's trial stream single-threaded through the executor's
// public entry points, timing each layer call, for about `budget_s`.
void replay_cell(const fi::SuiteSpec& spec, const fi::SuiteCell& cell,
                 const graph::Graph& g, const models::Workload& wl,
                 const fi::TrialExecutor& ex, double budget_s,
                 LayerReplay& out) {
  const fi::RunnerConfig rc = fi::cell_runner_config(spec, cell);
  const fi::TrialPlanner planner(g, rc.campaign, wl.eval_feeds.size(),
                                 rc.stratified);
  const std::vector<fi::JudgePtr> judges = models::default_judges(cell.model);
  const bool weight = rc.campaign.fault_class == fi::FaultClass::kWeight;
  const std::size_t total = planner.total_trials();
  const std::size_t n_inputs = wl.eval_feeds.size();
  const auto us = [](Clock::time_point t0) { return seconds_since(t0) * 1e6; };
  const auto judge = [&](std::size_t input, const tensor::Tensor& y) {
    for (const fi::JudgePtr& j : judges) {
      const auto t0 = Clock::now();
      (void)j->is_sdc(ex.golden_output(input), y);
      out.judge_us.push_back(us(t0));
    }
  };
  const auto start = Clock::now();
  std::size_t t = 0;
  while (t < total && seconds_since(start) < budget_s) {
    if (weight) {
      // One persistent fault patched once, swept over its inputs.
      std::vector<fi::TrialSpec> specs;
      for (std::size_t i = 0; i < n_inputs && t < total; ++i, ++t) {
        const auto t0 = Clock::now();
        specs.push_back(planner.plan(t));
        out.plan_us.push_back(us(t0));
      }
      auto t0 = Clock::now();
      const auto patch = ex.patch_consts(specs.front().applied);
      out.patch_us.push_back(us(t0));
      for (const fi::TrialSpec& ts : specs) {
        t0 = Clock::now();
        const tensor::Tensor y = ex.run_weight_trial(0, ts.input, patch);
        out.weight_trial_us.push_back(us(t0));
        judge(ts.input, y);
      }
      continue;
    }
    // Same-input groups of up to batch() trials ride one batched run.
    std::vector<fi::TrialSpec> specs;
    std::vector<fi::FaultSet> faults;
    const std::size_t input = t / rc.campaign.trials_per_input;
    while (specs.size() < ex.batch() && t < total &&
           t / rc.campaign.trials_per_input == input) {
      const auto t0 = Clock::now();
      specs.push_back(planner.plan(t++));
      out.plan_us.push_back(us(t0));
      faults.push_back(specs.back().faults);
    }
    const auto t0 = Clock::now();
    std::vector<tensor::Tensor> ys;
    if (ex.batch() > 1) {
      ys = ex.run_trial_batch(0, input, faults);
    } else {
      for (const fi::FaultSet& f : faults) ys.push_back(ex.run_trial(0, input, f));
    }
    const double per_trial = us(t0) / static_cast<double>(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out.trial_us.push_back(per_trial);
      judge(input, ys[i]);
    }
  }
}

// Times the record codec over `records` until `budget_s` accumulates.
std::pair<double, double> codec_us_per_record(
    const std::vector<fi::TrialRecord>& records, double budget_s) {
  if (records.empty()) return {0.0, 0.0};
  double enc_s = 0, dec_s = 0;
  std::size_t n = 0;
  while (enc_s + dec_s < budget_s) {
    auto t0 = Clock::now();
    const std::string bytes = fi::encode_records(records);
    enc_s += seconds_since(t0);
    t0 = Clock::now();
    const auto back = fi::decode_records(bytes);
    dec_s += seconds_since(t0);
    if (back.size() != records.size()) die("codec round trip lost records");
    n += records.size();
  }
  return {enc_s * 1e6 / static_cast<double>(n),
          dec_s * 1e6 / static_cast<double>(n)};
}

// Multi-line JSON text (the registry snapshot, the stats reply) folded
// onto one line so the program's output stays one JSON line.
std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

// Per-layer set-up metrics: medians of the set-up samples (each step
// one public call), plus one compile of the unprotected graph.
void layer_setup(const SuiteWorkload& w, SuiteState& st,
                 const std::vector<SetupSample>& samples, JsonObject& layers) {
  std::vector<double> build_s, bounds_s, transform_s, exec_s;
  for (const SetupSample& x : samples) {
    build_s.push_back(x.workload_s);
    bounds_s.push_back(x.bounds_s);
    transform_s.push_back(x.transform_s);
    exec_s.push_back(x.executor_s);
  }
  graph::CompileOptions co;
  co.dtype = w.dtype;
  const auto t0 = Clock::now();
  const graph::ExecutionPlan plan = graph::compile(st.cache->get(w.model).graph, co);
  const double compile_s = seconds_since(t0);
  layers.add("models.workload_build_s", median(build_s))
      .add("core.bounds_s", median(bounds_s))
      .add("core.transform_s", median(transform_s))
      .add("graph.compile_s", compile_s)
      .add("graph.peak_arena_bytes",
           static_cast<double>(plan.report()->peak_arena_bytes))
      .add("fi.executor_build_s", median(exec_s));
}

// Single-threaded per-call replay of the state's cells (see replay_cell).
void layer_trial_replay(SuiteState& st, const SuiteWorkload& w,
                        double budget_s, JsonObject& layers) {
  const models::Workload& wl = st.cache->get(w.model);
  LayerReplay lr;
  for (std::size_t s = 0; s < st.suites.size(); ++s) {
    const fi::SuitePlan& plan = st.suites[s]->plan();
    const fi::SuiteCell& cell = plan.cells.front();
    const graph::Graph& g =
        cell.technique == fi::Technique::kUnprotected
            ? wl.graph
            : st.suites[s]->protected_graph(w.model, ops::OpKind::kInput);
    const auto ex = build_executor(plan.spec, g, wl.eval_feeds);
    replay_cell(plan.spec, cell, g, wl, *ex, budget_s / 2, lr);
  }
  layers.add("fi.plan_us", median(lr.plan_us))
      .add("fi.judge_us", median(lr.judge_us))
      .add("exec.trial_us", median(lr.trial_us))
      .add("exec.weight_trial_us", median(lr.weight_trial_us))
      .add("fi.patch_consts_us", median(lr.patch_us));
}

std::vector<fi::TrialRecord> all_records(const std::vector<fi::SuiteResult>& rs) {
  std::vector<fi::TrialRecord> out;
  for (const fi::SuiteResult& r : rs)
    for (const fi::SuiteCellResult& c : r.cells)
      out.insert(out.end(), c.report.records.begin(), c.report.records.end());
  return out;
}

struct Common {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string socket;
};

std::string host_json(const Common& c) {
  JsonObject h;
  h.add("nproc", std::thread::hardware_concurrency())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("backend", std::string(ops::backend_name(ops::default_backend())))
      .str("simd_level", std::string(ops::simd_level_name(ops::simd_level())))
      .add("seed", static_cast<double>(c.seed));
  return h.dump();
}

// Set-up, once per derived seed from a cold in-memory state with a warm
// weight cache, then one untimed warm-up request per state (it builds the
// suites' own executors).
std::vector<SuiteState> set_up(const SuiteWorkload& w, std::uint64_t seed,
                               const std::string& ckpt_root,
                               std::vector<SetupSample>& samples,
                               Verdict& v) {
  std::vector<SuiteState> states;
  for (std::size_t k = 0; k < w.states; ++k) {
    SetupSample sample;
    const std::string dir =
        ckpt_root.empty() ? "" : (fs::path(ckpt_root) / std::to_string(k)).string();
    states.push_back(
        build_state(w, util::derive_seed(seed, k), dir, sample));
    samples.push_back(sample);
  }
  RequestLoop warm = run_requests(states, 0.0, states.size());
  for (const std::string& e : warm.errors) v.fail(e);
  return states;
}

int run_suite(const Common& c) {
  const SuiteWorkload w = suite_workload(c.workload);
  const std::string ck = w.checkpoint ? (fs::path(c.dir) / "ckpt").string() : "";
  JsonObject out;
  out.str("workload", w.name).raw("host", host_json(c));
  Verdict v;
  std::vector<SetupSample> samples;
  std::vector<SuiteState> states = set_up(w, c.seed, ck, samples, v);
  std::vector<double> setup_s;
  for (const SetupSample& x : samples) setup_s.push_back(x.total());
  out.list("setup_s", setup_s);

  if (!c.trace) {
    RequestLoop loop = run_requests(states, c.seconds);
    out.list("req_ms", loop.req_ms)
        .list("first_ms", loop.first_ms)
        .add("trials", static_cast<double>(loop.trials))
        .add("trial_wall_s", loop.wall_s)
        .add("requests", static_cast<double>(loop.req_ms.size()));
    for (const std::string& e : loop.errors) v.fail(e);
    v.checked += loop.req_ms.size();
    if (!loop.last_state) die("no request ran");
    check_suite_results(*loop.last_state, w, loop.last, c.seed, v);
  } else {
    // Tracing overhead: the same requests untraced, then traced.
    RequestLoop plain = run_requests(states, c.seconds / 3);
    util::metrics::reset();
    util::metrics::set_enabled(true);
    const std::string trace_path = (fs::path(c.dir) / "trace.json").string();
    if (!util::trace::start(trace_path, 1 << 17)) die("cannot start tracing");
    RequestLoop traced = run_requests(states, 1e9, plain.req_ms.size());
    util::trace::stop_and_flush();
    util::metrics::set_enabled(false);
    for (const std::string& e : plain.errors) v.fail(e);
    for (const std::string& e : traced.errors) v.fail(e);
    v.checked += plain.req_ms.size() + traced.req_ms.size();
    if (!traced.last_state) die("no request ran");
    const std::size_t ckpt_bytes = dir_bytes(traced.last_state->dir);
    check_suite_results(*traced.last_state, w, traced.last, c.seed, v);

    out.list("first_ms", plain.first_ms)
        .add("untraced_trials_per_s", plain.trials / plain.wall_s)
        .add("traced_trials_per_s", traced.trials / traced.wall_s)
        .add("traced_trials", static_cast<double>(traced.trials))
        .add("traced_wall_s", traced.wall_s)
        .add("threads", util::worker_count(1u << 20, 0))
        .str("trace_file", trace_path)
        .raw("registry", one_line(util::metrics::snapshot_json()));
    JsonObject layers;
    const std::vector<fi::TrialRecord> last = all_records(traced.last);
    layers.add("fi.checkpoint_bytes_per_trial",
               last.empty() ? 0.0 : static_cast<double>(ckpt_bytes) / last.size());
    const auto [enc, dec] = codec_us_per_record(last, 0.2);
    layers.add("codec.encode_us_per_record", enc)
        .add("codec.decode_us_per_record", dec);
    layer_setup(w, states.front(), samples, layers);
    layer_trial_replay(states.front(), w, 2.0, layers);
    out.raw("layers", layers.dump());
  }
  out.add("peak_rss_mb", peak_rss_mb())
      .add("checked", static_cast<double>(v.checked))
      .add("failed", static_cast<double>(v.failed));
  std::string errs = "[";
  for (std::size_t i = 0; i < v.errors.size(); ++i)
    errs += (i ? ", " : "") + json_quote(v.errors[i]);
  out.raw("errors", errs + "]");
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---- lenet-serve load generator --------------------------------------------

constexpr std::uint8_t kSubmit = 'S', kPlan = 'P', kHeader = 'H',
                       kRecords = 'R', kDone = 'D', kError = 'E',
                       kStats = 'M', kStatusText = 'T';

struct ServeRequest {
  std::uint64_t seed = 0;
  bool cold = false;
  bool ok = false;
  std::string error;
  double submit_s = 0, plan_s = -1, first_s = -1, done_s = -1;
  std::size_t frames = 0, bytes = 0;
  std::size_t records = 0, planned = 0;
  std::vector<std::uint64_t> digests;  // per cell, over sorted records
};

std::optional<std::string> query_stats(const std::string& socket) {
  util::ipc::Conn conn = util::ipc::connect_unix(socket);
  if (!conn.valid() || !conn.send_frame(kStats, "")) return std::nullopt;
  std::uint8_t type = 0;
  std::string payload;
  if (!conn.recv_frame(type, payload) || type != kStatusText) return std::nullopt;
  return one_line(payload);
}

// One request on its own connection: submit, then read frames until
// the 'D' done frame, timestamping each protocol milestone.
ServeRequest serve_request(const std::string& socket, const fi::SuiteSpec& spec,
                           Clock::time_point epoch,
                           std::vector<fi::TrialRecord>* keep) {
  ServeRequest r;
  r.seed = spec.seed;
  const fi::SuitePlan plan = fi::compile_suite(spec);
  r.planned = plan.total_trials;
  std::vector<std::vector<fi::TrialRecord>> cells(plan.cells.size());
  util::ipc::Conn conn = util::ipc::connect_unix(socket);
  const std::string payload = fi::serialize_suite_spec(spec);
  r.submit_s = seconds_since(epoch);
  if (!conn.valid() || !conn.send_frame(kSubmit, payload)) {
    r.error = "cannot submit";
    return r;
  }
  r.frames = 1;
  r.bytes = 5 + payload.size();
  std::uint8_t type = 0;
  std::string frame;
  while (conn.recv_frame(type, frame)) {
    const double t = seconds_since(epoch);
    ++r.frames;
    r.bytes += 5 + frame.size();
    if (type == kPlan) {
      r.plan_s = t;
    } else if (type == kHeader) {
      // cell index + stream header; nothing to keep
    } else if (type == kRecords) {
      if (r.first_s < 0) r.first_s = t;
      if (frame.size() < 4) {
        r.error = "short records frame";
        return r;
      }
      std::uint32_t ci = 0;
      std::memcpy(&ci, frame.data(), 4);  // little-endian hosts only
      if (ci >= cells.size()) {
        r.error = "record frame for unknown cell";
        return r;
      }
      auto batch = fi::decode_records(std::string_view(frame).substr(4));
      r.records += batch.size();
      cells[ci].insert(cells[ci].end(), batch.begin(), batch.end());
    } else if (type == kDone) {
      r.done_s = t;
      if (frame.find(" done ") == std::string::npos) {
        r.error = "request settled as: " + frame;
        return r;
      }
      break;
    } else if (type == kError) {
      r.error = "server error: " + frame;
      return r;
    } else {
      r.error = "unexpected frame type";
      return r;
    }
  }
  if (r.done_s < 0) {
    r.error = "connection lost mid-stream";
    return r;
  }
  for (auto& recs : cells) {
    const std::size_t raw = recs.size();
    recs = fi::sort_unique_records(std::move(recs));
    if (recs.size() != raw) r.error = "duplicate records streamed";
    r.digests.push_back(records_digest(recs));
    if (keep) keep->insert(keep->end(), recs.begin(), recs.end());
  }
  if (r.records != r.planned)
    r.error = "streamed " + std::to_string(r.records) + " of " +
              std::to_string(r.planned) + " planned trials";
  r.ok = r.error.empty();
  return r;
}

// Warm requests rotate over kWarmSeeds shared seeds, each warmed by an
// untimed request, so a run averages over several input sets.
// kColdPerSecond requests per second of window run on fresh seeds
// (cold caches; 16 in a 25 s run), paced evenly
// over the window so every run sees the same cold load whatever its
// request rate.  The count is fixed because every daemon-side cache
// lives as long as the daemon: each fresh seed adds about 16 MB, and a
// per-request share would make peak RSS track the request rate.  A cold
// build holds the workers it lands on, so about a fifth of the window
// runs behind one: p95 falls among the cold and the delayed requests,
// while the medians stay clear of them.  (With 8 cold requests the
// delayed ones fell below 5% in some runs and p95 left them.)
constexpr std::size_t kWarmSeeds = 4;
constexpr double kColdPerSecond = 0.64;
constexpr std::uint64_t kThinkUs = 30000;  // think time drawn from [0, 30 ms)

std::uint64_t serve_warm_seed(std::uint64_t seed, std::size_t j) {
  return util::derive_seed(seed, 0x5e47e + j);
}

const std::vector<fi::Technique> kServeTechniques = {
    fi::Technique::kUnprotected, fi::Technique::kRanger};

// Set-up probe: one request of the shared seed on a just-started daemon;
// the time from submit to its first records frame is the cold build
// (workload, bounds, transform, compile, goldens) plus the first slice.
int run_probe(const Common& c) {
  const SuiteWorkload w = suite_workload("lenet-serve");
  const auto epoch = Clock::now();
  const ServeRequest r = serve_request(
      c.socket,
      make_spec(w, kServeTechniques, serve_warm_seed(c.seed, 0),
                "probe" + std::to_string(getpid()), ""),
      epoch, nullptr);
  if (!r.ok) die("probe request failed: " + r.error);
  JsonObject out;
  out.add("first_record_s", r.first_s - r.submit_s)
      .add("done_s", r.done_s - r.submit_s);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int run_client(const Common& c) {
  const SuiteWorkload w = suite_workload("lenet-serve");
  const std::vector<fi::Technique>& techs = kServeTechniques;
  const std::uint64_t cold_base = util::derive_seed(c.seed, 0xc01d);
  const std::string tag = std::to_string(c.seed) + "." + std::to_string(getpid());
  // Request k runs on cold seed `cold_index`, or on a warm seed.
  const auto spec_for = [&](std::size_t k, std::optional<std::size_t> cold_index) {
    const std::uint64_t seed = cold_index
                                   ? util::derive_seed(cold_base, *cold_index)
                                   : serve_warm_seed(c.seed, k % kWarmSeeds);
    return make_spec(w, techs, seed, "r" + tag + "." + std::to_string(k), "");
  };
  JsonObject out;
  out.str("workload", "lenet-serve").raw("host", host_json(c));
  const auto epoch = Clock::now();

  // Untimed warm-up of the shared seeds' workloads, bounds and executors
  // (the first is already warm when run.py's set-up probe ran on this
  // daemon).
  std::vector<fi::TrialRecord> warm_records;
  std::vector<ServeRequest> warm;
  Verdict v;
  for (std::size_t j = 0; j < kWarmSeeds; ++j) {
    warm.push_back(serve_request(
        c.socket,
        make_spec(w, techs, serve_warm_seed(c.seed, j),
                  "w" + tag + "." + std::to_string(j), ""),
        epoch, j == 0 ? &warm_records : nullptr));
    if (!warm.back().ok) v.fail("warm-up request: " + warm.back().error);
  }

  const std::optional<std::string> stats0 = query_stats(c.socket);
  std::vector<ServeRequest> done;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> colds{0};
  const std::size_t n_cold = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(c.seconds * kColdPerSecond)));
  const double start_s = seconds_since(epoch);
  const double deadline = start_s + c.seconds;
  std::vector<std::thread> clients;
  for (std::uint64_t i = 0; i < 3; ++i)
    clients.emplace_back([&, i] {
      // A seeded think time between a client's requests keeps the three
      // clients from locking into one arrival phase.
      util::Rng think(util::derive_seed(c.seed, 0x7417 + i));
      while (seconds_since(epoch) < deadline) {
        const std::size_t k = next.fetch_add(1);
        // Cold request j is due once (j + 1)/n_cold of the window passed.
        std::optional<std::size_t> cold_index;
        const double due = (seconds_since(epoch) - start_s) / c.seconds * n_cold;
        std::size_t j = colds.load();
        while (static_cast<double>(j) + 1 <= due && j < n_cold) {
          if (colds.compare_exchange_weak(j, j + 1)) {
            cold_index = j;
            break;
          }
        }
        ServeRequest r;
        try {
          r = serve_request(c.socket, spec_for(k, cold_index), epoch, nullptr);
        } catch (const std::exception& e) {
          r.error = std::string("malformed reply: ") + e.what();
        }
        r.cold = cold_index.has_value();
        {
          std::lock_guard<std::mutex> lk(mu);
          done.push_back(std::move(r));
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(think.uniform_index(kThinkUs)));
      }
    });
  for (std::thread& t : clients) t.join();
  const std::optional<std::string> stats1 = query_stats(c.socket);

  double end_s = start_s;
  std::size_t streamed = 0;
  std::vector<double> req_ms, first_ms, warm_ms, cold_ms, submit_ms, queue_ms,
      stream_ms, frames, bytes;
  for (const ServeRequest& r : done) {
    v.checked += 1;
    if (!r.ok) {
      v.fail("request: " + r.error);
      continue;
    }
    end_s = std::max(end_s, r.done_s);
    streamed += r.records;
    const double total = (r.done_s - r.submit_s) * 1e3;
    req_ms.push_back(total);
    first_ms.push_back((r.first_s - r.submit_s) * 1e3);
    (r.cold ? cold_ms : warm_ms).push_back(total);
    submit_ms.push_back((r.plan_s - r.submit_s) * 1e3);
    queue_ms.push_back((r.first_s - r.plan_s) * 1e3);
    stream_ms.push_back((r.done_s - r.first_s) * 1e3);
    frames.push_back(static_cast<double>(r.frames));
    bytes.push_back(static_cast<double>(r.bytes));
  }

  // Outside correctness check: every request's per-cell record digests
  // against an in-process fi::Suite run of the same spec (one reference
  // per distinct seed; the request name does not enter the records).
  std::map<std::uint64_t, std::vector<std::uint64_t>> reference;
  const auto reference_for = [&](std::uint64_t seed) {
    auto it = reference.find(seed);
    if (it != reference.end()) return it->second;
    fi::Suite suite(make_spec(w, techs, seed, "ref", ""));
    const fi::SuiteResult res = suite.run();
    std::vector<std::uint64_t> d;
    for (const fi::SuiteCellResult& cr : res.cells)
      d.push_back(records_digest(cr.report.records));
    if (res.cells.size() == 2) {
      const std::size_t u = res.cells[0].report.aggregate[0].sdcs;
      const std::size_t g = res.cells[1].report.aggregate[0].sdcs;
      ++v.checked;
      if (u == 0 || g >= u)
        v.fail("seed " + std::to_string(seed) + ": unprotected SDCs " +
               std::to_string(u) + ", ranger SDCs " + std::to_string(g));
    }
    return reference.emplace(seed, d).first->second;
  };
  const auto check = [&](const ServeRequest& r) {
    if (!r.ok) return;
    ++v.checked;
    if (r.digests != reference_for(r.seed))
      v.fail("request with seed " + std::to_string(r.seed) +
             ": records differ from the in-process suite run");
  };
  for (const ServeRequest& r : warm) check(r);
  for (const ServeRequest& r : done) check(r);

  out.list("req_ms", req_ms)
      .list("first_ms", first_ms)
      .add("trials", static_cast<double>(streamed))
      .add("trial_wall_s", end_s - start_s)
      .add("requests", static_cast<double>(req_ms.size()));
  if (c.trace) {
    JsonObject layers;
    layers.add("sched.submit_ms", median(submit_ms))
        .add("sched.queue_wait_ms", median(queue_ms))
        .add("sched.stream_ms", median(stream_ms))
        .add("sched.warm_req_p50_ms", median(warm_ms))
        .add("sched.cold_req_p50_ms", median(cold_ms))
        .add("ipc.frames_per_req", median(frames))
        .add("ipc.bytes_per_req", median(bytes));
    const auto [enc, dec] = codec_us_per_record(warm_records, 0.2);
    layers.add("codec.encode_us_per_record", enc)
        .add("codec.decode_us_per_record", dec);
    out.raw("layers", layers.dump())
        .raw("stats_begin", stats0 ? *stats0 : "null")
        .raw("stats_end", stats1 ? *stats1 : "null");
  }
  out.add("checked", static_cast<double>(v.checked))
      .add("failed", static_cast<double>(v.failed));
  std::string errs = "[";
  for (std::size_t i = 0; i < v.errors.size() && i < 20; ++i)
    errs += (i ? ", " : "") + json_quote(v.errors[i]);
  out.raw("errors", errs + "]");
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// Per-layer replay of the lenet-serve cells in this process (the daemon
// runs the same library calls; timing them here keeps the daemon
// uninstrumented).
int run_layers(const Common& c) {
  const SuiteWorkload w = suite_workload(c.workload);
  const std::uint64_t seed =
      c.workload == "lenet-serve" ? serve_warm_seed(c.seed, 0) : c.seed;
  std::vector<SetupSample> samples(3);
  std::vector<SuiteState> states;
  for (SetupSample& x : samples) states.push_back(build_state(w, seed, "", x));
  JsonObject layers;
  layer_setup(w, states.back(), samples, layers);
  layer_trial_replay(states.back(), w, 2.0, layers);
  std::printf("%s\n", layers.dump().c_str());
  return 0;
}

int run_prepare() {
  // Fixed seed: the weight files must not depend on the benchmark seed
  // (the cache is keyed by model and activation only).
  for (const models::ModelId id :
       {models::ModelId::kLeNet, models::ModelId::kAlexNet,
        models::ModelId::kResNet18}) {
    models::WorkloadOptions wo;
    wo.seed = 2021;
    const auto t0 = Clock::now();
    (void)models::make_workload(id, wo);
    std::fprintf(stderr, "perfbench_workloads: %s ready in %.1f s\n",
                 models::model_name(id).c_str(), seconds_since(t0));
  }
  return 0;
}

int run_selftest() {
  std::vector<fi::TrialRecord> want(3);
  for (std::size_t i = 0; i < want.size(); ++i) {
    want[i].trial = i;
    want[i].stratum = "conv1:b0-7";
    want[i].sdc_mask = i == 1 ? 1u : 0u;
  }
  int bad = 0;
  if (compare_records(want, want, false).mismatched != 0) {
    std::fprintf(stderr, "selftest: identical records rejected\n");
    ++bad;
  }
  std::vector<fi::TrialRecord> got = want;
  got[2].sdc_mask ^= 1u;
  const RecordCheck rc = compare_records(got, want, false);
  if (rc.mismatched != 1) {
    std::fprintf(stderr, "selftest: tampered verdict not rejected\n");
    ++bad;
  }
  got = want;
  got[0].input = 7;
  if (compare_records(got, want, true).mismatched == 0) {
    std::fprintf(stderr, "selftest: tampered input passed the simd tier\n");
    ++bad;
  }
  if (records_digest(got) == records_digest(want)) {
    std::fprintf(stderr, "selftest: digest ignores a tampered record\n");
    ++bad;
  }
  std::printf("selftest %s\n", bad ? "FAILED" : "ok");
  return bad ? 1 : 0;
}

Common parse_flags(int argc, char** argv) {
  Common c;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") c.workload = value();
    else if (arg == "--seed") c.seed = std::stoull(value());
    else if (arg == "--seconds") c.seconds = std::stod(value());
    else if (arg == "--trace") c.trace = value() == "1";
    else if (arg == "--dir") c.dir = value();
    else if (arg == "--socket") c.socket = value();
    else die("unknown flag " + arg);
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  die("refusing a Debug build: debug compiles run verify_plan on every plan");
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug")
    die("refusing a Debug build: debug compiles run verify_plan on every plan");
  if (argc < 2) die("usage: perfbench_workloads prepare|suite|client|probe|layers|selftest ...");
  const std::string mode = argv[1];
  try {
    const Common c = parse_flags(argc, argv);
    if (mode == "prepare") return run_prepare();
    if (mode == "selftest") return run_selftest();
    if (mode == "suite") return run_suite(c);
    if (mode == "client") return run_client(c);
    if (mode == "probe") return run_probe(c);
    if (mode == "layers") return run_layers(c);
  } catch (const std::exception& e) {
    die(std::string("error: ") + e.what());
  }
  die("unknown mode '" + mode + "'");
}
