// Shared plumbing for the bench binaries.  Every bench regenerates one
// table or figure of the paper and prints the same rows/series the paper
// reports (see EXPERIMENTS.md for the side-by-side comparison).
//
// Environment knobs:
//   RANGERPP_TRIALS    — trials per input for small models (default 1000;
//                        large ImageNet-scale models get a quarter of this).
//   RANGERPP_INPUTS    — FI inputs per model (default 8; paper uses 10).
//   RANGERPP_SEED      — campaign seed (default 2021).
//   RANGERPP_SHARD     — "i/N": run only trials t with t % N == i (shard
//                        of the deterministic trial stream; the union of
//                        all shards equals the unsharded run).
//   RANGERPP_BENCH_DIR — directory for BENCH_*.json artifacts (default:
//                        current working directory).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/runner.hpp"
#include "fi/suite.hpp"
#include "models/workload.hpp"
#include "ops/backend.hpp"
#include "util/env.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace rangerpp::bench {

using util::env_size;

struct BenchConfig {
  std::size_t trials_small = env_size("RANGERPP_TRIALS", 1000);
  std::size_t inputs = env_size("RANGERPP_INPUTS", 8);
  std::uint64_t seed = env_size("RANGERPP_SEED", 2021);
  // RANGERPP_SHARD=i/N distributes a figure's campaigns across machines.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  BenchConfig() {
    // Benches always run with the metrics registry live so
    // emit_bench_json can embed the run's counters (cache hit rates,
    // kernel dispatch counts) next to its timing numbers.  Telemetry is
    // a pure observer: campaign results are unaffected.
    util::metrics::set_enabled(true);
    if (const char* s = std::getenv("RANGERPP_SHARD")) {
      if (const auto spec = util::parse_shard_spec(s)) {
        shard_index = spec->index;
        shard_count = spec->count;
      } else {
        std::fprintf(stderr, "bench: bad RANGERPP_SHARD=%s "
                             "(want i/N with i < N)\n", s);
        std::exit(2);
      }
    }
  }

  bool sharded() const { return shard_count > 1; }

  // The shared suite/bench trial-count rule (ImageNet-scale models run a
  // quarter of the small-model count, as in the paper).
  std::size_t trials_for(models::ModelId id) const {
    return models::scaled_trials(id, trials_small);
  }
};

// The fi::SuiteSpec equivalent of this bench environment: same trial
// scaling, inputs, seed and (suite-level) sharding, so a bench ported
// onto the suite draws the identical deterministic trial streams its
// standalone campaigns would.
inline fi::SuiteSpec suite_spec_from_env(const BenchConfig& cfg,
                                         std::string name) {
  fi::SuiteSpec spec;
  spec.name = std::move(name);
  spec.trials_small = cfg.trials_small;
  spec.inputs = cfg.inputs;
  spec.seed = cfg.seed;
  spec.shard_index = cfg.shard_index;
  spec.shard_count = cfg.shard_count;
  return spec;
}

// Builds the workload + its Ranger-protected twin with 100th-percentile
// (conservative) bounds.
struct ProtectedWorkload {
  models::Workload base;
  core::Bounds bounds;
  graph::Graph protected_graph;
  core::TransformStats transform_stats;
  double profiling_seconds = 0.0;
};

inline ProtectedWorkload make_protected(models::ModelId id,
                                        const BenchConfig& cfg,
                                        ops::OpKind act = ops::OpKind::kInput,
                                        double percentile = 100.0) {
  ProtectedWorkload pw;
  models::WorkloadOptions wo;
  wo.act = act;
  wo.eval_inputs = cfg.inputs;
  wo.seed = cfg.seed;
  pw.base = models::make_workload(id, wo);

  util::Timer timer;
  core::ProfileOptions po;
  po.percentile = percentile;
  pw.bounds = core::RangeProfiler{po}.derive_bounds(pw.base.graph,
                                                    pw.base.profile_feeds);
  pw.profiling_seconds = timer.elapsed_seconds();

  core::RangerTransform transform;
  pw.protected_graph = transform.apply(pw.base.graph, pw.bounds);
  pw.transform_stats = transform.last_stats();
  return pw;
}

// Per-judge SDC counts of an in-memory campaign of `cc` on `g`: the one
// trial loop (fi::CampaignRunner), unsharded and without a checkpoint.
inline std::vector<fi::CampaignResult> campaign_results(
    const fi::CampaignConfig& cc, const graph::Graph& g,
    const std::vector<fi::Feeds>& inputs,
    const std::vector<fi::JudgePtr>& judges) {
  fi::RunnerConfig rc;
  rc.campaign = cc;
  return fi::CampaignRunner(rc).run(g, inputs, judges).aggregate;
}

// One standalone SDC campaign (the suite runs the figure grids): the
// CampaignRunner over the model's default judges.  With RANGERPP_SHARD
// unset this executes the whole deterministic trial stream; with it set,
// this process contributes its shard and the printed rates are the
// shard's estimate.
inline fi::CampaignReport run_sdc_campaign(const graph::Graph& g,
                                           const models::Workload& base,
                                           const BenchConfig& cfg,
                                           tensor::DType dtype) {
  fi::RunnerConfig rc;
  rc.campaign.dtype = dtype;
  rc.campaign.trials_per_input = cfg.trials_for(base.id);
  rc.campaign.seed = cfg.seed;
  rc.shard_index = cfg.shard_index;
  rc.shard_count = cfg.shard_count;
  rc.label = models::model_name(base.id);
  return fi::CampaignRunner(rc).run(g, base.eval_feeds,
                                    models::default_judges(base.id));
}

// The Fig 11/12 fault axis: 2-5 independent bit flips per trial.
inline std::vector<fi::FaultModelSpec> multibit_faults() {
  std::vector<fi::FaultModelSpec> faults;
  for (int bits = 2; bits <= 5; ++bits) {
    fi::FaultModelSpec f;
    f.n_bits = bits;
    faults.push_back(f);
  }
  return faults;
}

// Wilson centre ± half-width — the one formatter the suite report layer
// and the remaining standalone benches share (fi::pct_pm), so the
// "suite tables == bench tables" contract cannot drift on formatting.
inline std::string pct_pm(const fi::CampaignResult& r) {
  return fi::pct_pm(r);
}

// Banner for sharded figure runs, so partial rates are never mistaken for
// full-campaign numbers.
inline void print_shard_note(const BenchConfig& cfg) {
  if (cfg.sharded())
    std::printf("NOTE: RANGERPP_SHARD=%zu/%zu — rates below estimate from "
                "this shard's trials only.\n\n",
                cfg.shard_index, cfg.shard_count);
}

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("\n=== %s ===\n(reproduces %s)\n\n", experiment, paper_ref);
}

// Machine-readable timing artifact: writes BENCH_<name>.json into
// $RANGERPP_BENCH_DIR (default: the working directory) so CI can track
// bench metrics (e.g. the campaign speedup) across PRs without the
// binaries littering the source tree.  Metrics are flat name -> number
// pairs; a `host` block (hardware_concurrency, kernel backend, seed,
// trial counts) makes artifacts from different machines comparable —
// throughput numbers like the conv blocked-vs-scalar speedup are
// host-dependent even though results are not.  Pass the bench's own
// `cfg` so the block records the *effective* configuration; nullptr
// falls back to a fresh env-derived one.
inline void emit_bench_json(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics,
    const BenchConfig* bench_cfg = nullptr) {
  std::string dir;
  if (const char* d = std::getenv("RANGERPP_BENCH_DIR")) {
    dir = d;
    if (!dir.empty() && dir.back() != '/') dir.push_back('/');
  }
  const std::string path = dir + "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const BenchConfig cfg = bench_cfg ? *bench_cfg : BenchConfig{};
  std::fprintf(f, "{\n  \"bench\": \"%s\",", name.c_str());
  std::fprintf(f,
               "\n  \"host\": {\"hardware_concurrency\": %u, \"backend\": "
               "\"%s\", \"seed\": %llu, \"trials\": %zu, \"inputs\": %zu, "
               "\"shard\": \"%zu/%zu\"}",
               std::thread::hardware_concurrency(),
               std::string(ops::backend_name(ops::default_backend())).c_str(),
               static_cast<unsigned long long>(cfg.seed), cfg.trials_small,
               cfg.inputs, cfg.shard_index, cfg.shard_count);
  // The run's metrics-registry snapshot (cache hit/build counts, kernel
  // dispatch counters, latency histograms) rides along next to the host
  // block, so a regression in, say, cache hit rate is visible in the
  // same artifact as the timing it explains.
  {
    std::string snap = util::metrics::snapshot_json();
    while (!snap.empty() && snap.back() == '\n') snap.pop_back();
    std::fprintf(f, ",\n  \"runtime_metrics\": %s", snap.c_str());
  }
  for (const auto& [key, value] : metrics)
    std::fprintf(f, ",\n  \"%s\": %.17g", key.c_str(), value);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace rangerpp::bench
