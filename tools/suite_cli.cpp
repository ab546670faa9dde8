// suite_cli — the campaign CLI.  Runs the zoo-wide campaign suite
// (fi::Suite) from the shell and CI: one declarative grid of (model ×
// act × dtype × fault-model × technique) cells, executed on the
// shared-cache orchestrator with per-cell RPRC checkpoints, suite-level
// sharding, an aggregated SUITE_<name>.json manifest and the
// figure/table report layer.  A single campaign is a one-cell grid:
//   suite_cli --models lenet --techniques ranger --trials 100 --inputs 2
//             --dir build/c [--stratified [--bit-group N]] [--report strata]
//
// Run (or resume) a shard of a suite:
//   suite_cli --name smoke --models lenet,alexnet,dave
//             --dtypes fixed32,fixed16 --techniques unprotected,ranger
//             --trials 100 --inputs 2 --seed 2021
//             [--shard 0/2] --dir build/suite [--report all]
//
// Merge the shard checkpoints written above (same grid flags; no trials
// execute), write each cell's merged records back into --dir as its
// unsharded checkpoint (<name>.<cell-id>.s0of1.rcp) and write the
// full-suite manifest:
//   suite_cli --merge --name smoke ...same grid flags...
//             --dir build/suite --out build/suite/SUITE_smoke.json
// A scheduler_cli daemon names its partition checkpoints like suite
// shards, so --merge over its serve --dir works the same way.
//
// The manifest and the merged checkpoints are derived only from
// per-trial records and the spec, so once every shard is merged they are
// byte-identical to an unsharded run's — the CI suite-smoke job gates on
// exactly that with `cmp`.
//
// Environment fallbacks (shared with the benches): RANGERPP_TRIALS,
// RANGERPP_INPUTS, RANGERPP_SEED, RANGERPP_SHARD (overridden by --shard).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fi/suite.hpp"
#include "graph/passes.hpp"
#include "models/zoo.hpp"
#include "tools/cli_flags.hpp"
#include "util/env.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

using namespace rangerpp;

namespace {

using util::env_size;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "suite_cli: %s\n\n", msg);
  std::fprintf(
      stderr,
      "usage: suite_cli --models M[,M...] [options]\n"
      "       suite_cli --merge --models M[,M...] [options] [--out FILE]\n"
      "       suite_cli --list\n"
      "\n"
      "grid dimensions:\n"
      "  --models LIST        lenet alexnet vgg11 vgg16 resnet18\n"
      "                       squeezenet dave dave-degrees comma\n"
      "  --acts LIST          default | relu | tanh | sigmoid | elu\n"
      "                       (default: default — the published act)\n"
      "  --dtypes LIST        fixed32 | fixed16 | int8 | float32\n"
      "                       (default fixed32; int8 calibrates per-node\n"
      "                       formats from the model's profiled bounds)\n"
      "  --nbits LIST         flips per trial, e.g. 1 or 2,3,4,5 (default 1)\n"
      "  --consecutive        burst fault model: adjacent bits in one value\n"
      "  --fault-class C      activation (default) | weight: draw faults\n"
      "                       from Const (weight/bias) tensors and run the\n"
      "                       persistent-fault input sweep per cell\n"
      "  --weight-kind K      single | multi | burst | stuck0 | stuck1 |\n"
      "                       row (weight cells; --nbits is the count)\n"
      "  --ecc LIST           none | secded | cov<FRACTION> — each entry\n"
      "                       adds a weight-cell grid column (default none)\n"
      "  --techniques LIST    unprotected | ranger | ranger-paired\n"
      "                       (default unprotected,ranger; ranger-paired\n"
      "                       plans faults on the unprotected graph and\n"
      "                       replays them on the protected twin — the\n"
      "                       Table VI coverage setup)\n"
      "suite options:\n"
      "  --name NAME          suite name (checkpoint/manifest prefix;\n"
      "                       default 'suite')\n"
      "  --trials N           trials per input for the small models\n"
      "                       (ImageNet-scale models run N/4; default\n"
      "                       $RANGERPP_TRIALS or 1000)\n"
      "  --trials-divisor D   divide every cell's trials by D (Table VI\n"
      "                       runs at half trials; default 1)\n"
      "  --inputs N           FI inputs (default $RANGERPP_INPUTS or 8)\n"
      "  --seed S             campaign seed (default $RANGERPP_SEED or 2021)\n"
      "  --threads T          worker threads (default: all cores)\n"
      "  --shard i/N          run only suite-global trials g with g%%N == i\n"
      "  --dir DIR            checkpoint + manifest directory (default:\n"
      "                       in-memory, manifest in the working dir)\n"
      "  --check-every N      trials per checkpoint flush (default 256)\n"
      "  --max-new N          at most N new trials per cell this run\n"
      "  --target-ci PCT      per-cell early stop once judge 0's\n"
      "                       Wilson-95 half-width is below PCT percent\n"
      "                       (early-stopped cells execute a prefix, so\n"
      "                       skip the merged-manifest cmp gate)\n"
      "  --stratified         stratified (layer, bit-group) sampling\n"
      "                       (single-bit activation cells only)\n"
      "  --bit-group N        bits per stratum group (default 8)\n"
      "  --report MODE        cells | fig6 | fig7 | fig9 | int8 | fig11 |\n"
      "                       fig12 | table6 | all | strata | none\n"
      "                       (default cells; strata prints each cell's\n"
      "                       weighted estimate and per-stratum table)\n"
      "  --dump-passes        print each model's compile pipeline (per-pass\n"
      "                       timing + node counts) and exit\n"
      "  --verify-plan        run the static plan verifier (graph/verify)\n"
      "                       on every cell's compiled plans\n"
      "  --merge              merge the shard checkpoints in DIR (default\n"
      "                       .; suite shards or a scheduler_cli serve\n"
      "                       --dir) instead of running; with --dir, also\n"
      "                       write each cell's merged records there as\n"
      "                       its unsharded <name>.<cell-id>.s0of1.rcp\n"
      "  --out FILE           manifest path (default:\n"
      "                       DIR/SUITE_<name>[.s<i>of<N>].json)\n"
      "  --quiet              manifest only, no tables\n"
      "telemetry (pure observers: checkpoints and manifests are\n"
      "byte-identical with these on or off):\n"
      "  --trace FILE         write a Chrome trace-event JSON of the\n"
      "                       compile/exec/campaign spans on exit\n"
      "                       (RANGERPP_TRACE=FILE does the same)\n"
      "  --metrics FILE       write a metrics-registry snapshot JSON\n"
      "                       (counters/gauges/histograms) on exit\n"
      "  --progress           1 Hz stderr heartbeat: cells and trials\n"
      "                       done, trials/sec, ETA\n");
  std::exit(2);
}

// Checked numeric flag parsing shared with scheduler_cli
// (tools/cli_flags.hpp).
std::size_t size_flag(const std::string& flag, const std::string& v) {
  return cli::size_flag(&usage, flag, v);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  fi::SuiteSpec spec;
  spec.trials_small = env_size("RANGERPP_TRIALS", 1000);
  spec.inputs = env_size("RANGERPP_INPUTS", 8);
  spec.seed = env_size("RANGERPP_SEED", 2021);
  if (const char* s = std::getenv("RANGERPP_SHARD")) {
    const auto shard = util::parse_shard_spec(s);
    if (!shard) usage("bad RANGERPP_SHARD (want i/N with i < N)");
    spec.shard_index = shard->index;
    spec.shard_count = shard->count;
  }
  spec.models.clear();
  spec.techniques = {fi::Technique::kUnprotected, fi::Technique::kRanger};

  bool merge_mode = false, quiet = false, consecutive = false;
  bool weight_kind_set = false, ecc_set = false, dump_passes = false;
  std::vector<int> nbits = {1};
  fi::FaultClass fault_class = fi::FaultClass::kActivation;
  fi::WeightFaultKind weight_kind = fi::WeightFaultKind::kSingleBit;
  std::vector<fi::EccModel> eccs = {fi::EccModel{}};
  std::string report_mode = "cells", out_path;
  std::string trace_path, metrics_path;
  bool progress = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--models") {
      for (const std::string& m : split_list(value())) {
        const auto id = models::model_from_token(m);
        if (!id) usage(("unknown model '" + m + "'").c_str());
        spec.models.push_back(*id);
      }
    } else if (arg == "--acts") {
      spec.acts.clear();
      for (const std::string& a : split_list(value())) {
        const auto act = fi::act_from_token(a);
        if (!act) usage(("unknown act '" + a + "'").c_str());
        spec.acts.push_back(*act);
      }
    } else if (arg == "--dtypes") {
      spec.dtypes.clear();
      for (const std::string& d : split_list(value())) {
        const auto dtype = fi::dtype_from_token(d);
        if (!dtype) usage(("unknown dtype '" + d + "'").c_str());
        spec.dtypes.push_back(*dtype);
      }
    } else if (arg == "--nbits") {
      nbits.clear();
      for (const std::string& b : split_list(value()))
        nbits.push_back(cli::int_flag(&usage, "--nbits", b, 1, 64));
      if (nbits.empty()) usage("--nbits wants at least one value");
    } else if (arg == "--consecutive") consecutive = true;
    else if (arg == "--fault-class") {
      const auto cls = fi::fault_class_from_token(value());
      if (!cls) usage("--fault-class wants activation|weight");
      fault_class = *cls;
    } else if (arg == "--weight-kind") {
      const auto kind = fi::weight_fault_kind_from_token(value());
      if (!kind) usage("--weight-kind wants single|multi|burst|stuck0|"
                       "stuck1|row");
      weight_kind = *kind;
      weight_kind_set = true;
    } else if (arg == "--ecc") {
      eccs.clear();
      for (const std::string& e : split_list(value())) {
        const auto ecc = fi::ecc_from_token(e);
        if (!ecc) usage(("unknown ecc model '" + e + "'").c_str());
        eccs.push_back(*ecc);
      }
      if (eccs.empty()) usage("--ecc wants at least one value");
      ecc_set = true;
    } else if (arg == "--list") {
      cli::print_axes(stdout);
      return 0;
    } else if (arg == "--techniques") {
      spec.techniques.clear();
      for (const std::string& t : split_list(value())) {
        const auto tech = fi::technique_from_token(t);
        if (!tech) usage(("unknown technique '" + t + "'").c_str());
        spec.techniques.push_back(*tech);
      }
    } else if (arg == "--name") spec.name = value();
    else if (arg == "--trials") spec.trials_small = size_flag(arg, value());
    else if (arg == "--trials-divisor") {
      spec.trials_divisor = size_flag(arg, value());
      if (spec.trials_divisor == 0) usage("--trials-divisor wants >= 1");
    } else if (arg == "--inputs") spec.inputs = size_flag(arg, value());
    else if (arg == "--seed") spec.seed = size_flag(arg, value());
    else if (arg == "--threads")
      spec.threads =
          static_cast<unsigned>(cli::int_flag(&usage, arg, value(), 0,
                                              1 << 16));
    else if (arg == "--shard") {
      const auto shard = util::parse_shard_spec(value().c_str());
      if (!shard) usage("--shard wants i/N with i < N");
      spec.shard_index = shard->index;
      spec.shard_count = shard->count;
    } else if (arg == "--dir") spec.checkpoint_dir = value();
    else if (arg == "--check-every")
      spec.check_every = size_flag(arg, value());
    else if (arg == "--max-new")
      spec.max_new_trials = size_flag(arg, value());
    else if (arg == "--target-ci")
      spec.target_half_width_pct = cli::double_flag(&usage, arg, value());
    else if (arg == "--stratified") spec.stratified.enabled = true;
    else if (arg == "--bit-group")
      spec.stratified.bit_group_size =
          cli::int_flag(&usage, arg, value(), 1, 64);
    else if (arg == "--report") {
      report_mode = value();
      const char* known[] = {"cells", "fig6",  "fig7",   "fig9",
                             "int8",  "fig11", "fig12",  "table6",
                             "all",   "strata", "none"};
      bool ok = false;
      for (const char* k : known) ok = ok || report_mode == k;
      if (!ok) usage(("unknown report mode '" + report_mode + "'").c_str());
    } else if (arg == "--merge") merge_mode = true;
    else if (arg == "--out") out_path = value();
    else if (arg == "--dump-passes") dump_passes = true;
    else if (arg == "--verify-plan") spec.verify_plan = true;
    else if (arg == "--trace") trace_path = value();
    else if (arg == "--metrics") metrics_path = value();
    else if (arg == "--progress") progress = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown flag " + arg).c_str());
  }

  if (spec.models.empty()) usage("--models is required");
  // A silently ignored fault-model flag means a misread grid — refuse
  // the combinations that would drop one.
  if (fault_class == fi::FaultClass::kActivation &&
      (weight_kind_set || ecc_set))
    usage("--weight-kind/--ecc require --fault-class weight");
  if (fault_class == fi::FaultClass::kWeight && consecutive)
    usage("--consecutive is the activation burst model; use "
          "--weight-kind burst for weight cells");
  spec.faults.clear();
  for (const int b : nbits) {
    if (fault_class == fi::FaultClass::kWeight) {
      // Each ECC model is its own grid column of the weight-fault axis.
      for (const fi::EccModel& ecc : eccs) {
        fi::FaultModelSpec f;
        f.cls = fi::FaultClass::kWeight;
        f.wkind = weight_kind;
        f.n_bits = b;
        f.ecc = ecc;
        spec.faults.push_back(f);
      }
      continue;
    }
    fi::FaultModelSpec f;
    f.n_bits = b;
    f.consecutive = consecutive && b > 1;
    spec.faults.push_back(f);
  }

  // Telemetry is a pure observer: nothing below branches on it, so the
  // checkpoints/manifests this run writes are byte-identical with it on
  // or off (the CI suite-smoke cmp gate).
  if (!metrics_path.empty() || progress) util::metrics::set_enabled(true);
  if (!trace_path.empty())
    util::trace::start(trace_path);
  else
    util::trace::start_from_env();

  try {
    if (dump_passes) {
      // Pipeline shape and pass cost depend on the architecture, not on
      // trained weight values, so He-initialised weights (the zoo tests'
      // pattern) keep this instant even for the ImageNet-scale models.
      for (const models::ModelId id : spec.models) {
        const ops::OpKind act = models::default_act(id);
        const graph::ExecutionPlan probe = graph::compile(
            models::build_model(id, act, models::init_weights(id, act, 99)),
            {.dtype = spec.dtypes.empty() ? tensor::DType::kFixed32
                                          : spec.dtypes.front(),
             .observe = graph::Observe::kInjectable});
        std::printf("compile pipeline for %s:\n%s\n",
                    models::model_name(id).c_str(),
                    probe.report()->to_string().c_str());
      }
      return 0;
    }

    fi::Suite suite(spec);
    std::unique_ptr<cli::ProgressReporter> reporter;
    if (progress && !merge_mode)
      reporter = std::make_unique<cli::ProgressReporter>(
          "suite", suite.plan().total_trials / spec.shard_count);
    const fi::SuiteResult result =
        merge_mode ? suite.merge({spec.checkpoint_dir.empty()
                                      ? std::string(".")
                                      : spec.checkpoint_dir})
                   : suite.run();
    reporter.reset();

    if (out_path.empty()) {
      std::string name = "SUITE_" + spec.name;
      if (!merge_mode && spec.shard_count > 1)
        name += ".s" + std::to_string(spec.shard_index) + "of" +
                std::to_string(spec.shard_count);
      name += ".json";
      out_path = spec.checkpoint_dir.empty()
                     ? name
                     : (std::filesystem::path(spec.checkpoint_dir) / name)
                           .string();
    }
    // A merged manifest describes the full suite, not one shard.
    if (merge_mode) {
      fi::SuitePlan full = result.plan;
      // merge() already reports full-campaign records; the manifest's
      // shard field must say 0/1 so it compares equal to an unsharded
      // run's.
      full.spec.shard_index = 0;
      full.spec.shard_count = 1;
      fi::SuiteResult relabelled{full, result.cells};
      fi::write_suite_manifest(out_path, relabelled);
      // Merge executes no trials; don't let the table6 overhead column
      // pull in workload construction either (it prints "-" instead).
      if (!quiet && report_mode != "none")
        fi::print_suite_report(relabelled, report_mode, nullptr);
    } else {
      fi::write_suite_manifest(out_path, result);
      if (!quiet && report_mode != "none")
        fi::print_suite_report(result, report_mode, &suite);
    }
    std::printf("wrote %s (%zu cells, %zu trials planned)\n",
                out_path.c_str(), result.plan.cells.size(),
                result.plan.total_trials);
    util::trace::stop_and_flush();
    if (!metrics_path.empty() &&
        !util::metrics::write_snapshot(metrics_path)) {
      std::fprintf(stderr, "suite_cli: cannot write %s\n",
                   metrics_path.c_str());
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    util::trace::stop_and_flush();
    std::fprintf(stderr, "suite_cli: %s\n", e.what());
    return 2;
  }
}
