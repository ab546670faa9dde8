// Command-line driver: protect any zoo model with Ranger and run a
// fault-injection campaign against it.
//
//   ranger_cli --model lenet --dtype fixed32 --trials 1000 --bits 1
//              --percentile 100 --policy clamp [--dot out.dot]
//
// Prints the unprotected and protected SDC rates for the model's default
// judges, and optionally dumps the protected graph in Graphviz DOT form.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "core/calibration.hpp"
#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/runner.hpp"
#include "fi/suite.hpp"
#include "graph/dot_export.hpp"
#include "models/workload.hpp"
#include "util/parse.hpp"

using namespace rangerpp;

namespace {

struct Args {
  models::ModelId model = models::ModelId::kLeNet;
  tensor::DType dtype = tensor::DType::kFixed32;
  std::size_t trials = 1000;
  int bits = 1;
  bool consecutive = false;
  double percentile = 100.0;
  core::RestrictionPolicy policy = core::RestrictionPolicy::kClamp;
  std::optional<std::string> dot_path;
  std::uint64_t seed = 2021;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--model lenet|alexnet|vgg11|vgg16|resnet18|squeezenet|"
      "dave|dave-degrees|comma]\n"
      "          [--dtype float32|fixed32|fixed16|int8] [--trials N] "
      "[--bits 1-5] [--consecutive]\n"
      "          [--percentile P] [--policy clamp|zero|random] "
      "[--dot FILE] [--seed S]\n",
      argv0);
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (flag == "--model") {
      const auto v = next();
      if (!v) return std::nullopt;
      const auto m = models::model_from_token(*v);
      if (!m) {
        std::fprintf(stderr, "unknown model '%s'\n", v->c_str());
        return std::nullopt;
      }
      a.model = *m;
    } else if (flag == "--dtype") {
      const auto v = next();
      const auto d = v ? fi::dtype_from_token(*v) : std::nullopt;
      if (!d) return std::nullopt;
      a.dtype = *d;
    } else if (flag == "--trials") {
      // Strict full-string parses (util/parse.hpp): "100x" or "abc" must
      // refuse loudly, never silently run 100 (or 0) trials.
      const auto v = next();
      std::uint64_t trials = 0;
      if (!v || !util::parse_u64(v->c_str(), trials)) {
        std::fprintf(stderr, "--trials wants a non-negative integer\n");
        return std::nullopt;
      }
      a.trials = static_cast<std::size_t>(trials);
    } else if (flag == "--bits") {
      const auto v = next();
      std::int64_t bits = 0;
      if (!v || !util::parse_i64(v->c_str(), bits)) {
        std::fprintf(stderr, "--bits wants an integer\n");
        return std::nullopt;
      }
      a.bits = static_cast<int>(bits);
    } else if (flag == "--consecutive") {
      a.consecutive = true;
    } else if (flag == "--percentile") {
      const auto v = next();
      double pct = 0.0;
      if (!v || !util::parse_f64(v->c_str(), pct) || pct < 0.0 ||
          pct > 100.0) {
        std::fprintf(stderr, "--percentile wants a number in [0, 100]\n");
        return std::nullopt;
      }
      a.percentile = pct;
    } else if (flag == "--policy") {
      const auto v = next();
      if (!v) return std::nullopt;
      if (*v == "clamp") a.policy = core::RestrictionPolicy::kClamp;
      else if (*v == "zero") a.policy = core::RestrictionPolicy::kZero;
      else if (*v == "random") a.policy = core::RestrictionPolicy::kRandom;
      else return std::nullopt;
    } else if (flag == "--dot") {
      const auto v = next();
      if (!v) return std::nullopt;
      a.dot_path = *v;
    } else if (flag == "--seed") {
      const auto v = next();
      std::uint64_t seed = 0;
      if (!v || !util::parse_u64(v->c_str(), seed)) {
        std::fprintf(stderr, "--seed wants a non-negative integer\n");
        return std::nullopt;
      }
      a.seed = seed;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return std::nullopt;
    }
  }
  if (a.bits < 1 || a.bits > 8) {
    std::fprintf(stderr, "--bits must be 1-8\n");
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    usage(argv[0]);
    return 2;
  }

  std::printf("model=%s dtype=%s trials=%zu bits=%d%s percentile=%.1f\n",
              models::model_name(args->model).c_str(),
              std::string(tensor::dtype_name(args->dtype)).c_str(),
              args->trials, args->bits,
              args->consecutive ? " (consecutive)" : "",
              args->percentile);

  models::WorkloadOptions wo;
  wo.seed = args->seed;
  const models::Workload w = models::make_workload(args->model, wo);

  core::ProfileOptions po;
  po.percentile = args->percentile;
  const core::Bounds bounds =
      core::RangeProfiler{po}.derive_bounds(w.graph, w.profile_feeds);
  core::TransformOptions to;
  to.policy = args->policy;
  to.seed = args->seed;
  const graph::Graph protected_g =
      core::RangerTransform{to}.apply(w.graph, bounds);

  if (args->dot_path) {
    std::ofstream out(*args->dot_path);
    out << graph::to_dot(protected_g);
    std::printf("wrote protected graph to %s\n", args->dot_path->c_str());
  }

  fi::RunnerConfig rc;
  rc.campaign.dtype = args->dtype;
  // int8 activations take their per-node formats from the same bounds.
  if (args->dtype == tensor::DType::kInt8)
    rc.campaign.int8_formats = core::int8_calibration(bounds);
  rc.campaign.n_bits = args->bits;
  rc.campaign.consecutive_bits = args->consecutive;
  rc.campaign.trials_per_input = args->trials;
  rc.campaign.seed = args->seed;
  const fi::CampaignRunner runner(rc);
  const auto judges = models::default_judges(args->model);
  const auto labels = models::judge_labels(args->model);

  const auto orig = runner.run(w.graph, w.eval_feeds, judges).aggregate;
  const auto prot = runner.run(protected_g, w.eval_feeds, judges).aggregate;
  for (std::size_t j = 0; j < judges.size(); ++j) {
    std::printf("%-20s  orig %6.2f%% (+-%.2f)   ranger %6.2f%% (+-%.2f)\n",
                labels[j].c_str(), orig[j].sdc_rate_pct(),
                orig[j].ci95_pct(), prot[j].sdc_rate_pct(),
                prot[j].ci95_pct());
  }
  return 0;
}
