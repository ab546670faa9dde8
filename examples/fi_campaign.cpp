// Running a statistical fault-injection campaign with the TensorFI-
// equivalent framework: thousands of independent single-bit-flip trials,
// SDC classification against the golden output, and 95% confidence
// intervals — the measurement methodology behind every figure in the
// paper.
#include <cstdio>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/runner.hpp"
#include "models/workload.hpp"

using namespace rangerpp;

int main() {
  models::WorkloadOptions wo;
  wo.trained = false;  // He-initialised AlexNet: SDC is model-relative
  wo.eval_inputs = 5;
  const models::Workload w =
      models::make_workload(models::ModelId::kAlexNet, wo);

  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);
  const graph::Graph protected_g =
      core::RangerTransform{}.apply(w.graph, bounds);

  fi::RunnerConfig rc;
  rc.campaign.dtype = tensor::DType::kFixed32;  // the paper's RQ1-3 datatype
  rc.campaign.trials_per_input = 500;
  rc.campaign.seed = 7;
  const std::vector<fi::JudgePtr> judges{std::make_shared<fi::Top1Judge>()};

  std::printf("running %zu trials x %zu inputs on AlexNet (fixed32)...\n",
              rc.campaign.trials_per_input, w.eval_feeds.size());
  const fi::CampaignResult orig =
      fi::CampaignRunner(rc).run(w.graph, w.eval_feeds, judges).aggregate[0];
  const fi::CampaignResult prot =
      fi::CampaignRunner(rc).run(protected_g, w.eval_feeds, judges)
          .aggregate[0];

  std::printf("unprotected: %zu/%zu SDCs = %.2f%% (+-%.2f%% at 95%%)\n",
              orig.sdcs, orig.trials, orig.sdc_rate_pct(), orig.ci95_pct());
  std::printf("with Ranger: %zu/%zu SDCs = %.2f%% (+-%.2f%% at 95%%)\n",
              prot.sdcs, prot.trials, prot.sdc_rate_pct(), prot.ci95_pct());

  // The same campaign under the multi-bit fault model (§VI-B).
  rc.campaign.n_bits = 3;
  const fi::CampaignRunner multi(rc);
  const fi::CampaignResult orig3 =
      multi.run(w.graph, w.eval_feeds, judges).aggregate[0];
  const fi::CampaignResult prot3 =
      multi.run(protected_g, w.eval_feeds, judges).aggregate[0];
  std::printf("3-bit flips: %.2f%% unprotected vs %.2f%% with Ranger\n",
              orig3.sdc_rate_pct(), prot3.sdc_rate_pct());
  return 0;
}
