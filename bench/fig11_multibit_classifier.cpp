// Fig 11 (§VI-B): multi-bit-flip fault model (2-5 independent bit flips)
// on the classifier models LeNet and ResNet-18, original vs Ranger.
// Paper: original SDC rates grow with the flip count; with Ranger they
// stay near zero (47.55% -> 0.87% average, 55x).
//
// Runs on fi::Suite: the {lenet, resnet18} × fixed32 × {2..5 flips} ×
// {unprotected, ranger} grid, with the table from the suite report layer
// (`suite_cli --models lenet,resnet18 --nbits 2,3,4,5 --report fig11`).
#include "bench/common.hpp"

using namespace rangerpp;

int main() {
  const bench::BenchConfig cfg;
  bench::print_header("Multi-bit flips, classifier models", "Fig. 11");
  bench::print_shard_note(cfg);

  fi::SuiteSpec spec = bench::suite_spec_from_env(cfg, "fig11");
  spec.models = {models::ModelId::kLeNet, models::ModelId::kResNet18};
  spec.faults = bench::multibit_faults();

  fi::Suite suite(std::move(spec));
  fi::print_fig11(suite.run());
  std::printf(
      "Paper: LeNet 40.2-61.6%% -> 0.0%%; ResNet-18 (top-1) 32.9-57.3%% -> "
      "1.2-1.4%%; classifier SDC under Ranger stays flat in the flip "
      "count.\n");
  return 0;
}
