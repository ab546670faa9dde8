// Fig 12 (§VI-B): multi-bit-flip fault model (2-5 flips) on the AV
// steering models, original vs Ranger (average across the 15/30/60/120
// degree thresholds, as in the paper's aggregate).  Paper: 58.38% -> 6.97%
// average (8.4x); steering SDC under Ranger grows mildly with flip count
// because regression outputs need exactness.
//
// Runs on fi::Suite: the {dave, comma} × fixed32 × {2..5 flips} ×
// {unprotected, ranger} grid, with the table from the suite report layer
// (`suite_cli --models dave,comma --nbits 2,3,4,5 --report fig12`).
#include "bench/common.hpp"

using namespace rangerpp;

int main() {
  const bench::BenchConfig cfg;
  bench::print_header("Multi-bit flips, AV steering models", "Fig. 12");
  bench::print_shard_note(cfg);

  fi::SuiteSpec spec = bench::suite_spec_from_env(cfg, "fig12");
  spec.models = {models::ModelId::kDave, models::ModelId::kComma};
  spec.faults = bench::multibit_faults();

  fi::Suite suite(std::move(spec));
  fi::print_fig12(suite.run());
  std::printf(
      "Paper: Dave 36.9-65.9%% -> 7.9-13.8%%; Comma 48.6-76.2%% -> "
      "1.4-4.3%% as flips go 2 -> 5.\n");
  return 0;
}
