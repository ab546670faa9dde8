// Fig 7: SDC rates of the two steering models (Dave, Comma.ai) for
// deviation thresholds 15/30/60/120 degrees, original vs Ranger.
// Paper: Comma improves ~50x; radians-output Dave improves least (2.77x)
// because of the Atan output conversion.
//
// Runs on fi::Suite: the {dave, comma} × fixed32 × single-bit ×
// {unprotected, ranger} grid, with the table from the suite report layer
// (`suite_cli --models dave,comma --report fig7` prints the same).
#include "bench/common.hpp"

using namespace rangerpp;

int main() {
  const bench::BenchConfig cfg;
  bench::print_header("Steering-model SDC rates by deviation threshold",
                      "Fig. 7");
  bench::print_shard_note(cfg);

  fi::SuiteSpec spec = bench::suite_spec_from_env(cfg, "fig7");
  spec.models = {models::ModelId::kDave, models::ModelId::kComma};

  fi::Suite suite(std::move(spec));
  fi::print_fig7(suite.run());
  std::printf(
      "Paper: Dave 23.68/21.93/20.07/16.02%% -> 9.78/8.55/7.07/4.01%%;\n"
      "       Comma 27.70/25.88/24.13/22.20%% -> 1.68/0.26/0.01/0.00%%.\n");
  return 0;
}
