#include "baselines/tmr.hpp"

#include "graph/executor.hpp"

namespace rangerpp::baselines {

TrialOutcome Tmr::run_trial(const graph::ExecutionPlan& plan,
                            graph::Arena& arena, const fi::Feeds& feeds,
                            const fi::FaultSet& faults) const {
  const graph::Executor exec;
  // The transient fault hits exactly one of the three replicas.
  const tensor::Tensor faulty = exec.run(
      plan, feeds, arena,
      fi::make_injection_hook(plan.graph(), plan.dtype(), faults));
  const tensor::Tensor clean_a = exec.run(plan, feeds, arena);
  const tensor::Tensor clean_b = exec.run(plan, feeds, arena);

  // Elementwise majority vote.
  tensor::Tensor voted = faulty.clone();
  std::span<float> out = voted.mutable_values();
  std::span<const float> a = clean_a.values();
  std::span<const float> b = clean_b.values();
  bool mismatch = false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != a[i] || out[i] != b[i]) mismatch = true;
    if (out[i] != a[i] && a[i] == b[i]) out[i] = a[i];
  }
  return TrialOutcome{std::move(voted), mismatch};
}

}  // namespace rangerpp::baselines
