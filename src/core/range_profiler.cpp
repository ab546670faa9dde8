#include "core/range_profiler.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/passes.hpp"

namespace rangerpp::core {

namespace {

bool has_analytic_bound(ops::OpKind k, Bound& out) {
  switch (k) {
    case ops::OpKind::kTanh:
      out = {-1.0f, 1.0f};
      return true;
    case ops::OpKind::kSigmoid:
      out = {0.0f, 1.0f};
      return true;
    case ops::OpKind::kRelu6:
      out = {0.0f, 6.0f};
      return true;
    default:
      return false;
  }
}

}  // namespace

Bounds RangeProfile::bounds(double percentile) const {
  if (percentile <= 0.0 || percentile > 100.0)
    throw std::invalid_argument("RangeProfile::bounds: bad percentile");
  Bounds out;
  for (const auto& [name, stats] : layers_) {
    if (stats.analytic) {
      out.emplace(name, stats.analytic_bound);
      continue;
    }
    if (stats.range.count == 0) continue;
    Bound b;
    if (percentile >= 100.0) {
      b.low = stats.range.min_value;
      b.up = stats.range.max_value;
    } else {
      const auto sample = stats.reservoir.values();
      b.up = static_cast<float>(util::percentile(sample, percentile));
      // For non-negative activations (ReLU/ELU-with-positive-floor) the
      // observed minimum is kept; for signed ones take the symmetric
      // percentile of the low tail.
      if (stats.range.min_value >= 0.0f) {
        b.low = stats.range.min_value;
      } else {
        b.low =
            static_cast<float>(util::percentile(sample, 100.0 - percentile));
      }
    }
    out.emplace(name, b);
  }
  return out;
}

util::RunningRange RangeProfile::range_of(const std::string& name) const {
  const auto it = layers_.find(name);
  if (it == layers_.end())
    throw std::invalid_argument("RangeProfile: unknown layer '" + name + "'");
  return it->second.range;
}

RangeProfile RangeProfiler::profile(
    const graph::Graph& g, const std::vector<fi::Feeds>& samples) const {
  if (samples.empty())
    throw std::invalid_argument("RangeProfiler: no samples");
  RangeProfile prof;

  // Pre-create per-ACT-layer slots (including analytic ones).
  for (const graph::Node& n : g.nodes()) {
    if (!ops::is_activation(n.op->kind())) continue;
    Bound analytic;
    if (has_analytic_bound(n.op->kind(), analytic)) {
      RangeProfile::LayerStats stats{
          {}, util::Reservoir(1, options_.seed), true, analytic};
      prof.layers_.emplace(n.name, std::move(stats));
    } else {
      RangeProfile::LayerStats stats{
          {},
          util::Reservoir(options_.reservoir_capacity,
                          util::derive_seed(options_.seed,
                                            static_cast<std::uint64_t>(n.id))),
          false,
          {}};
      prof.layers_.emplace(n.name, std::move(stats));
    }
  }

  // One compiled plan + arena for the whole profiling stream: constants
  // are materialised once and the schedule is reused per sample.
  const graph::Executor exec;
  const graph::ExecutionPlan plan = graph::compile(
      g, {.dtype = tensor::DType::kFloat32, .observe = graph::Observe::kAll});
  graph::Arena arena;
  for (const fi::Feeds& feeds : samples) {
    exec.run(plan, feeds, arena,
             [&prof](const graph::Node& node, tensor::Tensor& out) {
               const auto it = prof.layers_.find(node.name);
               if (it == prof.layers_.end() || it->second.analytic) return;
               for (float v : out.values()) {
                 it->second.range.observe(v);
                 it->second.reservoir.observe(v);
               }
             });
  }
  return prof;
}

Bounds RangeProfiler::derive_bounds(
    const graph::Graph& g, const std::vector<fi::Feeds>& samples) const {
  return profile(g, samples).bounds(options_.percentile);
}

}  // namespace rangerpp::core
