#include "core/range_profiler.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/passes.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::core {

namespace {

// Samples per worker in one profiling chunk: enough to keep every worker
// busy while the previous chunk merges, few enough that two chunks of
// captured activations stay small.
constexpr std::size_t kChunkPerWorker = 2;

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

  // One compiled plan for the whole profiling stream (constants are
  // materialised once), one arena per worker.  Samples run across
  // workers in chunks; while a chunk runs, each layer merges the previous
  // chunk's outputs as one more task.  A layer therefore sees its values
  // in sample order, then element order — the exact sequence a serial
  // stream produces, which the reservoir's draws depend on — and merges
  // only ever touch their own layer.
  const graph::Executor exec;
  const graph::ExecutionPlan plan = graph::compile(
      g, {.dtype = tensor::DType::kFloat32, .observe = graph::Observe::kAll});
  using LayerStats = RangeProfile::LayerStats;
  std::vector<LayerStats*> observed;  // one merge task each
  for (auto& [name, stats] : prof.layers_)
    if (!stats.analytic) observed.push_back(&stats);
  std::vector<LayerStats*> slot(plan.size(), nullptr);  // by node id
  for (const graph::Node& n : plan.graph().nodes()) {
    const auto it = prof.layers_.find(n.name);
    if (it != prof.layers_.end() && !it->second.analytic)
      slot[static_cast<std::size_t>(n.id)] = &it->second;
  }
  // A sample's observed outputs in hook order (tensors share storage
  // with the run's outputs, so capturing copies nothing).
  using Captured = std::vector<std::pair<LayerStats*, tensor::Tensor>>;
  const unsigned workers = util::worker_count(samples.size());
  const std::size_t chunk = kChunkPerWorker * workers;
  std::vector<graph::Arena> arenas(
      util::worker_count(chunk + observed.size()));
  std::vector<Captured> pending, running;
  for (std::size_t base = 0;; base += chunk) {
    const std::size_t n =
        base < samples.size() ? std::min(chunk, samples.size() - base) : 0;
    const std::size_t merges = pending.empty() ? 0 : observed.size();
    running.assign(n, {});
    util::parallel_for_workers(merges + n, [&](unsigned worker,
                                               std::size_t i) {
      if (i < merges) {
        LayerStats* layer = observed[i];
        for (const Captured& c : pending)
          for (const auto& [stats, out] : c) {
            if (stats != layer) continue;
            for (float v : out.values()) {
              layer->range.observe(v);
              layer->reservoir.observe(v);
            }
          }
        return;
      }
      Captured& c = running[i - merges];
      exec.run(plan, samples[base + i - merges], arenas[worker],
               [&](const graph::Node& node, tensor::Tensor& out) {
                 if (LayerStats* s = slot[static_cast<std::size_t>(node.id)])
                   c.emplace_back(s, out);
               });
    });
    if (n == 0) break;
    pending = std::move(running);
  }
  return prof;
}

Bounds RangeProfiler::derive_bounds(
    const graph::Graph& g, const std::vector<fi::Feeds>& samples) const {
  return profile(g, samples).bounds(options_.percentile);
}

}  // namespace rangerpp::core
