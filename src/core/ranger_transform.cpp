#include "core/ranger_transform.hpp"

#include <optional>
#include <unordered_map>

#include "core/restrict_op.hpp"
#include "ops/activation_ops.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace rangerpp::core {

namespace {

ops::OpPtr make_restrict_op(RestrictionPolicy policy, Bound b,
                            std::uint64_t seed, std::size_t index) {
  switch (policy) {
    case RestrictionPolicy::kClamp:
      return std::make_shared<ops::ClampOp>(b.low, b.up);
    case RestrictionPolicy::kZero:
      return std::make_shared<ZeroResetOp>(b.low, b.up);
    case RestrictionPolicy::kRandom:
      return std::make_shared<RandomReplaceOp>(
          b.low, b.up, util::derive_seed(seed, index));
  }
  return nullptr;
}

}  // namespace

graph::Graph RangerTransform::apply(const graph::Graph& g,
                                    const Bounds& bounds) const {
  util::Timer timer;
  stats_ = {};

  // Value-range annotation for each *source* node id: present when the
  // node's output is known to lie within the bound after restriction.
  // Computed on the fly during the single topological copy pass — the
  // graph's append-only invariant guarantees producers are visited first.
  std::unordered_map<graph::NodeId, Bound> annotation;

  graph::Graph out = g.import_with_remap(
      [&](const graph::Node& src, graph::NodeId copied,
          graph::Graph& dst) -> std::optional<graph::NodeId> {
        const ops::OpKind kind = src.op->kind();
        std::optional<Bound> bound;

        if (ops::is_activation(kind)) {
          const auto it = bounds.find(src.name);
          if (it != bounds.end()) {
            bound = it->second;
            ++stats_.activations_bounded;
          }
        } else if (!options_.extend_to_transparent_ops) {
          // Ablation: ACT-only restriction, no propagation.
        } else if (kind == ops::OpKind::kConcat) {
          // Both inputs must be restricted; merged bound is
          // (min of lows, max of ups) — Algorithm 1 lines 7-8.
          if (src.inputs.size() == 2) {
            const auto a = annotation.find(src.inputs[0]);
            const auto b = annotation.find(src.inputs[1]);
            if (a != annotation.end() && b != annotation.end()) {
              bound = Bound{std::min(a->second.low, b->second.low),
                            std::max(a->second.up, b->second.up)};
              ++stats_.transparent_ops_bounded;
            }
          }
        } else if (ops::is_bound_transparent(kind) &&
                   src.inputs.size() == 1) {
          // Max-Pool / Avg-Pool / Reshape / Flatten / Dropout inherit the
          // bound of their (restricted) input — Algorithm 1 lines 5-6.
          const auto it = annotation.find(src.inputs[0]);
          if (it != annotation.end()) {
            bound = it->second;
            ++stats_.transparent_ops_bounded;
          }
        }

        if (!bound) return std::nullopt;
        // Idempotence: a node already followed by its restriction op (the
        // graph was protected before) is left alone — re-protecting a
        // protected graph is a no-op rather than a name collision.
        if (g.find(src.name + kSuffix) != graph::kInvalidNode) {
          if (ops::is_activation(kind)) --stats_.activations_bounded;
          else --stats_.transparent_ops_bounded;
          return std::nullopt;
        }
        annotation.emplace(src.id, *bound);

        const std::size_t index = stats_.restriction_ops_inserted++;
        const graph::NodeId restrict = dst.add(
            src.name + kSuffix,
            make_restrict_op(options_.policy, *bound, options_.seed, index),
            {copied},
            // Restriction ops are themselves injectable: the paper's FI
            // considers faults in all operations of the protected network.
            /*injectable=*/true);
        return restrict;
      });

  stats_.elapsed_seconds = timer.elapsed_seconds();
  return out;
}

}  // namespace rangerpp::core
