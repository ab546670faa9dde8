// RangerTransform — the paper's Algorithm 1.
//
// Given restriction bounds for the activation layers (from RangeProfiler),
// produces a *new* graph in which:
//  * every profiled activation op is followed by a range-restriction op;
//  * the restriction extends through the bound-transparent operators that
//    consume restricted values — Max-Pool, Avg-Pool, Reshape/Flatten and
//    Concatenate (Algorithm 1 lines 5-8); Concat merges the bounds of its
//    restricted inputs as (min of lows, max of ups);
//  * all original node names are preserved, so fault sites planned on the
//    unprotected graph replay on the protected one.
//
// The transform uses Graph::import_with_remap — the analogue of the
// append-only TensorFlow graph duplication of the paper's implementation
// (§IV, Fig 3): existing nodes are never mutated; restriction operators are
// spliced between producers and consumers during the copy.
//
// Besides the paper's default clamp-to-bound restriction, the §VI-C design
// alternatives are implemented as policies:
//  * kClamp  — saturate out-of-bound values at the bound (Ranger);
//  * kZero   — reset out-of-bound values to 0 (Reagen et al., Minerva);
//  * kRandom — replace out-of-bound values with a uniform random value
//              inside [low, up].
//
// apply() is the one way to protect a graph: compile its result with
// graph::compile like any other graph.  The inserted restriction nodes are
// injectable, and the compiled plan keeps them as they are.
#pragma once

#include <cstdint>

#include "core/bounds.hpp"
#include "graph/graph.hpp"

namespace rangerpp::core {

enum class RestrictionPolicy { kClamp, kZero, kRandom };

struct TransformOptions {
  RestrictionPolicy policy = RestrictionPolicy::kClamp;
  // Seed for the kRandom policy's replacement draws (deterministic per op).
  std::uint64_t seed = 1234;
  // Ablation switch: when false, only the activation ops themselves are
  // bounded (Algorithm 1 lines 3-4) and the extension to the following
  // Max-Pool/Avg-Pool/Reshape/Concat ops (lines 5-8) is skipped.  §III-C's
  // MaxPool example argues this extension is necessary; the
  // ablation_selective_restriction bench quantifies it.
  bool extend_to_transparent_ops = true;
};

struct TransformStats {
  std::size_t restriction_ops_inserted = 0;
  std::size_t activations_bounded = 0;
  std::size_t transparent_ops_bounded = 0;
  double elapsed_seconds = 0.0;  // Table III's "insertion time"
  // Memory overhead of Ranger = the stored bound pairs (Table IV text).
  std::size_t bound_values_stored() const {
    return 2 * restriction_ops_inserted;
  }
};

class RangerTransform {
 public:
  explicit RangerTransform(TransformOptions options = {})
      : options_(options) {}

  // Returns the protected graph.  `bounds` is keyed by activation node
  // name; activations without a bound are left unprotected (the paper's
  // "selective" restriction).
  graph::Graph apply(const graph::Graph& g, const Bounds& bounds) const;

  // Statistics of the most recent apply() call.
  const TransformStats& last_stats() const { return stats_; }

  // The suffix appended to restriction node names.
  static constexpr const char* kSuffix = "/ranger";

 private:
  TransformOptions options_;
  mutable TransformStats stats_;
};

}  // namespace rangerpp::core
