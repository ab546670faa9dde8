// FusedOp — a chain of operators collapsed into one graph node by the
// compiler's fusion rewrite (graph/passes.hpp), e.g. Conv2D → BiasAdd →
// ReLU → Clamp.  The fused node computes exactly what the unfused chain
// computed, including the per-stage quantisation sweeps the executor
// would have performed between nodes, so fusing never changes a single
// output bit.
//
// Stage layout: stage 0 is the chain's producer and consumes the fused
// node's first `extra_inputs` graph inputs.  Every later stage consumes
// the previous stage's output as its first input, plus the next
// `extra_inputs` graph inputs appended after it (a fused BiasAdd brings
// its bias Const along this way).  Between stages the value is quantised
// under the stage's baked QScheme — the scheme the stage's original node
// had in the unfused plan; the final stage's output is returned
// *unquantised*, preserving the normal Op::compute contract (the executor
// or the compiled kernel quantises it under the fused node's scheme,
// which equals the last stage's).
#pragma once

#include <string>
#include <vector>

#include "ops/op.hpp"
#include "tensor/dtype.hpp"

namespace rangerpp::ops {

class FusedOp final : public Op {
 public:
  struct Stage {
    OpPtr op;
    // Name of the node this stage came from (kept for diagnostics and for
    // --dump-passes output; the fused node itself takes the *last*
    // stage's name so downstream wiring and scheme lookup are unchanged).
    std::string name;
    // Output quantisation scheme of this stage in the unfused plan.
    tensor::QScheme scheme;
    // Graph inputs this stage consumes (stage 0: its full arity; later
    // stages: arity minus the chained value).
    std::size_t extra_inputs = 0;
  };

  explicit FusedOp(std::vector<Stage> stages);

  OpKind kind() const override { return OpKind::kFused; }
  const std::vector<Stage>& stages() const { return stages_; }
  // The scheme of the fused node's output — the last stage's scheme.
  // Scheme assignment (graph/passes.cpp) reads this instead of the usual
  // inherit-from-first-input rule, so fusion is exact under int8 too.
  const tensor::QScheme& output_scheme() const {
    return stages_.back().scheme;
  }

  tensor::Tensor compute(
      std::span<const tensor::Tensor> inputs) const override;
  tensor::Shape infer_shape(
      std::span<const tensor::Shape> inputs) const override;
  std::uint64_t flops(std::span<const tensor::Shape> inputs) const override;

 private:
  std::vector<Stage> stages_;
};

}  // namespace rangerpp::ops
