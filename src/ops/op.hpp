// Operator interface for the rangerpp dataflow graph.
//
// Operators are immutable kernel objects shared by graphs (a Ranger
// transform duplicates a graph but reuses the operator objects, exactly as
// TensorFlow's import_graph_def reuses op definitions).  Each operator
// knows how to compute its output from input tensors, infer its output
// shape, and report its floating-point-operation cost (used to reproduce
// Table IV of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "tensor/tensor.hpp"

namespace rangerpp::ops {

enum class OpKind {
  kInput,
  kConst,
  kConv2D,
  kMatMul,
  kBiasAdd,
  kAdd,
  kMul,
  kRelu,
  kRelu6,
  kTanh,
  kSigmoid,
  kElu,
  kAtan,
  kScale,
  kSoftmax,
  kMaxPool,
  kAvgPool,
  kGlobalAvgPool,
  kLrn,
  kBatchNorm,
  kConcat,
  kReshape,
  kFlatten,
  kDropout,
  kClamp,
};

std::string_view op_kind_name(OpKind k);

// Activation operators: the layers Ranger profiles and bounds directly
// (paper §III-C step 2).  Atan is deliberately *not* an activation — in the
// Dave model it is the radians conversion at the output, which the paper
// identifies as the reason Ranger is less effective on Dave.
bool is_activation(OpKind k);

// Operators to which an upstream activation's restriction bound extends
// (Algorithm 1, lines 5-8): Max-Pool, Avg-Pool, Reshape (and Flatten, its
// rank-collapsing special case), plus Concatenate with merged bounds.
bool is_bound_transparent(OpKind k);

class Op {
 public:
  virtual ~Op() = default;

  virtual OpKind kind() const = 0;

  // Computes the operator's output.  `inputs` are the producing nodes'
  // output tensors in graph edge order.
  virtual tensor::Tensor compute(
      std::span<const tensor::Tensor> inputs) const = 0;

  // Output shape for the given input shapes.  Throws std::invalid_argument
  // on arity/shape errors; used both by the executor for validation and by
  // the fault injector to size injection sites without running the model.
  virtual tensor::Shape infer_shape(
      std::span<const tensor::Shape> inputs) const = 0;

  // Floating-point operations performed for the given input shapes.
  // Convention follows TensorFlow's profiler (the paper's measurement
  // tool): a multiply-accumulate counts as 2 FLOPs, comparisons and
  // clamps count as 1 FLOP per element.
  virtual std::uint64_t flops(std::span<const tensor::Shape> inputs) const = 0;

  std::string_view kind_name() const { return op_kind_name(kind()); }
};

using OpPtr = std::shared_ptr<const Op>;

}  // namespace rangerpp::ops
