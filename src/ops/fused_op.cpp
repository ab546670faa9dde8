#include "ops/fused_op.hpp"

#include <stdexcept>

namespace rangerpp::ops {

FusedOp::FusedOp(std::vector<Stage> stages) : stages_(std::move(stages)) {
  if (stages_.size() < 2)
    throw std::invalid_argument("FusedOp: needs at least two stages");
  for (const Stage& s : stages_)
    if (!s.op) throw std::invalid_argument("FusedOp: null stage op");
  if (stages_[0].extra_inputs == 0)
    throw std::invalid_argument("FusedOp: stage 0 must consume inputs");
}

tensor::Tensor FusedOp::compute(
    std::span<const tensor::Tensor> inputs) const {
  std::size_t cursor = 0;
  tensor::Tensor value;
  std::vector<tensor::Tensor> stage_in;
  for (std::size_t k = 0; k < stages_.size(); ++k) {
    const Stage& s = stages_[k];
    stage_in.clear();
    if (k > 0) stage_in.push_back(std::move(value));
    if (cursor + s.extra_inputs > inputs.size())
      throw std::invalid_argument("FusedOp: too few inputs");
    for (std::size_t j = 0; j < s.extra_inputs; ++j)
      stage_in.push_back(inputs[cursor++]);
    value = s.op->compute(stage_in);
    // Quantise the inter-stage value exactly as the executor would have
    // quantised the original node's output; the final stage is left to
    // the caller (the normal Op::compute contract).
    if (k + 1 < stages_.size() && s.scheme.dtype != tensor::DType::kFloat32)
      tensor::q_quantize_span(s.scheme, value.mutable_values());
  }
  return value;
}

tensor::Shape FusedOp::infer_shape(
    std::span<const tensor::Shape> inputs) const {
  std::size_t cursor = 0;
  tensor::Shape value;
  std::vector<tensor::Shape> stage_in;
  for (std::size_t k = 0; k < stages_.size(); ++k) {
    const Stage& s = stages_[k];
    stage_in.clear();
    if (k > 0) stage_in.push_back(value);
    if (cursor + s.extra_inputs > inputs.size())
      throw std::invalid_argument("FusedOp: too few input shapes");
    for (std::size_t j = 0; j < s.extra_inputs; ++j)
      stage_in.push_back(inputs[cursor++]);
    value = s.op->infer_shape(stage_in);
  }
  return value;
}

std::uint64_t FusedOp::flops(std::span<const tensor::Shape> inputs) const {
  std::size_t cursor = 0;
  std::uint64_t total = 0;
  tensor::Shape value;
  std::vector<tensor::Shape> stage_in;
  for (std::size_t k = 0; k < stages_.size(); ++k) {
    const Stage& s = stages_[k];
    stage_in.clear();
    if (k > 0) stage_in.push_back(value);
    for (std::size_t j = 0; j < s.extra_inputs; ++j)
      stage_in.push_back(inputs[cursor++]);
    total += s.op->flops(stage_in);
    value = s.op->infer_shape(stage_in);
  }
  return total;
}

}  // namespace rangerpp::ops
