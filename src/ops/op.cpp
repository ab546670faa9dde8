#include "ops/op.hpp"

namespace rangerpp::ops {

std::string_view op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kInput: return "Input";
    case OpKind::kConst: return "Const";
    case OpKind::kConv2D: return "Conv2D";
    case OpKind::kMatMul: return "MatMul";
    case OpKind::kBiasAdd: return "BiasAdd";
    case OpKind::kAdd: return "Add";
    case OpKind::kMul: return "Mul";
    case OpKind::kRelu: return "Relu";
    case OpKind::kRelu6: return "Relu6";
    case OpKind::kTanh: return "Tanh";
    case OpKind::kSigmoid: return "Sigmoid";
    case OpKind::kElu: return "Elu";
    case OpKind::kAtan: return "Atan";
    case OpKind::kScale: return "Scale";
    case OpKind::kSoftmax: return "Softmax";
    case OpKind::kMaxPool: return "MaxPool";
    case OpKind::kAvgPool: return "AvgPool";
    case OpKind::kGlobalAvgPool: return "GlobalAvgPool";
    case OpKind::kLrn: return "LRN";
    case OpKind::kBatchNorm: return "BatchNorm";
    case OpKind::kConcat: return "Concat";
    case OpKind::kReshape: return "Reshape";
    case OpKind::kFlatten: return "Flatten";
    case OpKind::kDropout: return "Dropout";
    case OpKind::kClamp: return "Clamp";
  }
  return "Unknown";
}

bool is_activation(OpKind k) {
  switch (k) {
    case OpKind::kRelu:
    case OpKind::kRelu6:
    case OpKind::kTanh:
    case OpKind::kSigmoid:
    case OpKind::kElu:
      return true;
    default:
      return false;
  }
}

bool is_bound_transparent(OpKind k) {
  switch (k) {
    case OpKind::kMaxPool:
    case OpKind::kAvgPool:
    case OpKind::kGlobalAvgPool:
    case OpKind::kReshape:
    case OpKind::kFlatten:
    case OpKind::kConcat:
    case OpKind::kDropout:
      return true;
    default:
      return false;
  }
}

}  // namespace rangerpp::ops
