// The paper's eight DNN benchmarks (Table I), reproduced with faithful
// topology at CPU-tractable input scale (DESIGN.md §3):
//
//   LeNet-5      28x28x1   synthetic digits (MNIST stand-in), trained
//   AlexNet      32x32x3   synthetic objects (CIFAR-10 stand-in)
//   VGG11        32x32x3   synthetic traffic signs (GTSRB stand-in, 43 cls)
//   VGG16        32x32x3   synthetic objects (ImageNet stand-in, 1000 cls)
//   ResNet-18    32x32x3   synthetic objects (ImageNet stand-in, 1000 cls)
//   SqueezeNet   32x32x3   synthetic objects (ImageNet stand-in, 1000 cls)
//   Dave         66x100x3  synthetic driving frames, radians output, trained
//   Comma.ai     33x80x3   synthetic driving frames, degrees output, trained
//
// Variants:
//   * Act substitution (Tanh for the Hong-et-al. comparison, Fig 8);
//   * Dave-degrees — the retrained degrees-output Dave of §VI-A.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "graph/graph.hpp"
#include "models/arch.hpp"

namespace rangerpp::models {

enum class ModelId {
  kLeNet,
  kAlexNet,
  kVgg11,
  kVgg16,
  kResNet18,
  kSqueezeNet,
  kDave,         // radians output (original Nvidia Dave head: 2*atan(x))
  kDaveDegrees,  // retrained degrees-output variant (§VI-A)
  kComma,        // degrees output
};

std::string model_name(ModelId id);

// Stable lowercase CLI/identifier token ("lenet", "resnet18", …) and its
// inverse — the grammar the CLIs, the scheduler wire format and the
// suite's cell ids share, so a cell id written by one tool parses in
// another.
std::string model_token(ModelId id);
std::optional<ModelId> model_from_token(std::string_view token);

// True for the ImageNet-scale classifiers where the paper reports both
// top-1 and top-5 SDC rates.
bool reports_top5(ModelId id);

// True for the steering (regression) models.
bool is_steering(ModelId id);

// True when the model's scalar output is radians (only Dave).
bool outputs_radians(ModelId id);

// Number of classes (0 for steering models).
int num_classes(ModelId id);

// --- Sequential architectures -------------------------------------------
// Defined for every model except ResNet-18 and SqueezeNet (which branch).
// `act` substitutes the activation function throughout (default = the
// model's published activation: ReLU everywhere except Comma's ELU).
Arch make_arch(ModelId id, ops::OpKind act);
Arch make_arch(ModelId id);

// Published activation of a model.
ops::OpKind default_act(ModelId id);

// --- Graph construction ---------------------------------------------------
// Builds the inference graph with the given weights; for ResNet-18 and
// SqueezeNet this assembles the branching graph directly.
graph::Graph build_model(ModelId id, ops::OpKind act, const Weights& w);

// Deterministic He-initialised weights for (model, act).
Weights init_weights(ModelId id, ops::OpKind act, std::uint64_t seed);

// Can this (model, act) combination be trained by train::fit?
bool is_trainable(ModelId id);

// Models whose final classifier layer is trained by head calibration
// (head_calibration.hpp) instead of end-to-end training.
bool has_calibrated_head(ModelId id);

// Where a model's classifier head lives: the feature node feeding it and
// the weight-map keys of its parameters.
struct HeadSpec {
  std::string feature_node;
  std::string weights_key;
  std::string bias_key;
  bool conv_head = false;  // SqueezeNet: fold [dim, classes] into 1x1 conv
};
HeadSpec head_spec(ModelId id);

}  // namespace rangerpp::models
