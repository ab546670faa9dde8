// Procedural dataset generators.  All generators are deterministic given
// (seed, index) so every bench and test sees identical data: image i
// draws only from its own stream, derive_seed(seed, i), which is what
// lets the generators build images in parallel (util::parallel_for).
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace rangerpp::data {

// 28x28x1 hand-drawn-style digits (MNIST stand-in): ten 7x5 glyph
// templates rendered with random translation, stroke-thickness jitter,
// per-pixel noise, and contrast variation.
Dataset synthetic_digits(std::size_t n, std::uint64_t seed);

// Generic structured RGB images (CIFAR-10 / GTSRB / ImageNet stand-ins):
// each class is a distinct mixture of oriented sinusoidal gratings and a
// class-specific colour signature, plus noise — enough structure for a
// trained model to separate classes and for activations to have realistic,
// input-dependent ranges.
Dataset synthetic_objects(std::size_t n, int classes, int height, int width,
                          std::uint64_t seed);

// Driving frames (SullyChen dataset stand-in): renders a straight-or-curved
// road with lane markings, horizon and noise onto an h x w x 3 frame.  The
// steering label (degrees) is proportional to the road curvature, like a
// real centre-lane driving recording.
Dataset synthetic_driving(std::size_t n, int height, int width,
                          std::uint64_t seed);

// Deterministic split helper: first `train_n` samples train, next `val_n`
// validate (generators produce i.i.d. streams, so a prefix split is fair).
Split split(Dataset all, std::size_t train_n);

}  // namespace rangerpp::data
