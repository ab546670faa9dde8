#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::data {

namespace {

// 7x5 glyph templates for digits 0-9 (classic seven-segment-like bitmaps).
constexpr const char* kGlyphs[10][7] = {
    {"#####", "#...#", "#...#", "#...#", "#...#", "#...#", "#####"},  // 0
    {"..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."},  // 1
    {"#####", "....#", "....#", "#####", "#....", "#....", "#####"},  // 2
    {"#####", "....#", "....#", "#####", "....#", "....#", "#####"},  // 3
    {"#...#", "#...#", "#...#", "#####", "....#", "....#", "....#"},  // 4
    {"#####", "#....", "#....", "#####", "....#", "....#", "#####"},  // 5
    {"#####", "#....", "#....", "#####", "#...#", "#...#", "#####"},  // 6
    {"#####", "....#", "...#.", "..#..", "..#..", "..#..", "..#.."},  // 7
    {"#####", "#...#", "#...#", "#####", "#...#", "#...#", "#####"},  // 8
    {"#####", "#...#", "#...#", "#####", "....#", "....#", "#####"},  // 9
};

}  // namespace

std::vector<fi::Feeds> Dataset::feeds(const std::string& input_name,
                                      std::size_t n) const {
  if (n == 0 || n > samples.size()) n = samples.size();
  std::vector<fi::Feeds> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(fi::Feeds{{input_name, samples[i].image}});
  return out;
}

Dataset synthetic_digits(std::size_t n, std::uint64_t seed) {
  constexpr int kH = 28, kW = 28;
  Dataset ds;
  ds.samples.resize(n);
  util::parallel_for(n, [&](std::size_t i) {
    util::Rng rng(util::derive_seed(seed, i));
    const int label = static_cast<int>(rng.uniform_index(10));
    tensor::Tensor img(tensor::Shape{1, kH, kW, 1});

    // Glyph cell size and jittered placement.
    const int scale = 3;
    const int gh = 7 * scale, gw = 5 * scale;
    const int oy = 3 + static_cast<int>(rng.uniform_index(
                           static_cast<std::uint64_t>(kH - gh - 6 + 1)));
    const int ox = 4 + static_cast<int>(rng.uniform_index(
                           static_cast<std::uint64_t>(kW - gw - 8 + 1)));
    const float intensity = static_cast<float>(rng.uniform(0.7, 1.0));

    for (int y = 0; y < gh; ++y)
      for (int x = 0; x < gw; ++x)
        if (kGlyphs[label][y / scale][x / scale] == '#')
          img.set4(0, oy + y, ox + x, 0, intensity);

    // Stroke smear: thicken strokes probabilistically to vary thickness.
    if (rng.bernoulli(0.5)) {
      for (int y = kH - 2; y >= 1; --y)
        for (int x = kW - 2; x >= 1; --x)
          if (img.at4(0, y, x, 0) == 0.0f &&
              (img.at4(0, y - 1, x, 0) > 0.5f ||
               img.at4(0, y, x - 1, 0) > 0.5f) &&
              rng.bernoulli(0.35))
            img.set4(0, y, x, 0, intensity * 0.8f);
    }

    // Per-pixel noise.
    for (float& v : img.mutable_values()) {
      v += static_cast<float>(rng.normal(0.0, 0.05));
      v = std::clamp(v, 0.0f, 1.0f);
    }

    ds.samples[i] = Sample{std::move(img), label, 0.0f};
  });
  return ds;
}

Dataset synthetic_objects(std::size_t n, int classes, int height, int width,
                          std::uint64_t seed) {
  if (classes <= 0) throw std::invalid_argument("synthetic_objects: classes");
  Dataset ds;
  ds.samples.resize(n);
  util::parallel_for(n, [&](std::size_t i) {
    util::Rng rng(util::derive_seed(seed, i));
    const int label = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(classes)));

    // Class signature: two oriented gratings + a colour rotation, all
    // deterministic functions of the label.
    util::Rng class_rng(util::derive_seed(seed ^ 0xc1a55ULL,
                                          static_cast<std::uint64_t>(label)));
    const double theta1 = class_rng.uniform(0.0, std::numbers::pi);
    const double theta2 = class_rng.uniform(0.0, std::numbers::pi);
    const double freq1 = class_rng.uniform(0.15, 0.8);
    const double freq2 = class_rng.uniform(0.15, 0.8);
    const double hue[3] = {class_rng.uniform(0.2, 1.0),
                           class_rng.uniform(0.2, 1.0),
                           class_rng.uniform(0.2, 1.0)};

    // Instance variation.
    const double phase1 = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double phase2 = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double gain = rng.uniform(0.7, 1.2);

    tensor::Tensor img(tensor::Shape{1, height, width, 3});
    for (int y = 0; y < height; ++y)
      for (int x = 0; x < width; ++x) {
        const double u1 = std::cos(theta1) * x + std::sin(theta1) * y;
        const double u2 = std::cos(theta2) * x + std::sin(theta2) * y;
        const double pattern = 0.5 + 0.25 * std::sin(freq1 * u1 + phase1) +
                               0.25 * std::sin(freq2 * u2 + phase2);
        for (int c = 0; c < 3; ++c) {
          double v = gain * pattern * hue[c] + rng.normal(0.0, 0.04);
          img.set4(0, y, x, c,
                   static_cast<float>(std::clamp(v, 0.0, 1.0)));
        }
      }
    ds.samples[i] = Sample{std::move(img), label, 0.0f};
  });
  return ds;
}

Dataset synthetic_driving(std::size_t n, int height, int width,
                          std::uint64_t seed) {
  Dataset ds;
  ds.samples.resize(n);
  util::parallel_for(n, [&](std::size_t i) {
    util::Rng rng(util::derive_seed(seed, i));

    // Road curvature in [-1, 1]; steering angle proportional, in degrees.
    // The SullyChen recordings span roughly ±180 degrees of wheel angle;
    // we use ±60 to keep synthetic roads renderable.
    const double curvature = rng.uniform(-1.0, 1.0);
    const float angle_deg = static_cast<float>(60.0 * curvature);

    tensor::Tensor img(tensor::Shape{1, height, width, 3});
    const int horizon = height / 3;
    for (int y = 0; y < height; ++y) {
      // Perspective: t = 0 at horizon, 1 at bottom.
      const double t =
          y <= horizon
              ? 0.0
              : static_cast<double>(y - horizon) / (height - 1 - horizon);
      // Road centre drifts with curvature as it approaches the viewer.
      const double centre =
          width / 2.0 + curvature * (1.0 - t) * (1.0 - t) * (width / 2.5);
      const double half_width = (0.08 + 0.42 * t) * width;
      for (int x = 0; x < width; ++x) {
        double r, g, b;
        if (y <= horizon) {
          // Sky.
          r = 0.45; g = 0.62; b = 0.85;
        } else if (std::abs(x - centre) < half_width) {
          // Asphalt with a dashed centre line.
          const bool lane_line =
              std::abs(x - centre) < 0.02 * width && (y / 3) % 2 == 0;
          const double shade = 0.25 + 0.1 * t;
          r = g = b = lane_line ? 0.9 : shade;
        } else {
          // Grass.
          r = 0.22; g = 0.5 + 0.1 * t; b = 0.2;
        }
        img.set4(0, y, x, 0,
                 static_cast<float>(std::clamp(
                     r + rng.normal(0.0, 0.03), 0.0, 1.0)));
        img.set4(0, y, x, 1,
                 static_cast<float>(std::clamp(
                     g + rng.normal(0.0, 0.03), 0.0, 1.0)));
        img.set4(0, y, x, 2,
                 static_cast<float>(std::clamp(
                     b + rng.normal(0.0, 0.03), 0.0, 1.0)));
      }
    }
    ds.samples[i] = Sample{std::move(img), 0, angle_deg};
  });
  return ds;
}

Split split(Dataset all, std::size_t train_n) {
  if (train_n >= all.samples.size())
    throw std::invalid_argument("split: train_n exceeds dataset");
  Split s;
  s.train.samples.assign(all.samples.begin(),
                         all.samples.begin() + static_cast<long>(train_n));
  s.validation.samples.assign(
      all.samples.begin() + static_cast<long>(train_n), all.samples.end());
  return s;
}

}  // namespace rangerpp::data
