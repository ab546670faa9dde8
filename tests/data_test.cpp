#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "data/synthetic.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::data {
namespace {

TEST(SyntheticDigits, ShapesAndLabels) {
  const Dataset ds = synthetic_digits(50, 1);
  ASSERT_EQ(ds.samples.size(), 50u);
  std::set<int> labels;
  for (const Sample& s : ds.samples) {
    EXPECT_EQ(s.image.shape(), (tensor::Shape{1, 28, 28, 1}));
    EXPECT_GE(s.label, 0);
    EXPECT_LT(s.label, 10);
    labels.insert(s.label);
    for (float v : s.image.values()) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
  EXPECT_GT(labels.size(), 5u);  // covers most classes in 50 draws
}

TEST(SyntheticDigits, DeterministicAndSeedSensitive) {
  const Dataset a = synthetic_digits(5, 7);
  const Dataset b = synthetic_digits(5, 7);
  const Dataset c = synthetic_digits(5, 8);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.samples[i].label, b.samples[i].label);
    const auto av = a.samples[i].image.values();
    const auto bv = b.samples[i].image.values();
    for (std::size_t j = 0; j < av.size(); ++j)
      ASSERT_FLOAT_EQ(av[j], bv[j]);
  }
  bool any_diff = false;
  for (std::size_t i = 0; i < 5 && !any_diff; ++i)
    any_diff = a.samples[i].label != c.samples[i].label;
  // Either labels or pixels must differ across seeds.
  if (!any_diff) {
    const auto av = a.samples[0].image.values();
    const auto cv = c.samples[0].image.values();
    for (std::size_t j = 0; j < av.size() && !any_diff; ++j)
      any_diff = av[j] != cv[j];
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticDigits, ClassesAreVisuallyDistinct) {
  // Mean image of class 0 and class 1 must differ substantially: the
  // trained LeNet depends on separable classes.
  const Dataset ds = synthetic_digits(400, 3);
  std::vector<double> mean0(28 * 28, 0.0), mean1(28 * 28, 0.0);
  std::size_t n0 = 0, n1 = 0;
  for (const Sample& s : ds.samples) {
    if (s.label == 0) {
      ++n0;
      for (std::size_t j = 0; j < mean0.size(); ++j)
        mean0[j] += s.image.at(j);
    } else if (s.label == 1) {
      ++n1;
      for (std::size_t j = 0; j < mean1.size(); ++j)
        mean1[j] += s.image.at(j);
    }
  }
  ASSERT_GT(n0, 0u);
  ASSERT_GT(n1, 0u);
  double l1 = 0.0;
  for (std::size_t j = 0; j < mean0.size(); ++j)
    l1 += std::abs(mean0[j] / n0 - mean1[j] / n1);
  EXPECT_GT(l1, 10.0);
}

TEST(SyntheticObjects, ShapesClassesAndDeterminism) {
  const Dataset ds = synthetic_objects(30, 43, 32, 32, 5);
  ASSERT_EQ(ds.samples.size(), 30u);
  for (const Sample& s : ds.samples) {
    EXPECT_EQ(s.image.shape(), (tensor::Shape{1, 32, 32, 3}));
    EXPECT_GE(s.label, 0);
    EXPECT_LT(s.label, 43);
  }
  const Dataset again = synthetic_objects(30, 43, 32, 32, 5);
  EXPECT_EQ(ds.samples[7].label, again.samples[7].label);
  EXPECT_THROW(synthetic_objects(1, 0, 8, 8, 1), std::invalid_argument);
}

TEST(SyntheticObjects, SameClassSharesSignature) {
  // Two instances of one class correlate more than instances of different
  // classes (class = grating signature).
  const Dataset ds = synthetic_objects(300, 4, 16, 16, 11);
  auto find_two = [&](int label) {
    std::vector<const Sample*> out;
    for (const Sample& s : ds.samples)
      if (s.label == label && out.size() < 2) out.push_back(&s);
    return out;
  };
  const auto c0 = find_two(0);
  const auto c1 = find_two(1);
  ASSERT_EQ(c0.size(), 2u);
  ASSERT_EQ(c1.size(), 2u);
  auto corr = [](const Sample& a, const Sample& b) {
    const auto av = a.image.values();
    const auto bv = b.image.values();
    double s = 0.0;
    for (std::size_t i = 0; i < av.size(); ++i) s += av[i] * bv[i];
    return s;
  };
  EXPECT_GT(corr(*c0[0], *c0[1]) + corr(*c1[0], *c1[1]),
            2.0 * corr(*c0[0], *c1[0]) * 0.8);
}

TEST(SyntheticDriving, AnglesTrackCurvature) {
  const Dataset ds = synthetic_driving(100, 33, 80, 9);
  ASSERT_EQ(ds.samples.size(), 100u);
  double min_angle = 1e9, max_angle = -1e9;
  for (const Sample& s : ds.samples) {
    EXPECT_EQ(s.image.shape(), (tensor::Shape{1, 33, 80, 3}));
    EXPECT_GE(s.angle, -60.0f);
    EXPECT_LE(s.angle, 60.0f);
    min_angle = std::min<double>(min_angle, s.angle);
    max_angle = std::max<double>(max_angle, s.angle);
  }
  EXPECT_LT(min_angle, -20.0);  // both steering directions appear
  EXPECT_GT(max_angle, 20.0);
}

TEST(SyntheticDriving, RoadPositionCorrelatesWithAngle) {
  // For a strongly curved road the lower-row road pixels shift towards the
  // curve side; verify the asphalt centroid moves with the sign of the
  // angle.  This is what the steering models learn from.
  const Dataset ds = synthetic_driving(200, 33, 80, 13);
  double cov = 0.0;
  int used = 0;
  for (const Sample& s : ds.samples) {
    if (std::abs(s.angle) < 30.0f) continue;
    // Asphalt ~ grey: r ~ g ~ b; centroid of dark pixels at mid-height.
    const int y = 20;
    double cx = 0.0, mass = 0.0;
    for (int x = 0; x < 80; ++x) {
      const float r = s.image.at4(0, y, x, 0);
      const float g = s.image.at4(0, y, x, 1);
      const float b = s.image.at4(0, y, x, 2);
      if (std::abs(r - g) < 0.15f && std::abs(g - b) < 0.15f && r < 0.6f) {
        cx += x;
        mass += 1.0;
      }
    }
    if (mass < 3.0) continue;
    cov += (cx / mass - 40.0) * (s.angle > 0 ? 1.0 : -1.0);
    ++used;
  }
  ASSERT_GT(used, 10);
  EXPECT_GT(cov / used, 0.5);  // road visibly on the steering side
}

TEST(Dataset, FeedsConversion) {
  const Dataset ds = synthetic_digits(10, 2);
  const auto feeds = ds.feeds("input", 4);
  ASSERT_EQ(feeds.size(), 4u);
  EXPECT_TRUE(feeds[0].contains("input"));
  EXPECT_EQ(ds.feeds("input").size(), 10u);  // n=0 -> all
}

void expect_same_dataset(const Dataset& a, const Dataset& b,
                         const std::string& what) {
  ASSERT_EQ(a.samples.size(), b.samples.size()) << what;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const Sample& x = a.samples[i];
    const Sample& y = b.samples[i];
    EXPECT_EQ(x.label, y.label) << what << " sample " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(x.angle),
              std::bit_cast<std::uint32_t>(y.angle))
        << what << " sample " << i;
    ASSERT_EQ(x.image.shape(), y.image.shape()) << what << " sample " << i;
    const auto xv = x.image.values();
    const auto yv = y.image.values();
    for (std::size_t e = 0; e < xv.size(); ++e)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(xv[e]),
                std::bit_cast<std::uint32_t>(yv[e]))
          << what << " sample " << i << " element " << e;
  }
}

TEST(SyntheticData, ImageParallelGenerationMatchesSerial) {
  constexpr std::size_t n = 37;
  const Dataset digits = synthetic_digits(n, 11);
  const Dataset objects = synthetic_objects(n, 5, 9, 7, 11);
  const Dataset driving = synthetic_driving(n, 12, 16, 11);
  const util::ScopedPoolWorker inline_loops;  // every loop runs inline
  expect_same_dataset(digits, synthetic_digits(n, 11), "digits");
  expect_same_dataset(objects, synthetic_objects(n, 5, 9, 7, 11), "objects");
  expect_same_dataset(driving, synthetic_driving(n, 12, 16, 11), "driving");
}

TEST(Split, PrefixSplit) {
  Split s = split(synthetic_digits(10, 2), 7);
  EXPECT_EQ(s.train.samples.size(), 7u);
  EXPECT_EQ(s.validation.samples.size(), 3u);
  EXPECT_THROW(split(synthetic_digits(5, 2), 5), std::invalid_argument);
}

}  // namespace
}  // namespace rangerpp::data
