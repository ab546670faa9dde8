// Property-based / parameterized sweeps over the invariants the paper's
// analysis rests on:
//  * kernel correctness against brute-force reference implementations on
//    randomized shapes and values;
//  * quantisation properties of every datatype;
//  * the monotone fault-deviation property (§III-B) across datatypes;
//  * clamp algebra (idempotence, ordering, NaN suppression).
#include <gtest/gtest.h>

#include <cmath>

#include "ops/activation_ops.hpp"
#include "ops/nn_ops.hpp"
#include "ops/pool_ops.hpp"
#include "tensor/dtype.hpp"
#include "util/rng.hpp"

namespace rangerpp {
namespace {

using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

Tensor random_tensor(Shape s, util::Rng& rng, double scale = 1.0) {
  Tensor t(s);
  for (float& v : t.mutable_values())
    v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

// ---- Conv2D against a brute-force reference --------------------------------

struct ConvCase {
  int ih, iw, ic, oc, k, stride;
  ops::Padding pad;
};

class ConvReferenceTest : public ::testing::TestWithParam<ConvCase> {};

// Straightforward O(everything) reference convolution.
Tensor reference_conv(const Tensor& x, const Tensor& f, int stride,
                      ops::Padding pad) {
  const Shape& xs = x.shape();
  const Shape& fs = f.shape();
  const int kh = fs.dim(0), kw = fs.dim(1), ic = fs.dim(2), oc = fs.dim(3);
  int oh, ow, pad_top = 0, pad_left = 0;
  if (pad == ops::Padding::kSame) {
    oh = (xs.h() + stride - 1) / stride;
    ow = (xs.w() + stride - 1) / stride;
    pad_top = std::max(0, (oh - 1) * stride + kh - xs.h()) / 2;
    pad_left = std::max(0, (ow - 1) * stride + kw - xs.w()) / 2;
  } else {
    oh = (xs.h() - kh) / stride + 1;
    ow = (xs.w() - kw) / stride + 1;
  }
  Tensor y(Shape{1, oh, ow, oc});
  for (int oy = 0; oy < oh; ++oy)
    for (int ox = 0; ox < ow; ++ox)
      for (int co = 0; co < oc; ++co) {
        double acc = 0.0;
        for (int ky = 0; ky < kh; ++ky)
          for (int kx = 0; kx < kw; ++kx)
            for (int ci = 0; ci < ic; ++ci) {
              const int sy = oy * stride - pad_top + ky;
              const int sx = ox * stride - pad_left + kx;
              if (sy < 0 || sy >= xs.h() || sx < 0 || sx >= xs.w())
                continue;
              acc += static_cast<double>(x.at4(0, sy, sx, ci)) *
                     f.at4(ky, kx, ci, co);
            }
        y.set4(0, oy, ox, co, static_cast<float>(acc));
      }
  return y;
}

TEST_P(ConvReferenceTest, MatchesBruteForce) {
  const ConvCase c = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(c.ih * 131 + c.oc));
  const Tensor x = random_tensor(Shape{1, c.ih, c.iw, c.ic}, rng);
  const Tensor f =
      random_tensor(Shape{c.k, c.k, c.ic, c.oc}, rng, 0.5);
  const ops::Conv2DOp op({c.stride, c.stride, c.pad});
  const Tensor got = op.compute(std::array{x, f});
  const Tensor want = reference_conv(x, f, c.stride, c.pad);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.elements(); ++i)
    EXPECT_NEAR(got.at(i), want.at(i), 1e-4) << "element " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvReferenceTest,
    ::testing::Values(
        ConvCase{5, 5, 1, 1, 3, 1, ops::Padding::kValid},
        ConvCase{6, 6, 3, 4, 3, 1, ops::Padding::kSame},
        ConvCase{8, 10, 2, 5, 5, 2, ops::Padding::kValid},
        ConvCase{9, 7, 4, 3, 3, 2, ops::Padding::kSame},
        ConvCase{12, 12, 3, 8, 5, 4, ops::Padding::kSame},
        ConvCase{7, 7, 1, 2, 7, 1, ops::Padding::kValid}));

// ---- Pooling against reference ----------------------------------------------

TEST(PoolReference, RandomizedMaxPoolMatchesBruteForce) {
  util::Rng rng(77);
  for (int rep = 0; rep < 10; ++rep) {
    const int h = 4 + static_cast<int>(rng.uniform_index(6));
    const int w = 4 + static_cast<int>(rng.uniform_index(6));
    const int c = 1 + static_cast<int>(rng.uniform_index(3));
    const Tensor x = random_tensor(Shape{1, h, w, c}, rng);
    const ops::MaxPoolOp op({2, 2, 2, 2, ops::Padding::kValid});
    const Tensor y = op.compute(std::array{x});
    for (int oy = 0; oy < y.shape().h(); ++oy)
      for (int ox = 0; ox < y.shape().w(); ++ox)
        for (int cc = 0; cc < c; ++cc) {
          float m = -1e30f;
          for (int ky = 0; ky < 2; ++ky)
            for (int kx = 0; kx < 2; ++kx)
              m = std::max(m, x.at4(0, 2 * oy + ky, 2 * ox + kx, cc));
          EXPECT_FLOAT_EQ(y.at4(0, oy, ox, cc), m);
        }
  }
}

// ---- Datatype properties ------------------------------------------------------

class DTypeTest : public ::testing::TestWithParam<DType> {};

TEST_P(DTypeTest, QuantizeIsIdempotent) {
  const DType d = GetParam();
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, 100.0));
    const float q = tensor::dtype_quantize(d, v);
    EXPECT_EQ(tensor::dtype_quantize(d, q), q);
  }
}

TEST_P(DTypeTest, QuantizeIsMonotone) {
  const DType d = GetParam();
  float prev = tensor::dtype_quantize(d, -1e4f);
  for (float v = -1e4f; v <= 1e4f; v += 37.5f) {
    const float q = tensor::dtype_quantize(d, v);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST_P(DTypeTest, EncodeDecodeRoundTripsOnRepresentables) {
  const DType d = GetParam();
  util::Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const float q = tensor::dtype_quantize(
        d, static_cast<float>(rng.normal(0.0, 50.0)));
    EXPECT_EQ(tensor::dtype_decode(d, tensor::dtype_encode(d, q)), q);
  }
}

TEST_P(DTypeTest, MagnitudeBitFlipDeviationIsMonotone) {
  // §III-B: for fixed-point values, higher-order magnitude-bit flips
  // produce strictly larger deviations; this is what makes critical
  // faults "large-value" faults, the premise of range restriction.
  const DType d = GetParam();
  if (d == DType::kFloat32) GTEST_SKIP() << "exponent encoding differs";
  util::Rng rng(17);
  for (int rep = 0; rep < 50; ++rep) {
    const float v =
        tensor::dtype_quantize(d, static_cast<float>(rng.normal(0.0, 20.0)));
    double prev = 0.0;
    for (int bit = 0; bit < tensor::dtype_bits(d) - 1; ++bit) {
      const double dev =
          std::abs(static_cast<double>(tensor::dtype_flip_value(d, v, bit)) -
                   v);
      EXPECT_GT(dev, prev) << tensor::dtype_name(d) << " v=" << v
                           << " bit=" << bit;
      prev = dev;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDTypes, DTypeTest,
                         ::testing::Values(DType::kFloat32, DType::kFixed32,
                                           DType::kFixed16),
                         [](const auto& info) {
                           switch (info.param) {
                             case DType::kFloat32: return "float32";
                             case DType::kFixed32: return "fixed32";
                             default: return "fixed16";
                           }
                         });

// ---- Clamp algebra --------------------------------------------------------------

TEST(ClampAlgebra, IdempotentAndOrderPreserving) {
  const ops::ClampOp clamp(-2.0f, 3.0f);
  util::Rng rng(19);
  float prev_in = -1e9f, prev_out = -2.0f;
  for (int i = 0; i < 300; ++i) {
    const float x = static_cast<float>(rng.normal(0.0, 10.0));
    const Tensor once = clamp.compute(std::array{Tensor::scalar(x)});
    const Tensor twice = clamp.compute(std::array{once});
    EXPECT_EQ(once.at(0), twice.at(0));  // idempotent
    EXPECT_GE(once.at(0), -2.0f);
    EXPECT_LE(once.at(0), 3.0f);
    (void)prev_in;
    (void)prev_out;
  }
  // Monotone: clamp preserves order.
  for (float a = -5.0f; a < 5.0f; a += 0.25f) {
    const float ca = clamp.compute(std::array{Tensor::scalar(a)}).at(0);
    const float cb =
        clamp.compute(std::array{Tensor::scalar(a + 0.25f)}).at(0);
    EXPECT_LE(ca, cb);
  }
}

}  // namespace
}  // namespace rangerpp
