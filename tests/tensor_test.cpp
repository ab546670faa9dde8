#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace rangerpp::tensor {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{1, 4, 5, 3};
  EXPECT_EQ(s.rank(), 4);
  EXPECT_EQ(s.elements(), 60u);
  EXPECT_EQ(s.n(), 1);
  EXPECT_EQ(s.h(), 4);
  EXPECT_EQ(s.w(), 5);
  EXPECT_EQ(s.c(), 3);
  EXPECT_EQ(s.to_string(), "[1,4,5,3]");
}

TEST(Shape, EqualityAndErrors) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
  EXPECT_NE((Shape{2, 3}), (Shape{2, 3, 1}));
  EXPECT_THROW((Shape{0}), std::invalid_argument);
  EXPECT_THROW((Shape{1, 2, 3, 4}.dim(4)), std::out_of_range);
}

TEST(Tensor, ZeroInitAndSetGet) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.elements(), 6u);
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
  t.set(4, 2.5f);
  EXPECT_FLOAT_EQ(t.at(4), 2.5f);
  EXPECT_THROW(t.at(6), std::out_of_range);
}

TEST(Tensor, Nhwc4DAccess) {
  Tensor t(Shape{1, 2, 2, 3});
  t.set4(0, 1, 0, 2, 7.0f);
  EXPECT_FLOAT_EQ(t.at4(0, 1, 0, 2), 7.0f);
  // NHWC flat layout: ((h*W)+w)*C + c = ((1*2)+0)*3+2 = 8.
  EXPECT_FLOAT_EQ(t.at(8), 7.0f);
  EXPECT_THROW(t.at4(0, 2, 0, 0), std::out_of_range);
}

TEST(Tensor, CloneIsDeep) {
  Tensor a(Shape{2}, {1.0f, 2.0f});
  Tensor b = a.clone();
  b.set(0, 9.0f);
  EXPECT_FLOAT_EQ(a.at(0), 1.0f);
}

TEST(Tensor, ReshapeSharesUntilWrite) {
  Tensor a(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b = a.reshaped(Shape{4});
  EXPECT_EQ(b.shape().rank(), 1);
  // Copy-on-write: mutating the view must not corrupt the original.
  b.set(0, 9.0f);
  EXPECT_FLOAT_EQ(a.at(0), 1.0f);
  EXPECT_THROW(a.reshaped(Shape{3}), std::invalid_argument);
}

TEST(Tensor, ShapeValueCountMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{3}, {1.0f}), std::invalid_argument);
}

// ---- Datatype codecs ------------------------------------------------------

TEST(DType, Float32RoundTripIsExact) {
  for (float v : {0.0f, -1.5f, 3.14159f, 1e10f, -1e-10f}) {
    EXPECT_EQ(dtype_quantize(DType::kFloat32, v), v);
  }
}

TEST(DType, Fixed32RoundTripWithinResolution) {
  const FixedPointFormat f = fixed32_format();
  EXPECT_EQ(f.total_bits, 32);
  EXPECT_EQ(f.frac_bits, 10);
  for (float v : {0.0f, 1.0f, -1.0f, 123.456f, -9876.5f}) {
    EXPECT_NEAR(dtype_quantize(DType::kFixed32, v), v, f.resolution());
  }
}

TEST(DType, Fixed16RoundTripWithinResolution) {
  const FixedPointFormat f = fixed16_format();
  EXPECT_EQ(f.total_bits, 16);
  EXPECT_EQ(f.frac_bits, 2);
  for (float v : {0.0f, 1.0f, -1.0f, 100.25f, -511.5f}) {
    EXPECT_NEAR(dtype_quantize(DType::kFixed16, v), v, f.resolution());
  }
}

TEST(DType, FixedPointSaturates) {
  const double max32 = fixed32_format().max_value();
  EXPECT_NEAR(dtype_quantize(DType::kFixed32, 1e9f), max32, 1.0);
  EXPECT_NEAR(dtype_quantize(DType::kFixed32, -1e9f),
              fixed32_format().min_value(), 1.0);
  const double max16 = fixed16_format().max_value();
  EXPECT_NEAR(dtype_quantize(DType::kFixed16, 1e6f), max16, 1.0);
}

// Values far past the range saturate by sign, per element and per span —
// also where the scaled value overflows llround's int64 range (1e20 is
// past 2^63 once scaled by any of these formats' 2^frac_bits).
TEST(DType, HugeValuesSaturateBySign) {
  const QScheme schemes[] = {
      DType::kFixed32, DType::kFixed16, DType::kInt8,
      QScheme{DType::kInt8, FixedPointFormat{8, 24, 5}}};
  for (const QScheme& s : schemes) {
    const float hi = static_cast<float>(s.fmt.max_value());
    const float lo = static_cast<float>(s.fmt.min_value());
    const std::string what(dtype_name(s.dtype));
    EXPECT_EQ(q_quantize(s, 1e20f), hi) << what;
    EXPECT_EQ(q_quantize(s, -1e20f), lo) << what;
    std::vector<float> span = {1e20f, -1e20f, 1e16f, -1e16f};
    q_quantize_span(s, span);
    EXPECT_EQ(span, (std::vector<float>{hi, lo, hi, lo})) << what;
  }
}

TEST(DType, NanEncodesToZeroInFixedPoint) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(dtype_quantize(DType::kFixed32, nan), 0.0f);
}

TEST(DType, BitWidths) {
  EXPECT_EQ(dtype_bits(DType::kFloat32), 32);
  EXPECT_EQ(dtype_bits(DType::kFixed32), 32);
  EXPECT_EQ(dtype_bits(DType::kFixed16), 16);
}

TEST(DType, FlipBitIsInvolution) {
  for (DType d : {DType::kFloat32, DType::kFixed32, DType::kFixed16}) {
    const std::uint64_t bits = dtype_encode(d, 5.25f);
    for (int b = 0; b < dtype_bits(d); ++b) {
      EXPECT_EQ(dtype_flip_bit(d, dtype_flip_bit(d, bits, b), b), bits)
          << dtype_name(d) << " bit " << b;
    }
  }
  EXPECT_THROW(dtype_flip_bit(DType::kFixed16, 0, 16), std::out_of_range);
}

TEST(DType, FlipChangesValueForQuantizedInputs) {
  // For a value already representable, any bit flip must change it.
  for (DType d : {DType::kFixed32, DType::kFixed16}) {
    const float v = dtype_quantize(d, 7.5f);
    for (int b = 0; b < dtype_bits(d); ++b) {
      EXPECT_NE(dtype_flip_value(d, v, b), v)
          << dtype_name(d) << " bit " << b;
    }
  }
}

TEST(DType, HighOrderFlipsCauseLargerDeviation) {
  // The monotone-deviation property Ranger's analysis rests on (§III-B):
  // in fixed point, flipping a higher-order magnitude bit produces a
  // larger absolute deviation.
  const float v = dtype_quantize(DType::kFixed32, 10.0f);
  double prev = 0.0;
  for (int b = 0; b < 31; ++b) {  // skip the sign bit
    const double dev = std::abs(dtype_flip_value(DType::kFixed32, v, b) - v);
    EXPECT_GT(dev, prev) << "bit " << b;
    prev = dev;
  }
}

TEST(DType, Fixed16SignBitNegates) {
  const float v = dtype_quantize(DType::kFixed16, 100.0f);
  const float flipped = dtype_flip_value(DType::kFixed16, v, 15);
  EXPECT_LT(flipped, 0.0f);
}

}  // namespace
}  // namespace rangerpp::tensor
