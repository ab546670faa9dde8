#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <thread>
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

// ---- Quantizer: one formula, the codec pair's bytes -----------------------

// The canonical formats, and calibrated int8 formats whose zero points sit
// inside the raw range, past it on either side, past 32-bit lanes (the
// scalar fallback) and at the finest resolution int8_format_for_range
// picks.
std::vector<QScheme> codec_schemes() {
  return {DType::kFixed32,
          DType::kFixed16,
          DType::kInt8,
          QScheme{DType::kInt8, FixedPointFormat{8, 5, -7}},
          QScheme{DType::kInt8, FixedPointFormat{8, 4, -1680}},
          QScheme{DType::kInt8, FixedPointFormat{8, 0, 200}},
          QScheme{DType::kInt8, FixedPointFormat{8, 0, -3'000'000'000LL}},
          QScheme{DType::kInt8, FixedPointFormat{8, 24, 100}}};
}

std::string scheme_name(const QScheme& s) {
  return std::string(dtype_name(s.dtype)) + " frac " +
         std::to_string(s.fmt.frac_bits) + " zp " +
         std::to_string(s.fmt.zero_point);
}

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

// Elements of `xs` where the per-element quantiser or the span quantiser
// (run over the chunks `xs` is cut into, so spans start at every offset
// mod 4 and end in tails of every length) disagrees with
// q_decode(q_encode(x)) in any bit.  A canonical scheme also runs
// dtype_quantize_span, and `with_q_quantize` adds q_quantize, which
// resolves its constants per call.
std::size_t codec_mismatches(const QScheme& s, std::span<const float> xs,
                             bool with_q_quantize) {
  const Quantizer quantize(s);
  const bool canonical = s == QScheme(s.dtype);
  std::vector<float> span(xs.begin(), xs.end());
  std::vector<float> dspan(canonical ? xs.size() : 0);
  std::copy_n(xs.begin(), dspan.size(), dspan.begin());
  for (std::size_t lo = 0, len = 1; lo < span.size();
       lo += len, len = len % 13 + 1) {
    const std::size_t n = std::min(len, span.size() - lo);
    q_quantize_span(s, std::span<float>(span).subspan(lo, n));
    if (canonical)
      dtype_quantize_span(s.dtype, std::span<float>(dspan).subspan(lo, n));
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint32_t want = bits_of(q_decode(s, q_encode(s, xs[i])));
    const bool ok =
        bits_of(quantize(xs[i])) == want && bits_of(span[i]) == want &&
        (!canonical || bits_of(dspan[i]) == want) &&
        (!with_q_quantize || bits_of(q_quantize(s, xs[i])) == want);
    if (!ok && ++bad <= 5)
      ADD_FAILURE() << scheme_name(s) << ": bits 0x" << std::hex
                    << bits_of(xs[i]) << std::dec << " (" << xs[i]
                    << ") quantises to " << quantize(xs[i]) << " / "
                    << span[i] << ", codec gives "
                    << q_decode(s, q_encode(s, xs[i]));
  }
  return bad;
}

// The floats around `x`: x itself and `k` neighbours on either side.
void add_neighbourhood(std::vector<float>& out, float x, int k) {
  float up = x, down = x;
  out.push_back(x);
  for (int i = 0; i < k; ++i) {
    up = std::nextafter(up, std::numeric_limits<float>::infinity());
    down = std::nextafter(down, -std::numeric_limits<float>::infinity());
    out.push_back(up);
    out.push_back(down);
  }
}

// Values where the formula could part from llround: every clamp bound and
// the half-way points beside it, the ±(n + 0.5)·2^-frac ties at the ends
// and middle of every binade, NaN payloads, infinities, subnormals and
// both zeros.
std::vector<float> edge_values(const QScheme& s) {
  std::vector<float> out;
  const double scale = std::ldexp(1.0, s.fmt.frac_bits);
  for (const double raw : {s.fmt.min_value() * scale,
                           s.fmt.max_value() * scale})
    for (const double d : {-1.0, -0.5, 0.0, 0.5, 1.0})
      add_neighbourhood(out, static_cast<float>((raw + d) / scale), 8);
  for (int e = 0; e < 23; ++e) {
    const double lo = std::ldexp(1.0, e), hi = std::ldexp(1.0, e + 1) - 1;
    for (const double n : {lo, hi, std::floor((lo + hi) / 2)})
      for (const double sign : {1.0, -1.0})
        add_neighbourhood(out, static_cast<float>(sign * (n + 0.5) / scale),
                          2);
  }
  for (const double sign : {1.0, -1.0})
    add_neighbourhood(out, static_cast<float>(sign * 0.5 / scale), 2);
  for (const std::uint32_t b :
       {0x7f800001u, 0x7fa00000u, 0x7fc00000u, 0x7fc00001u, 0x7fffffffu,
        0xff800001u, 0xffc00000u, 0xffffffffu, 0x7f800000u, 0xff800000u,
        0x00000001u, 0x00000002u, 0x00400000u, 0x007fffffu, 0x80000001u,
        0x80400000u, 0x807fffffu, 0x00000000u, 0x80000000u})
    out.push_back(std::bit_cast<float>(b));
  return out;
}

TEST(QuantizerTest, MatchesCodecOnSampledFloats) {
  // Every 251st bit pattern (251 is prime, so the sample walks every
  // exponent and low mantissa bit), then the edge values.
  std::vector<float> sampled;
  for (std::uint64_t b = 0; b < (1ULL << 32); b += 251)
    sampled.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(b)));
  for (const QScheme& s : codec_schemes()) {
    EXPECT_EQ(codec_mismatches(s, sampled, false), 0u) << scheme_name(s);
    EXPECT_EQ(codec_mismatches(s, edge_values(s), true), 0u)
        << scheme_name(s);
  }
}

TEST(QuantizerTest, Float32SpansAreUntouched) {
  std::vector<float> v = {1.0f, -0.0f, 1e-45f, 3.0e38f,
                          std::bit_cast<float>(0x7fa00001u)};
  const std::vector<float> before = v;
  q_quantize_span(DType::kFloat32, v);
  dtype_quantize_span(DType::kFloat32, v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(bits_of(v[i]), bits_of(before[i]));
    EXPECT_EQ(bits_of(Quantizer(DType::kFloat32)(before[i])),
              bits_of(before[i]));
  }
}

// Every float, every format, on four threads: the equality every record's
// bytes rest on.  Disabled by default (minutes in a Release build); CI's
// release legs run it with --gtest_also_run_disabled_tests
// --gtest_filter=*Exhaustive*.
TEST(QuantizerTest, DISABLED_ExhaustiveMatchesCodec) {
  constexpr std::uint64_t kChunk = 1 << 16;
  for (const QScheme& s : codec_schemes()) {
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::size_t> bad{0};
    const auto work = [&] {
      std::vector<float> xs(kChunk);
      for (std::uint64_t lo; (lo = next.fetch_add(kChunk)) < (1ULL << 32);) {
        for (std::uint64_t i = 0; i < kChunk; ++i)
          xs[i] = std::bit_cast<float>(static_cast<std::uint32_t>(lo + i));
        bad += codec_mismatches(s, xs, false);
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(work);
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(bad.load(), 0u) << scheme_name(s);
  }
}

}  // namespace
}  // namespace rangerpp::tensor
