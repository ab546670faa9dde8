#include "tensor/dtype.hpp"

#include <bit>
#include <climits>
#include <cmath>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rangerpp::tensor {

namespace {

constexpr FixedPointFormat kFixed32{32, 10};
constexpr FixedPointFormat kFixed16{16, 2};
constexpr FixedPointFormat kInt8{8, 3};

// llround of a value at or beyond 2^63 in magnitude is unspecified (glibc
// returns LLONG_MIN for either sign), so the encoders saturate a scaled
// value past this limit by sign before rounding — +/-inf included.
constexpr double kLlroundLimit = 0x1p63;

// Encodes into two's-complement fixed point with saturation.  With
// zero_point = 0 the `shifted` value equals the llround result exactly,
// so every branch below matches the original symmetric encoder bit for
// bit — the fixed32/fixed16 determinism gates rest on that.
std::uint64_t fixed_encode(const FixedPointFormat& f, float value) {
  const std::int64_t max_raw = (1LL << (f.total_bits - 1)) - 1;
  const std::int64_t min_raw = -(1LL << (f.total_bits - 1));
  const double scaled =
      static_cast<double>(value) * static_cast<double>(1LL << f.frac_bits);
  std::int64_t raw;
  if (std::isnan(value)) {
    // NaN decodes to 0.0: store the zero point, clamped into range.
    raw = f.zero_point > max_raw   ? max_raw
          : f.zero_point < min_raw ? min_raw
                                   : f.zero_point;
  } else if (std::fabs(scaled) >= kLlroundLimit) {
    raw = scaled > 0.0 ? max_raw : min_raw;
  } else {
    const double shifted = static_cast<double>(std::llround(scaled)) +
                           static_cast<double>(f.zero_point);
    if (shifted >= static_cast<double>(max_raw)) {
      raw = max_raw;
    } else if (shifted <= static_cast<double>(min_raw)) {
      raw = min_raw;
    } else {
      raw = static_cast<std::int64_t>(shifted);
    }
  }
  const std::uint64_t mask =
      f.total_bits == 64 ? ~0ULL : ((1ULL << f.total_bits) - 1);
  return static_cast<std::uint64_t>(raw) & mask;
}

float fixed_decode(const FixedPointFormat& f, std::uint64_t bits) {
  const std::uint64_t mask =
      f.total_bits == 64 ? ~0ULL : ((1ULL << f.total_bits) - 1);
  std::uint64_t raw = bits & mask;
  // Sign-extend.
  const std::uint64_t sign_bit = 1ULL << (f.total_bits - 1);
  std::int64_t value;
  if (raw & sign_bit) {
    value = static_cast<std::int64_t>(raw | ~mask);
  } else {
    value = static_cast<std::int64_t>(raw);
  }
  return static_cast<float>(static_cast<double>(value - f.zero_point) /
                            static_cast<double>(1LL << f.frac_bits));
}

}  // namespace

double FixedPointFormat::max_value() const {
  return static_cast<double>((1LL << (total_bits - 1)) - 1 - zero_point) /
         static_cast<double>(1LL << frac_bits);
}

double FixedPointFormat::min_value() const {
  return static_cast<double>(-(1LL << (total_bits - 1)) - zero_point) /
         static_cast<double>(1LL << frac_bits);
}

double FixedPointFormat::resolution() const {
  return 1.0 / static_cast<double>(1LL << frac_bits);
}

FixedPointFormat fixed32_format() { return kFixed32; }
FixedPointFormat fixed16_format() { return kFixed16; }
FixedPointFormat int8_format() { return kInt8; }

FixedPointFormat canonical_format(DType d) {
  switch (d) {
    case DType::kFloat32:
      return {32, 0};  // placeholder; the Float32 codec ignores it
    case DType::kFixed32:
      return kFixed32;
    case DType::kFixed16:
      return kFixed16;
    case DType::kInt8:
      return kInt8;
  }
  throw std::invalid_argument("canonical_format: bad dtype");
}

std::string_view dtype_name(DType d) {
  switch (d) {
    case DType::kFloat32:
      return "float32";
    case DType::kFixed32:
      return "fixed32(Q21.10)";
    case DType::kFixed16:
      return "fixed16(Q13.2)";
    case DType::kInt8:
      return "int8(Q4.3)";
  }
  return "unknown";
}

int dtype_bits(DType d) {
  switch (d) {
    case DType::kFloat32:
      return 32;
    case DType::kFixed32:
      return 32;
    case DType::kFixed16:
      return 16;
    case DType::kInt8:
      return 8;
  }
  return 0;
}

std::uint64_t dtype_encode(DType d, float value) {
  switch (d) {
    case DType::kFloat32:
      return std::bit_cast<std::uint32_t>(value);
    case DType::kFixed32:
      return fixed_encode(kFixed32, value);
    case DType::kFixed16:
      return fixed_encode(kFixed16, value);
    case DType::kInt8:
      return fixed_encode(kInt8, value);
  }
  throw std::invalid_argument("dtype_encode: bad dtype");
}

float dtype_decode(DType d, std::uint64_t bits) {
  switch (d) {
    case DType::kFloat32:
      return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
    case DType::kFixed32:
      return fixed_decode(kFixed32, bits);
    case DType::kFixed16:
      return fixed_decode(kFixed16, bits);
    case DType::kInt8:
      return fixed_decode(kInt8, bits);
  }
  throw std::invalid_argument("dtype_decode: bad dtype");
}

void dtype_quantize_span(DType d, std::span<float> v) {
  Quantizer(QScheme(d)).apply(v);
}

std::uint64_t dtype_flip_bit(DType d, std::uint64_t bits, int bit) {
  const int width = dtype_bits(d);
  if (bit < 0 || bit >= width)
    throw std::out_of_range("dtype_flip_bit: bit out of range");
  return bits ^ (1ULL << bit);
}

float dtype_flip_value(DType d, float value, int bit) {
  const std::uint64_t bits = dtype_encode(d, value);
  return dtype_decode(d, dtype_flip_bit(d, bits, bit));
}

std::uint64_t dtype_write_bit(DType d, std::uint64_t bits, int bit,
                              bool set) {
  const int width = dtype_bits(d);
  if (bit < 0 || bit >= width)
    throw std::out_of_range("dtype_write_bit: bit out of range");
  return set ? bits | (1ULL << bit) : bits & ~(1ULL << bit);
}

float dtype_write_bit_value(DType d, float value, int bit, bool set) {
  const std::uint64_t bits = dtype_encode(d, value);
  return dtype_decode(d, dtype_write_bit(d, bits, bit, set));
}

namespace {

bool is_canonical(const QScheme& s) {
  return s.dtype == DType::kFloat32 || s.fmt == canonical_format(s.dtype);
}

}  // namespace

std::uint64_t q_encode(const QScheme& s, float value) {
  if (s.dtype == DType::kFloat32)
    return std::bit_cast<std::uint32_t>(value);
  return fixed_encode(s.fmt, value);
}

float q_decode(const QScheme& s, std::uint64_t bits) {
  if (s.dtype == DType::kFloat32)
    return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
  return fixed_decode(s.fmt, bits);
}

float q_quantize(const QScheme& s, float value) {
  return Quantizer(s)(value);
}

void q_quantize_span(const QScheme& s, std::span<float> v) {
  Quantizer(s).apply(v);
}

Quantizer::Quantizer(const QScheme& s) : s_(s) {
  if (s.dtype == DType::kFloat32) return;
  path_ = Path::kCodec;
  // Past these magnitudes the bounds below (or their difference) stop
  // being exact doubles, and so does c + 0.5 in the formula.
  constexpr std::int64_t kExact = 1LL << 52;
  const FixedPointFormat& f = s.fmt;
  if (f.total_bits > 52 || f.zero_point > kExact || f.zero_point < -kExact)
    return;
  const std::int64_t lo = -(1LL << (f.total_bits - 1)) - f.zero_point;
  const std::int64_t hi = (1LL << (f.total_bits - 1)) - 1 - f.zero_point;
  if (lo < -kExact || hi > kExact) return;
  path_ = Path::kFormula;
  int32_lanes_ = lo >= INT32_MIN && hi <= INT32_MAX;
  scale_ = static_cast<double>(1LL << f.frac_bits);
  inv_scale_ = 1.0 / scale_;
  lo_ = static_cast<double>(lo);
  hi_ = static_cast<double>(hi);
}

// Cache-line aligned, as ops::blocked::gemm_rows is: every kernel's store
// runs through this loop, and its placement alone has moved benchmark
// throughput before.
__attribute__((aligned(64))) void Quantizer::apply(std::span<float> v) const {
  if (path_ != Path::kFormula) {
    if (path_ == Path::kCodec)
      for (float& x : v) x = q_decode(s_, q_encode(s_, x));
    return;
  }
  float* p = v.data();
  const std::size_t n = v.size();
  std::size_t i = 0;
#if defined(__SSE2__)
  // The formula on two doubles per register, with the truncation in
  // 32-bit lanes (exact while the bounds fit them).
  if (int32_lanes_) {
    const __m128d scale = _mm_set1_pd(scale_);
    const __m128d inv_scale = _mm_set1_pd(inv_scale_);
    const __m128d lo = _mm_set1_pd(lo_);
    const __m128d hi = _mm_set1_pd(hi_);
    const __m128d sign = _mm_set1_pd(-0.0);
    const __m128d half = _mm_set1_pd(0.5);
    const auto pair = [&](__m128 x) {  // the low two floats of x
      const __m128d d = _mm_cvtps_pd(x);
      const __m128d scaled =
          _mm_and_pd(_mm_mul_pd(d, scale), _mm_cmpord_pd(d, d));
      const __m128d c = _mm_min_pd(_mm_max_pd(scaled, lo), hi);
      const __m128d r = _mm_add_pd(c, _mm_or_pd(_mm_and_pd(c, sign), half));
      return _mm_cvtpd_ps(
          _mm_mul_pd(_mm_cvtepi32_pd(_mm_cvttpd_epi32(r)), inv_scale));
    };
    for (; i + 4 <= n; i += 4) {
      const __m128 x = _mm_loadu_ps(p + i);
      _mm_storeu_ps(p + i, _mm_movelh_ps(pair(x), pair(_mm_movehl_ps(x, x))));
    }
  }
#endif
  for (; i < n; ++i) p[i] = (*this)(p[i]);
}

float q_flip_value(const QScheme& s, float value, int bit) {
  if (is_canonical(s)) return dtype_flip_value(s.dtype, value, bit);
  const int width = s.fmt.total_bits;
  if (bit < 0 || bit >= width)
    throw std::out_of_range("q_flip_value: bit out of range");
  return fixed_decode(s.fmt, fixed_encode(s.fmt, value) ^ (1ULL << bit));
}

float q_write_bit_value(const QScheme& s, float value, int bit, bool set) {
  if (is_canonical(s)) return dtype_write_bit_value(s.dtype, value, bit, set);
  const int width = s.fmt.total_bits;
  if (bit < 0 || bit >= width)
    throw std::out_of_range("q_write_bit_value: bit out of range");
  const std::uint64_t bits = fixed_encode(s.fmt, value);
  return fixed_decode(
      s.fmt, set ? bits | (1ULL << bit) : bits & ~(1ULL << bit));
}

float q_apply_bit(const QScheme& s, float value, int bit, BitAction action) {
  switch (action) {
    case BitAction::kFlip:
      return q_flip_value(s, value, bit);
    case BitAction::kStuck0:
      return q_write_bit_value(s, value, bit, false);
    case BitAction::kStuck1:
      return q_write_bit_value(s, value, bit, true);
  }
  return value;
}

FixedPointFormat int8_format_for_range(double lo, double hi) {
  if (!std::isfinite(lo) || !std::isfinite(hi) || !(lo < hi)) return kInt8;
  // Largest frac_bits whose scaled span fits the raw range [-128, 127]
  // with one step of headroom (span * 2^f <= 254).
  const double span = hi - lo;
  int frac_bits = -1;
  for (int f = 24; f >= 0; --f) {
    if (span * static_cast<double>(1LL << f) <= 254.0) {
      frac_bits = f;
      break;
    }
  }
  if (frac_bits < 0) return kInt8;  // too wide even at 1.0 resolution
  const double scale = static_cast<double>(1LL << frac_bits);
  // Feasible zero points keep both endpoints representable:
  //   lo*2^f + zp >= -128   and   hi*2^f + zp <= 127.
  // The headroom above guarantees the interval is non-empty; centre the
  // value span in the raw range within it.
  const auto zp_min =
      static_cast<std::int64_t>(std::ceil(-128.0 - lo * scale));
  const auto zp_max =
      static_cast<std::int64_t>(std::floor(127.0 - hi * scale));
  std::int64_t zp = std::llround(-(lo + hi) * scale / 2.0);
  if (zp < zp_min) zp = zp_min;
  if (zp > zp_max) zp = zp_max;
  return {8, frac_bits, zp};
}

}  // namespace rangerpp::tensor
