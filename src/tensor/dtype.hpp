// Inference datatypes and their bit-level codecs.
//
// The paper evaluates DNNs running on 32-bit fixed point (RQ1-3) and 16-bit
// fixed point (RQ4); faults are single bit flips in the binary
// representation of operator output values.  Kernels in rangerpp compute in
// IEEE float and every operator output is *quantised through the active
// datatype codec*, so stored values are exactly representable in the chosen
// datatype, and a bit flip is performed on the true bit pattern:
//
//   float value --encode--> bits --flip bit k--> bits' --decode--> float
//
// This reproduces the fault-magnitude distribution of each datatype — the
// property Ranger's analysis (critical faults = high-order-bit flips)
// depends on — while keeping a single float kernel implementation.
//
// Formats:
//  * Float32     — IEEE-754 binary32, pass-through quantisation.
//  * Fixed32     — two's-complement Q21.10 (1 sign, 21 integer, 10
//                  fractional bits), the layout used by BinFI/TensorFI
//                  experiments.
//  * Fixed16     — two's-complement Q13.2 (1 sign, 13 integer, 2 fractional
//                  bits); the paper's "14 bits for the integer and 2 for the
//                  fractional part".
//  * Int8        — 8-bit two's-complement post-training quantisation.  The
//                  canonical layout is Q4.3 (1 sign, 4 integer, 3
//                  fractional bits, zero point 0), but int8 is where a
//                  single shared format stops working: 8 bits cannot cover
//                  both conv activations in [0, 30] and logits in [-4, 4]
//                  without either saturating or wasting most of the code
//                  space.  Per-tensor formats (a QScheme) calibrated from
//                  RangeProfiler bounds fix that — see
//                  int8_format_for_range below.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace rangerpp::tensor {

enum class DType { kFloat32, kFixed32, kFixed16, kInt8 };

std::string_view dtype_name(DType d);

// Number of bits in the storage representation (bit-flip positions are
// drawn uniformly from [0, bits)).
int dtype_bits(DType d);

// Encodes a float into the datatype's storage bits (widened to u64 so all
// formats share one interface).  Fixed-point encodings saturate at the
// format's representable range, matching hardware behaviour.
std::uint64_t dtype_encode(DType d, float value);

// Decodes storage bits back into a float.
float dtype_decode(DType d, std::uint64_t bits);

// Round-trips a value through the datatype (identity for Float32).
inline float dtype_quantize(DType d, float value) {
  if (d == DType::kFloat32) return value;
  return dtype_decode(d, dtype_encode(d, value));
}

// Quantises every element of `v` in place — bit-identical to calling
// dtype_quantize per element (it is the same encode/decode pair, hoisted
// into one loop inside the codec's translation unit so the pair can
// inline).  No-op for Float32.  The fused blocked kernels and the
// executor's quantisation sweep both run through this.
void dtype_quantize_span(DType d, std::span<float> v);

// Flips bit `bit` (0 = LSB) of `bits` within the datatype's width.
std::uint64_t dtype_flip_bit(DType d, std::uint64_t bits, int bit);

// Convenience: quantise + flip + decode in one step.
float dtype_flip_value(DType d, float value, int bit);

// Forces bit `bit` to `set` (stuck-at faults in parameter memory model a
// cell that reads a fixed level regardless of the stored value).
std::uint64_t dtype_write_bit(DType d, std::uint64_t bits, int bit, bool set);

// Convenience: quantise + force-bit + decode in one step (identity when
// the stored bit already equals `set`).
float dtype_write_bit_value(DType d, float value, int bit, bool set);

// Parameters of a two's-complement fixed-point format.  `zero_point`
// shifts the stored raw integer (affine quantisation: raw = round(x *
// 2^frac_bits) + zero_point), letting an asymmetric value range use the
// full code space.  The canonical fixed32/fixed16 formats keep
// zero_point = 0, where the affine codec degenerates to the original
// symmetric one bit-for-bit — the determinism gates on those dtypes are
// unaffected by its existence.
struct FixedPointFormat {
  int total_bits;  // including sign
  int frac_bits;
  std::int64_t zero_point = 0;
  double max_value() const;  // largest representable value
  double min_value() const;  // most negative representable value
  double resolution() const;
  friend bool operator==(const FixedPointFormat&,
                         const FixedPointFormat&) = default;
};
FixedPointFormat fixed32_format();
FixedPointFormat fixed16_format();
FixedPointFormat int8_format();  // canonical Q4.3, zero point 0

// The format a bare DType implies: the canonical layouts above, and a
// pass-through placeholder for Float32 (whose codec ignores it).
FixedPointFormat canonical_format(DType d);

// A quantisation scheme: the dtype plus the concrete fixed-point layout a
// tensor is stored in.  Implicitly constructible from a DType (canonical
// layout) so every pre-int8 call site — where dtype alone determined the
// codec — keeps reading the same, and dtype-only paths stay bit-identical.
// Per-tensor schemes only diverge from canonical for int8, where
// calibration picks frac_bits/zero_point per node.
struct QScheme {
  DType dtype = DType::kFixed32;
  FixedPointFormat fmt = {32, 10};
  QScheme() = default;
  QScheme(DType d) : dtype(d), fmt(canonical_format(d)) {}  // NOLINT
  QScheme(DType d, FixedPointFormat f) : dtype(d), fmt(f) {}
  friend bool operator==(const QScheme&, const QScheme&) = default;
};

// Scheme-aware codec family.  For canonical schemes these are
// bit-identical to the dtype_* functions above (same code paths); for
// calibrated int8 schemes they run the affine codec with the scheme's
// frac_bits/zero_point.
std::uint64_t q_encode(const QScheme& s, float value);
float q_decode(const QScheme& s, std::uint64_t bits);
float q_quantize(const QScheme& s, float value);
void q_quantize_span(const QScheme& s, std::span<float> v);
float q_flip_value(const QScheme& s, float value, int bit);
float q_write_bit_value(const QScheme& s, float value, int bit, bool set);

// How a bit fault perturbs its target bit.  kFlip is the transient
// datapath model (XOR); the stuck-at actions model a failed cell that
// reads a fixed level — forcing a bit to its stored value is a no-op,
// which is exactly the physical behaviour.
enum class BitAction : std::uint8_t { kFlip, kStuck0, kStuck1 };

// Applies `action` to bit `bit` of `value`'s encoding under `s` and
// decodes the result (always representable).  The one place a bit fault
// is applied: every injection, on an op output or a Const, on a partial
// or a full run, calls it, so the partial and the reference path cannot
// drift.
float q_apply_bit(const QScheme& s, float value, int bit, BitAction action);

// Picks the int8 format for values bounded by [lo, hi]: the finest
// resolution (largest frac_bits) whose scaled span fits the 8-bit raw
// range with a step of headroom, and the zero point that centres the
// span in it.  Falls back to the canonical Q4.3 format when the bound is
// degenerate (lo >= hi after widening, non-finite) or too wide for any
// non-negative frac_bits — saturation then does what it does for
// fixed32/fixed16 today.
FixedPointFormat int8_format_for_range(double lo, double hi);

}  // namespace rangerpp::tensor
