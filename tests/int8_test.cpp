// int8 quantised inference: the affine 8-bit codec (round-trip,
// saturation, zero-point offsets, sign-bit faults), the calibration rule
// that picks a per-tensor format from profiled bounds, and the
// end-to-end campaign contract — int8 plans run through the same
// partial/full/batched machinery bit-identically to each other.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/calibration.hpp"
#include "core/range_profiler.hpp"
#include "fi/fault_model.hpp"
#include "fi/runner.hpp"
#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "tensor/dtype.hpp"
#include "util/rng.hpp"

namespace rangerpp {
namespace {

using tensor::DType;
using tensor::FixedPointFormat;
using tensor::QScheme;

TEST(Int8CodecTest, CanonicalFormatIsQ43) {
  const FixedPointFormat f = tensor::int8_format();
  EXPECT_EQ(f.total_bits, 8);
  EXPECT_EQ(f.frac_bits, 3);
  EXPECT_EQ(f.zero_point, 0);
  EXPECT_DOUBLE_EQ(f.resolution(), 0.125);
  EXPECT_DOUBLE_EQ(f.max_value(), 127.0 / 8.0);
  EXPECT_DOUBLE_EQ(f.min_value(), -16.0);
  EXPECT_EQ(tensor::dtype_bits(DType::kInt8), 8);
}

TEST(Int8CodecTest, RoundTripAndSaturationAtCanonicalFormat) {
  const QScheme s(DType::kInt8);
  // Exactly representable multiples of 1/8 survive the round trip.
  for (const float v : {0.0f, 0.125f, -0.125f, 1.5f, -2.625f, 15.875f,
                        -16.0f})
    EXPECT_EQ(tensor::q_quantize(s, v), v) << v;
  // Beyond the representable range the codec saturates (hardware
  // behaviour), exactly like fixed32/fixed16 do at their edges.
  EXPECT_EQ(tensor::q_quantize(s, 100.0f), 15.875f);
  EXPECT_EQ(tensor::q_quantize(s, -100.0f), -16.0f);
  EXPECT_EQ(tensor::q_quantize(s, std::numeric_limits<float>::infinity()),
            15.875f);
  EXPECT_EQ(tensor::q_quantize(s, -std::numeric_limits<float>::infinity()),
            -16.0f);
  // NaN encodes to the zero point, so it decodes to exactly 0.
  EXPECT_EQ(tensor::q_quantize(s, std::numeric_limits<float>::quiet_NaN()),
            0.0f);
  // The dtype_* canonical path and the q_* path are the same codec.
  for (const float v : {3.3f, -7.77f, 0.06f, 42.0f})
    EXPECT_EQ(std::bit_cast<std::uint32_t>(tensor::q_quantize(s, v)),
              std::bit_cast<std::uint32_t>(
                  tensor::dtype_quantize(DType::kInt8, v)))
        << v;
}

TEST(Int8CodecTest, ZeroPointShiftsTheRepresentableWindow) {
  // raw = round(x * 8) + zp must stay in [-128, 127]; zp = -64 moves the
  // window to [-8, 23.875] — an asymmetric, conv-activation-shaped range
  // no zero-point-free Q4.3 code could cover.
  const QScheme s(DType::kInt8, FixedPointFormat{8, 3, -64});
  EXPECT_DOUBLE_EQ(s.fmt.min_value(), -8.0);
  EXPECT_DOUBLE_EQ(s.fmt.max_value(), 23.875);
  for (const float v : {-8.0f, -0.125f, 0.0f, 10.5f, 23.875f})
    EXPECT_EQ(tensor::q_quantize(s, v), v) << v;
  EXPECT_EQ(tensor::q_quantize(s, 30.0f), 23.875f);
  EXPECT_EQ(tensor::q_quantize(s, -20.0f), -8.0f);
  // NaN still decodes to exactly 0: it encodes to the zero point.
  EXPECT_EQ(tensor::q_quantize(s, std::numeric_limits<float>::quiet_NaN()),
            0.0f);
  EXPECT_EQ(tensor::q_decode(s, tensor::q_encode(
                                    s, std::numeric_limits<float>::quiet_NaN())),
            0.0f);
}

TEST(Int8CodecTest, SignBitFlipIsTheCriticalFault) {
  const QScheme s(DType::kInt8);
  // 1.0 stores as raw 8 (0b0000'1000); flipping bit 7 gives raw
  // 0b1000'1000 = -120 -> -15.0.  The high-order flip produces the large
  // deviation Ranger's analysis keys on, now in an 8-bit space.
  EXPECT_EQ(tensor::q_flip_value(s, 1.0f, 7), -15.0f);
  // Low-order flip: 1 LSB of drift.
  EXPECT_EQ(tensor::q_flip_value(s, 1.0f, 0), 1.125f);
  // Flip is an involution at every bit position.
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const float v = tensor::q_quantize(
        s, static_cast<float>(rng.uniform(-16.0, 16.0)));
    const int bit = static_cast<int>(rng.uniform_index(8));
    EXPECT_EQ(tensor::q_flip_value(s, tensor::q_flip_value(s, v, bit), bit),
              v);
  }
  // Stuck-at writes: forcing a bit to its stored value is the identity.
  EXPECT_EQ(tensor::q_write_bit_value(s, 1.0f, 3, true), 1.0f);
  EXPECT_EQ(tensor::q_write_bit_value(s, 1.0f, 4, false), 1.0f);
  // q_apply_bit, which every injection calls, routes through the same
  // codec.
  EXPECT_EQ(tensor::q_apply_bit(s, 1.0f, 7, tensor::BitAction::kFlip),
            -15.0f);
}

TEST(Int8CalibrationTest, FormatCoversTheBoundAtFinestResolution) {
  struct Case {
    double lo, hi;
  };
  const Case cases[] = {{-1.0, 1.0},   {0.0, 30.0},  {-4.0, 4.0},
                        {-0.01, 0.01}, {0.0, 0.0},   {-6.3, 17.9},
                        {-2000.0, 2000.0}};
  for (const Case& c : cases) {
    const FixedPointFormat f = tensor::int8_format_for_range(c.lo, c.hi);
    EXPECT_EQ(f.total_bits, 8);
    if (c.lo < c.hi && (c.hi - c.lo) * std::exp2(0) <= 254.0) {
      // A satisfiable bound must actually be covered...
      EXPECT_LE(f.min_value(), c.lo) << c.lo << ".." << c.hi;
      EXPECT_GE(f.max_value(), c.hi) << c.lo << ".." << c.hi;
      // ...at the finest admissible resolution (one more frac bit would
      // overflow the raw span), unless already at the f = 24 cap.
      if (f.frac_bits < 24) {
        EXPECT_GT((c.hi - c.lo) * std::exp2(f.frac_bits + 1), 254.0)
            << c.lo << ".." << c.hi;
      }
    }
  }
  // Degenerate and non-finite bounds fall back to canonical Q4.3.
  EXPECT_EQ(tensor::int8_format_for_range(2.0, 1.0), tensor::int8_format());
  EXPECT_EQ(tensor::int8_format_for_range(
                0.0, std::numeric_limits<double>::infinity()),
            tensor::int8_format());
  // Too-wide ranges also fall back (saturation then handles the tails).
  EXPECT_EQ(tensor::int8_format_for_range(-1e6, 1e6),
            tensor::int8_format());
}

// ---- end-to-end: int8 campaigns ---------------------------------------------

tensor::Tensor random_tensor(tensor::Shape shape, util::Rng& rng,
                             float scale = 1.0f) {
  std::vector<float> v(shape.elements());
  for (float& x : v) x = static_cast<float>(rng.uniform(-scale, scale));
  return tensor::Tensor(shape, std::move(v));
}

graph::Graph small_classifier(util::Rng& rng) {
  graph::GraphBuilder b;
  b.input("input", tensor::Shape{1, 10, 10, 2});
  b.conv2d("conv1", random_tensor({3, 3, 2, 6}, rng, 0.4f),
           random_tensor({6}, rng, 0.1f), {1, 1, ops::Padding::kSame});
  b.activation("relu1", ops::OpKind::kRelu);
  b.max_pool("pool1", {2, 2, 2, 2, ops::Padding::kValid});
  b.flatten("flatten");
  b.dense("fc", random_tensor({5 * 5 * 6, 4}, rng, 0.3f),
          random_tensor({4}, rng, 0.05f), /*injectable=*/false);
  b.softmax("softmax");
  return b.finish();
}

TEST(Int8CampaignTest, PlanCalibratesPerNodeSchemes) {
  util::Rng rng(29);
  const graph::Graph g = small_classifier(rng);
  std::vector<fi::Feeds> inputs;
  inputs.push_back({{"input", random_tensor({1, 10, 10, 2}, rng)}});
  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(g, inputs);
  graph::CompileOptions co{.dtype = DType::kInt8,
                           .int8_formats = core::int8_calibration(bounds)};
  ASSERT_FALSE(co.int8_formats.empty());
  const graph::ExecutionPlan plan = graph::compile(g, co);
  bool any_calibrated = false;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const QScheme& s = plan.qscheme(static_cast<graph::NodeId>(i));
    EXPECT_EQ(s.dtype, DType::kInt8);
    if (!(s.fmt == tensor::int8_format())) any_calibrated = true;
  }
  EXPECT_TRUE(any_calibrated)
      << "calibration produced only canonical formats";
  // A non-int8 plan never consults the map: schemes stay canonical.
  co.dtype = DType::kFixed32;
  const graph::ExecutionPlan f32 = graph::compile(g, co);
  for (std::size_t i = 0; i < f32.size(); ++i)
    EXPECT_EQ(f32.qscheme(static_cast<graph::NodeId>(i)),
              QScheme(DType::kFixed32));
}

TEST(Int8CampaignTest, PartialFullAndBatchedExecutionAgreeBitIdentically) {
  util::Rng rng(37);
  const graph::Graph g = small_classifier(rng);
  std::vector<fi::Feeds> inputs;
  for (int i = 0; i < 2; ++i)
    inputs.push_back({{"input", random_tensor({1, 10, 10, 2}, rng)}});
  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(g, inputs);
  const core::Int8Formats formats = core::int8_calibration(bounds);
  const std::vector<fi::JudgePtr> judges{std::make_shared<fi::Top1Judge>()};

  std::vector<fi::CampaignReport> reports;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
    for (const bool partial : {true, false}) {
      fi::RunnerConfig rc;
      rc.campaign.dtype = DType::kInt8;
      rc.campaign.int8_formats = formats;
      rc.campaign.trials_per_input = 60;
      rc.campaign.seed = 2026;
      rc.campaign.batch = batch;
      rc.campaign.partial_reexecution = partial;
      reports.push_back(fi::CampaignRunner(rc).run(g, inputs, judges));
      EXPECT_EQ(reports.back().executed(), 120u);
    }
  }
  // Positive control: the reference configuration must see SDCs, or
  // "equal across configs" could be 0 == 0 with injection silently
  // missing everywhere.
  EXPECT_GT(reports[0].aggregate[0].sdcs, 0u);
  for (std::size_t i = 1; i < reports.size(); ++i)
    EXPECT_TRUE(reports[i].records == reports[0].records)
        << "int8 configuration " << i
        << " diverged: partial/batched execution must stay exact";
}

}  // namespace
}  // namespace rangerpp
