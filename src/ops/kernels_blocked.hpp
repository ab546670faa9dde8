// Blocked, multi-threaded kernel implementations behind
// KernelBackend::kBlocked (selection lives in backend.cpp).
//
// Every kernel here is bit-identical to the corresponding Op::compute
// followed by an executor quantisation sweep: for each output element the
// same floating-point operations run in the same order (see backend.hpp
// for the full contract).  What changes is the schedule — output elements
// are grouped into cache-friendly blocks, bounds checks are hoisted out of
// inner loops, quantisation is fused into the producing sweep, and blocks
// large enough to pay for it are distributed over util::parallel_for
// workers (inline when already inside a pool worker).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "ops/activation_ops.hpp"
#include "ops/elementwise_ops.hpp"
#include "ops/nn_ops.hpp"
#include "ops/norm_ops.hpp"
#include "ops/pool_ops.hpp"
#include "tensor/dtype.hpp"
#include "util/function_ref.hpp"

namespace rangerpp::ops::blocked {

// Shared block scheduler for fused elementwise sweeps: calls
// fn(lo, hi) over ~4k-element blocks, distributing blocks over
// util::parallel_for when the tensor is large enough to pay for it.
// Exposed so fused kernels outside ops/ (the core/ restriction
// variants and the simd backend) share one scheduler and one set of
// tuning constants.
void run_elementwise(std::size_t total,
                     util::FunctionRef<void(std::size_t, std::size_t)> fn);

// Row scheduler behind every blocked kernel (and the simd backend): runs
// fn(r) for r in [0, rows), distributing rows over util::parallel_for
// when rows * work_per_row clears the serial-worthwhile threshold.
void run_rows(std::size_t rows, std::size_t work_per_row,
              util::FunctionRef<void(std::size_t)> fn);

// The inner GEMM the im2col conv and matmul drivers run their packed
// panels through: C[m] += A[m,:] · B for m in [0, M), where A is the
// row-major M×K patch block, B the row-major K×N weight block, and
// crows[m] points at the (possibly strided) output row, quantised under
// `scheme` before returning.  The drivers below are parameterised over
// this so the simd backend reuses all the packing/segmenting/edge-column
// machinery and swaps only the arithmetic core.
using GemmRowsFn = void (*)(const float* a, const float* b,
                            float* const* crows, std::size_t m,
                            std::size_t n, std::size_t k,
                            tensor::QScheme scheme);

// The reference register-tiled GEMM core: scalar accumulation in the
// exact per-element order of the scalar kernels (K ascending), so every
// output element is bit-identical to Op::compute + quantise.
void gemm_rows(const float* a, const float* b, float* const* crows,
               std::size_t m, std::size_t n, std::size_t k,
               tensor::QScheme scheme);

// One in-bounds filter tap of an output pixel: `x` points at the input
// pixel's ic channels, `f` at the tap's [ic, oc] filter slice.
struct ConvTap {
  const float* x;
  const float* f;
};

// One output pixel of a convolution: out[co] for co in [0, oc) sums
// x[ci] * f[ci * oc + co] over the taps in the order given and ci
// ascending, from 0, then quantises under `scheme`.  Output channels go in
// blocks of 32, 16, 8 and 1 whose accumulators stay in registers across
// the whole (tap, ci) reduction.
void conv_pixel(std::span<const ConvTap> taps, std::size_t ic,
                std::size_t oc, float* out, tensor::QScheme scheme);

// A convolution's extents (filter [kh, kw, ic, oc], NHWC input and
// output) and its leading SAME padding: the smaller half of the total, as
// Conv2DOp::compute splits it.
struct ConvGeometry {
  ConvGeometry(const Conv2DParams& p, const tensor::Shape& x,
               const tensor::Shape& f, const tensor::Shape& y);
  int kh, kw, ic, oc;
  int ih, iw, oh, ow;
  int stride_h, stride_w;
  int pad_top = 0, pad_left = 0;
};

// Output pixel (n, oy, ox) of the convolution `g` through conv_pixel, its
// in-bounds taps listed (ky, kx) ascending: Conv2DOp::compute's
// per-element order, padding skipped.  The blocked conv's boundary pixels
// and the element-sparse and parameter conv kernels
// (graph/incremental.cpp) all take this one tap walk.  `row(pixel, t)`
// returns the ic channels of input pixel `pixel` (its NHW index) for tap
// t = ky * kw + kx; `filter` is [kh, kw, ic, nc] and `out` takes nc values.
template <class Row>
void conv_pixel(const ConvGeometry& g, int n, int oy, int ox, const Row& row,
                const float* filter, std::size_t nc, float* out,
                tensor::QScheme scheme) {
  thread_local std::vector<ConvTap> taps;
  taps.clear();
  const auto ic = static_cast<std::size_t>(g.ic);
  const int base_y = oy * g.stride_h - g.pad_top;
  const int base_x = ox * g.stride_w - g.pad_left;
  for (int ky = std::max(0, -base_y); ky < std::min(g.kh, g.ih - base_y);
       ++ky)
    for (int kx = std::max(0, -base_x); kx < std::min(g.kw, g.iw - base_x);
         ++kx) {
      const auto t = static_cast<std::size_t>(ky * g.kw + kx);
      const std::size_t pixel =
          (static_cast<std::size_t>(n) * static_cast<std::size_t>(g.ih) +
           static_cast<std::size_t>(base_y + ky)) *
              static_cast<std::size_t>(g.iw) +
          static_cast<std::size_t>(base_x + kx);
      taps.push_back({row(pixel, t), filter + t * ic * nc});
    }
  conv_pixel(taps, ic, nc, out, scheme);
}

// All functions return the node's output already quantised under `scheme`
// (a plain DType converts implicitly to its canonical scheme).

// im2col + blocked-GEMM convolution: interior output spans are packed into
// contiguous patch rows and run through a register-tiled GEMM against the
// (already GEMM-shaped [kh*kw*ic, oc]) filter; boundary pixels, whose
// windows the padding clips, run their in-bounds taps through conv_pixel.
tensor::Tensor conv2d(const Conv2DOp& op, tensor::QScheme scheme,
                      std::span<const tensor::Tensor> in);

// As conv2d, with the GEMM core supplied by the caller.
tensor::Tensor conv2d_with(const Conv2DOp& op, tensor::QScheme scheme,
                           std::span<const tensor::Tensor> in,
                           GemmRowsFn gemm);

// Row-blocked MatMul: loop-interchanged so the weight matrix streams
// row-wise, tiled over output columns, parallel over (row, column-tile).
tensor::Tensor matmul(tensor::QScheme scheme,
                      std::span<const tensor::Tensor> in);

// As matmul, with the GEMM core supplied by the caller.
tensor::Tensor matmul_with(tensor::QScheme scheme,
                           std::span<const tensor::Tensor> in,
                           GemmRowsFn gemm);

// Direct pooling without the gather-into-a-window detour.
tensor::Tensor pool(const PoolOpBase& op, bool is_max,
                    tensor::QScheme scheme,
                    std::span<const tensor::Tensor> in);

// Per-image channel means over contiguous channel rows:
// GlobalAvgPoolOp::compute's per-element arithmetic (a sum from 0 over the
// pixels in storage order, times 1/(h*w)), quantised per image.
tensor::Tensor global_avg_pool(const GlobalAvgPoolOp& op,
                               tensor::QScheme scheme,
                               std::span<const tensor::Tensor> in);

tensor::Tensor bias_add(tensor::QScheme scheme,
                        std::span<const tensor::Tensor> in);

tensor::Tensor batch_norm(const BatchNormOp& op, tensor::QScheme scheme,
                          std::span<const tensor::Tensor> in);

// Cross-channel LRN over contiguous channel rows: LrnOp::compute's
// per-element arithmetic (ascending window sum from 0, std::pow, divide)
// without its bounds-checked accessors, quantised per row.
tensor::Tensor lrn(const LrnOp& op, tensor::QScheme scheme,
                   std::span<const tensor::Tensor> in);

// Fused restriction kernel: clamp + quantise in one sweep (the Ranger
// restriction op is on every protected graph's hot path).
tensor::Tensor clamp(float low, float high, tensor::QScheme scheme,
                     std::span<const tensor::Tensor> in);

// Inline ReLU + quantise (the most common activation — worth skipping the
// generic kernel's per-element virtual dispatch).
tensor::Tensor relu(tensor::QScheme scheme,
                    std::span<const tensor::Tensor> in);

// Generic fused elementwise kernels for every value-only unary/binary op.
tensor::Tensor unary(const UnaryElementwiseOp& op, tensor::QScheme scheme,
                     std::span<const tensor::Tensor> in);
tensor::Tensor binary(const BinaryElementwiseOp& op, tensor::QScheme scheme,
                      std::span<const tensor::Tensor> in);

}  // namespace rangerpp::ops::blocked
