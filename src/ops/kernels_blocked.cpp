#include "ops/kernels_blocked.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "util/threadpool.hpp"

namespace rangerpp::ops::blocked {

namespace {

using tensor::Tensor;

// Work (in inner-loop iterations) below which a kernel stays serial: a
// thread spawn costs far more than it buys on tensors this small.  Purely
// a scheduling threshold — results are identical either way.
constexpr std::size_t kParallelGrain = 1 << 18;

}  // namespace

void run_rows(std::size_t rows, std::size_t work_per_row,
              util::FunctionRef<void(std::size_t)> fn) {
  if (rows > 1 && rows * work_per_row >= kParallelGrain) {
    util::parallel_for(rows, fn);
  } else {
    for (std::size_t r = 0; r < rows; ++r) fn(r);
  }
}

namespace {

// Register-tiled GEMM microkernel: C[1 x NR] = A[1 x K] * B[K x NR] with
// the K loop unsplit and ascending, so each C element accumulates in
// exactly the scalar kernels' reduction order.  NR is compile-time so the
// accumulator row lives in vector registers — one A broadcast and NR B
// floats loaded per K step, nothing written until the row is done (the
// quantisation fuses into that final store).  A single output row (MR = 1)
// is what the baseline-SSE2 register file sustains without spilling.
template <int NR>
void gemm_micro(const float* A, const float* B, std::size_t ldb,
                std::size_t K, float* C, tensor::QScheme scheme) {
  float acc[NR] = {};
  for (std::size_t k = 0; k < K; ++k) {
    const float a = A[k];
    const float* brow = B + k * ldb;
    for (int j = 0; j < NR; ++j) acc[j] += a * brow[j];
  }
  for (int j = 0; j < NR; ++j) C[j] = acc[j];
  tensor::q_quantize_span(scheme, {C, static_cast<std::size_t>(NR)});
}

// Remainder columns (nr < 8), same reduction order.
void gemm_edge(const float* A, const float* B, std::size_t ldb,
               std::size_t K, float* C, int nr, tensor::QScheme scheme) {
  float acc[8] = {};
  for (std::size_t k = 0; k < K; ++k) {
    const float a = A[k];
    const float* brow = B + k * ldb;
    for (int j = 0; j < nr; ++j) acc[j] += a * brow[j];
  }
  for (int j = 0; j < nr; ++j) C[j] = acc[j];
  tensor::q_quantize_span(scheme, {C, static_cast<std::size_t>(nr)});
}

// Contiguous-C convenience wrapper (row stride ldc) over any GEMM core.
void gemm_contig(GemmRowsFn gemm, const float* A, const float* B, float* C,
                 std::size_t M, std::size_t N, std::size_t K,
                 std::size_t ldc, tensor::QScheme scheme) {
  static thread_local std::vector<float*> crows;
  crows.resize(M);
  for (std::size_t m = 0; m < M; ++m) crows[m] = C + m * ldc;
  gemm(A, B, crows.data(), M, N, K, scheme);
}

}  // namespace

// Tiles an M x N GEMM; A is M x K (row stride K), B is K x N (row stride
// N), C row m starts at crows[m].  The column panel is the OUTER loop: a
// K x NR slice of B stays cache-hot while every A row streams past it, so
// B is read once per panel instead of once per output row — the scalar
// MatMul/Conv kernels' biggest memory sin.  Indirect C rows let a batched
// convolution run every image's output row through one panel sweep.
//
// Cache-line aligned so the unrolled panel loops keep one placement
// relative to 64-byte boundaries whatever code the linker puts ahead of
// them: left to the link layout, a 32-byte (mod 64) shift caused by
// growth in unrelated code slowed AlexNet's dense forward passes by
// about 15% on a 4-vCPU AVX2 host.
__attribute__((aligned(64))) void gemm_rows(const float* A, const float* B,
                                            float* const* crows,
                                            std::size_t M, std::size_t N,
                                            std::size_t K,
                                            tensor::QScheme scheme) {
  std::size_t j0 = 0;
  const auto panel = [&](auto nr_tag) {
    constexpr int kNr = decltype(nr_tag)::value;
    while (N - j0 >= kNr) {
      for (std::size_t m = 0; m < M; ++m)
        gemm_micro<kNr>(A + m * K, B + j0, N, K, crows[m] + j0, scheme);
      j0 += kNr;
    }
  };
  panel(std::integral_constant<int, 32>{});
  panel(std::integral_constant<int, 16>{});
  panel(std::integral_constant<int, 8>{});
  if (j0 < N)
    for (std::size_t m = 0; m < M; ++m)
      gemm_edge(A + m * K, B + j0, N, K, crows[m] + j0,
                static_cast<int>(N - j0), scheme);
}

namespace {

// conv_pixel's output channels [co, co + NB): the NB accumulators stay in
// registers across the whole (tap, ci) reduction, as in gemm_micro.
template <int NB>
void pixel_block(std::span<const ConvTap> taps, std::size_t ic,
                 std::size_t oc, std::size_t co, float* out) {
  float acc[NB] = {};
  for (const ConvTap& t : taps) {
    const float* fp = t.f + co;
    for (std::size_t ci = 0; ci < ic; ++ci) {
      const float xval = t.x[ci];
      const float* frow = fp + ci * oc;
      for (int j = 0; j < NB; ++j) acc[j] += xval * frow[j];
    }
  }
  for (int j = 0; j < NB; ++j) out[co + j] = acc[j];
}

}  // namespace

void conv_pixel(std::span<const ConvTap> taps, std::size_t ic,
                std::size_t oc, float* out, tensor::QScheme scheme) {
  std::size_t co = 0;
  for (; oc - co >= 32; co += 32) pixel_block<32>(taps, ic, oc, co, out);
  for (; oc - co >= 16; co += 16) pixel_block<16>(taps, ic, oc, co, out);
  for (; oc - co >= 8; co += 8) pixel_block<8>(taps, ic, oc, co, out);
  for (; co < oc; ++co) pixel_block<1>(taps, ic, oc, co, out);
  tensor::q_quantize_span(scheme, {out, oc});
}

ConvGeometry::ConvGeometry(const Conv2DParams& p, const tensor::Shape& x,
                           const tensor::Shape& f, const tensor::Shape& y)
    : kh(f.dim(0)),
      kw(f.dim(1)),
      ic(f.dim(2)),
      oc(f.dim(3)),
      ih(x.h()),
      iw(x.w()),
      oh(y.h()),
      ow(y.w()),
      stride_h(p.stride_h),
      stride_w(p.stride_w) {
  if (p.padding == Padding::kSame) {
    pad_top = std::max(0, (oh - 1) * stride_h + kh - ih) / 2;
    pad_left = std::max(0, (ow - 1) * stride_w + kw - iw) / 2;
  }
}

tensor::Tensor conv2d_with(const Conv2DOp& op, tensor::QScheme scheme,
                           std::span<const tensor::Tensor> in,
                           GemmRowsFn gemm) {
  const tensor::Shape os =
      op.infer_shape(std::array{in[0].shape(), in[1].shape()});
  const Tensor& x = in[0];
  const Tensor& f = in[1];
  const Conv2DParams& p = op.params();
  const ConvGeometry g(p, x.shape(), f.shape(), os);
  const int kh = g.kh, kw = g.kw, ic = g.ic, oc = g.oc;
  const int ih = g.ih, iw = g.iw, oh = g.oh, ow = g.ow;

  Tensor y(os);
  const std::span<float> yv = y.mutable_values();
  const std::span<const float> xv = x.values();
  const std::span<const float> fv = f.values();

  // Interior columns: every kx lands inside the image, so the whole
  // (ky, kx, ci) reduction is a dense dot product and the patch row can be
  // packed contiguously (im2col).  [x_lo, x_hi) may be empty under
  // extreme padding.
  const int x_lo = std::min(ow, (g.pad_left + p.stride_w - 1) / p.stride_w);
  const int x_hi = std::max(
      x_lo, std::min(ow, iw - kw + g.pad_left >= 0
                             ? (iw - kw + g.pad_left) / p.stride_w + 1
                             : 0));

  const std::size_t row_k =
      static_cast<std::size_t>(kw) * static_cast<std::size_t>(ic);

  const int batch = os.n();

  // Boundary pixels, whose windows the padding clips.
  const auto edge_column = [&](int n, int oy, int ox) {
    conv_pixel(
        g, n, oy, ox,
        [&](std::size_t pixel, std::size_t) {
          return &xv[pixel * static_cast<std::size_t>(ic)];
        },
        fv.data(), static_cast<std::size_t>(oc),
        &yv[(((static_cast<std::size_t>(n) * oh + oy) * ow) + ox) *
            static_cast<std::size_t>(oc)],
        scheme);
  };

  // Processes output rows [y0, y1) for every batch image.  When all rows
  // sit in the vertically-interior band (`full_k`), every interior pixel
  // of the whole segment — across rows AND batch images — is packed into
  // one im2col matrix and run through a single panel sweep, so a K x NR
  // filter panel is read once per segment rather than once per pixel (the
  // scalar kernel) or once per row.  Boundary columns take edge_column.
  const auto process_rows = [&](int y0, int y1, bool full_k) {
    static thread_local std::vector<float> patch;
    static thread_local std::vector<float*> crows;
    const int m_count = x_hi - x_lo;

    if (full_k && m_count > 0) {
      const std::size_t K = static_cast<std::size_t>(kh) * row_k;
      const std::size_t M = static_cast<std::size_t>(batch) *
                            static_cast<std::size_t>(y1 - y0) *
                            static_cast<std::size_t>(m_count);
      patch.resize(M * K);
      crows.resize(M);
      std::size_t row = 0;
      for (int n = 0; n < batch; ++n) {
        for (int oy = y0; oy < y1; ++oy) {
          const int base_y = oy * p.stride_h - g.pad_top;
          for (int m = 0; m < m_count; ++m) {
            const int sx0 = (x_lo + m) * p.stride_w - g.pad_left;
            float* dst = &patch[row * K];
            for (int ky = 0; ky < kh; ++ky) {
              const float* src =
                  &xv[((static_cast<std::size_t>(n) * ih + base_y + ky) *
                           iw +
                       sx0) *
                      static_cast<std::size_t>(ic)];
              std::memcpy(dst, src, row_k * sizeof(float));
              dst += row_k;
            }
            crows[row] =
                &yv[(((static_cast<std::size_t>(n) * oh + oy) * ow) +
                     x_lo + m) *
                    static_cast<std::size_t>(oc)];
            ++row;
          }
        }
      }
      gemm(patch.data(), fv.data(), crows.data(), M,
           static_cast<std::size_t>(oc), K, scheme);
      for (int n = 0; n < batch; ++n)
        for (int oy = y0; oy < y1; ++oy) {
          for (int ox = 0; ox < x_lo; ++ox) edge_column(n, oy, ox);
          for (int ox = x_hi; ox < ow; ++ox) edge_column(n, oy, ox);
        }
      return;
    }

    // Boundary rows (clipped ky) and fully-padded rows: per-row GEMM over
    // the valid filter slice, edges through edge_column.
    for (int oy = y0; oy < y1; ++oy) {
      const int base_y = oy * p.stride_h - g.pad_top;
      const int ky_lo = std::max(0, -base_y);
      const int ky_hi = std::min(kh, ih - base_y);
      if (ky_lo >= ky_hi) {
        const float zero = tensor::q_quantize(scheme, 0.0f);
        for (int n = 0; n < batch; ++n) {
          float* yrow = &yv[(static_cast<std::size_t>(n) * oh + oy) *
                            static_cast<std::size_t>(ow) *
                            static_cast<std::size_t>(oc)];
          std::fill(yrow, yrow + static_cast<std::size_t>(ow) * oc, zero);
        }
        continue;
      }
      const std::size_t K =
          static_cast<std::size_t>(ky_hi - ky_lo) * row_k;
      const float* B = &fv[static_cast<std::size_t>(ky_lo) * row_k *
                           static_cast<std::size_t>(oc)];
      if (m_count > 0) {
        const std::size_t M = static_cast<std::size_t>(batch) *
                              static_cast<std::size_t>(m_count);
        patch.resize(M * K);
        crows.resize(M);
        std::size_t row = 0;
        for (int n = 0; n < batch; ++n) {
          for (int m = 0; m < m_count; ++m) {
            const int sx0 = (x_lo + m) * p.stride_w - g.pad_left;
            float* dst = &patch[row * K];
            for (int ky = ky_lo; ky < ky_hi; ++ky) {
              const float* src =
                  &xv[((static_cast<std::size_t>(n) * ih + base_y + ky) *
                           iw +
                       sx0) *
                      static_cast<std::size_t>(ic)];
              std::memcpy(dst, src, row_k * sizeof(float));
              dst += row_k;
            }
            crows[row] =
                &yv[(((static_cast<std::size_t>(n) * oh + oy) * ow) +
                     x_lo + m) *
                    static_cast<std::size_t>(oc)];
            ++row;
          }
        }
        gemm(patch.data(), B, crows.data(), M,
             static_cast<std::size_t>(oc), K, scheme);
      }
      for (int n = 0; n < batch; ++n) {
        for (int ox = 0; ox < x_lo; ++ox) edge_column(n, oy, ox);
        for (int ox = x_hi; ox < ow; ++ox) edge_column(n, oy, ox);
      }
    }
  };

  // Segment the output rows: clipped top/bottom rows go row-by-row; the
  // interior band is chunked so one chunk's im2col patch stays around a
  // few MB (bigger chunks = more filter reuse, bounded scratch).
  const int y_lo = std::min(oh, (g.pad_top + p.stride_h - 1) / p.stride_h);
  const int y_hi = std::max(
      y_lo, std::min(oh, ih - kh + g.pad_top >= 0
                             ? (ih - kh + g.pad_top) / p.stride_h + 1
                             : 0));
  const std::size_t patch_row_bytes = static_cast<std::size_t>(batch) *
                                      std::max(1, x_hi - x_lo) *
                                      static_cast<std::size_t>(kh) * row_k *
                                      sizeof(float);
  const int chunk_rows = std::max<std::size_t>(
      1, (4u << 20) / std::max<std::size_t>(1, patch_row_bytes));

  struct Segment {
    int y0, y1;
    bool full_k;
  };
  std::vector<Segment> segments;
  for (int oy = 0; oy < y_lo; ++oy) segments.push_back({oy, oy + 1, false});
  for (int oy = y_lo; oy < y_hi; oy += chunk_rows)
    segments.push_back({oy, std::min(y_hi, oy + chunk_rows), true});
  for (int oy = y_hi; oy < oh; ++oy) segments.push_back({oy, oy + 1, false});

  const std::size_t work_per_segment =
      (static_cast<std::size_t>(batch) * oh * ow * oc * kh * kw * ic) /
      std::max<std::size_t>(1, segments.size());
  run_rows(segments.size(), work_per_segment, [&](std::size_t s) {
    process_rows(segments[s].y0, segments[s].y1, segments[s].full_k);
  });
  return y;
}

tensor::Tensor conv2d(const Conv2DOp& op, tensor::QScheme scheme,
                      std::span<const tensor::Tensor> in) {
  return conv2d_with(op, scheme, in, &gemm_rows);
}

tensor::Tensor matmul_with(tensor::QScheme scheme,
                           std::span<const tensor::Tensor> in,
                           GemmRowsFn gemm) {
  const MatMulOp ref;
  const tensor::Shape os =
      ref.infer_shape(std::array{in[0].shape(), in[1].shape()});
  const int b = os.dim(0);
  const int k = in[1].shape().dim(0);
  const int n = in[1].shape().dim(1);
  Tensor y(os);
  const std::span<float> yv = y.mutable_values();
  const std::span<const float> xv = in[0].values();
  const std::span<const float> wv = in[1].values();

  // Row blocks of up to 4 batch rows feed the register-tiled GEMM (per
  // output element the reduction still runs over i ascending —
  // bit-identical to the scalar kernel — but the weight matrix streams
  // row-wise and the accumulators stay in registers).
  const int row_blocks = (b + 3) / 4;
  const auto compute_block = [&](std::size_t block) {
    const int r0 = static_cast<int>(block) * 4;
    const std::size_t rows =
        static_cast<std::size_t>(std::min(4, b - r0));
    gemm_contig(gemm, &xv[static_cast<std::size_t>(r0) * k], wv.data(),
                &yv[static_cast<std::size_t>(r0) * n], rows,
                static_cast<std::size_t>(n), static_cast<std::size_t>(k),
                static_cast<std::size_t>(n), scheme);
  };
  run_rows(static_cast<std::size_t>(row_blocks),
           static_cast<std::size_t>(k) * n * 4, compute_block);
  return y;
}

tensor::Tensor matmul(tensor::QScheme scheme,
                      std::span<const tensor::Tensor> in) {
  return matmul_with(scheme, in, &gemm_rows);
}

tensor::Tensor pool(const PoolOpBase& op, bool is_max,
                    tensor::QScheme scheme,
                    std::span<const tensor::Tensor> in) {
  const tensor::Shape os = op.infer_shape(std::array{in[0].shape()});
  const tensor::Shape& xs = in[0].shape();
  const PoolParams& p = op.params();
  const int ih = xs.h(), iw = xs.w(), c = xs.c();
  const int oh = os.h(), ow = os.w();

  int pad_top = 0, pad_left = 0;
  if (p.padding == Padding::kSame) {
    const int pad_h = std::max(0, (oh - 1) * p.stride_h + p.window_h - ih);
    const int pad_w = std::max(0, (ow - 1) * p.stride_w + p.window_w - iw);
    pad_top = pad_h / 2;
    pad_left = pad_w / 2;
  }

  Tensor y(os);
  const std::span<float> yv = y.mutable_values();
  const std::span<const float> xv = in[0].values();

  const auto compute_row = [&](std::size_t r) {
    const int n = static_cast<int>(r) / oh;
    const int oy = static_cast<int>(r) % oh;
    const int base_y = oy * p.stride_h - pad_top;
    const int ky_lo = std::max(0, -base_y);
    const int ky_hi = std::min(p.window_h, ih - base_y);
    float* yrow =
        &yv[(static_cast<std::size_t>(n) * oh + oy) *
            static_cast<std::size_t>(ow) * static_cast<std::size_t>(c)];
    std::vector<float> acc(static_cast<std::size_t>(c));
    for (int ox = 0; ox < ow; ++ox) {
      const int base_x = ox * p.stride_w - pad_left;
      const int kx_lo = std::max(0, -base_x);
      const int kx_hi = std::min(p.window_w, iw - base_x);
      float* out = &yrow[static_cast<std::size_t>(ox) * c];
      if (ky_lo >= ky_hi || kx_lo >= kx_hi) {
        // Empty window: the scalar kernel emits 0.
        const float zero = tensor::q_quantize(scheme, 0.0f);
        std::fill(out, out + c, zero);
        continue;
      }
      // Visit order (ky, kx) ascending over the valid window — the same
      // order the scalar kernel gathers into its `window` vector, which
      // fixes both the max's NaN stickiness and the avg's summation
      // order.  Max seeds from the first element (window[0] then
      // std::max over the rest, as the scalar reduce does); avg sums
      // from 0.0f like the scalar reduce — seeding avg from the first
      // element would flip the sign of an all-negative-zero window.
      int count = 0;
      if (!is_max) std::fill(acc.begin(), acc.begin() + c, 0.0f);
      for (int ky = ky_lo; ky < ky_hi; ++ky) {
        const int sy = base_y + ky;
        for (int kx = kx_lo; kx < kx_hi; ++kx) {
          const int sx = base_x + kx;
          const float* src =
              &xv[((static_cast<std::size_t>(n) * ih + sy) * iw + sx) *
                  static_cast<std::size_t>(c)];
          if (!is_max) {
            for (int cc = 0; cc < c; ++cc) acc[cc] += src[cc];
          } else if (count == 0) {
            std::copy(src, src + c, acc.begin());
          } else {
            for (int cc = 0; cc < c; ++cc)
              acc[cc] = std::max(acc[cc], src[cc]);
          }
          ++count;
        }
      }
      if (!is_max && count > 0) {
        const float inv_count = static_cast<float>(count);
        for (int cc = 0; cc < c; ++cc) acc[cc] /= inv_count;
      }
      for (int cc = 0; cc < c; ++cc) out[cc] = acc[cc];
      tensor::q_quantize_span(scheme, {out, static_cast<std::size_t>(c)});
    }
  };
  run_rows(static_cast<std::size_t>(os.n()) * oh,
           static_cast<std::size_t>(ow) * c * p.window_h * p.window_w,
           compute_row);
  return y;
}

tensor::Tensor global_avg_pool(const GlobalAvgPoolOp& op,
                               tensor::QScheme scheme,
                               std::span<const tensor::Tensor> in) {
  const tensor::Shape os = op.infer_shape(std::array{in[0].shape()});
  const tensor::Shape& xs = in[0].shape();
  const auto c = static_cast<std::size_t>(xs.c());
  const auto pixels = static_cast<std::size_t>(xs.h()) * xs.w();
  const float inv = 1.0f / static_cast<float>(xs.h() * xs.w());
  Tensor y(os);  // zero-filled: the sums start from 0
  const std::span<float> yv = y.mutable_values();
  const std::span<const float> xv = in[0].values();
  run_rows(static_cast<std::size_t>(xs.n()), pixels * c, [&](std::size_t n) {
    float* sum = &yv[n * c];
    const float* x = &xv[n * pixels * c];
    for (std::size_t px = 0; px < pixels; ++px)
      for (std::size_t cc = 0; cc < c; ++cc) sum[cc] += x[px * c + cc];
    for (std::size_t cc = 0; cc < c; ++cc) sum[cc] *= inv;
    tensor::q_quantize_span(scheme, {sum, c});
  });
  return y;
}

tensor::Tensor bias_add(tensor::QScheme scheme,
                        std::span<const tensor::Tensor> in) {
  const BiasAddOp ref;
  ref.infer_shape(std::array{in[0].shape(), in[1].shape()});
  // clone + one in-place fused sweep: no zero-init pass for storage the
  // kernel fully overwrites anyway.
  Tensor y = in[0].clone();
  const std::span<float> yv = y.mutable_values();
  const std::span<const float> bv = in[1].values();
  const std::size_t c = bv.size();
  const std::size_t rows = yv.size() / c;
  run_rows(rows, c, [&](std::size_t r) {
    const std::size_t base = r * c;
    for (std::size_t j = 0; j < c; ++j) yv[base + j] += bv[j];
    tensor::q_quantize_span(scheme, yv.subspan(base, c));
  });
  return y;
}

tensor::Tensor batch_norm(const BatchNormOp& op, tensor::QScheme scheme,
                          std::span<const tensor::Tensor> in) {
  op.infer_shape(std::array{in[0].shape()});
  Tensor y = in[0].clone();
  const std::span<float> yv = y.mutable_values();
  const std::vector<float>& scale = op.scale();
  const std::vector<float>& shift = op.shift();
  const std::size_t c = scale.size();
  const std::size_t rows = yv.size() / c;
  run_rows(rows, c, [&](std::size_t r) {
    const std::size_t base = r * c;
    for (std::size_t j = 0; j < c; ++j)
      yv[base + j] = yv[base + j] * scale[j] + shift[j];
    tensor::q_quantize_span(scheme, yv.subspan(base, c));
  });
  return y;
}

tensor::Tensor lrn(const LrnOp& op, tensor::QScheme scheme,
                   std::span<const tensor::Tensor> in) {
  const tensor::Shape& s = in[0].shape();
  op.infer_shape(std::array{s});
  const LrnParams& p = op.params();
  const int c = s.c();
  Tensor y(s);
  const std::span<float> yv = y.mutable_values();
  const std::span<const float> xv = in[0].values();
  const std::size_t cs = static_cast<std::size_t>(c);
  const std::size_t rows = cs == 0 ? 0 : xv.size() / cs;
  run_rows(rows, cs * static_cast<std::size_t>(2 * p.depth_radius + 1),
           [&](std::size_t r) {
             const float* x = &xv[r * cs];
             float* out = &yv[r * cs];
             for (int ch = 0; ch < c; ++ch) {
               // Exact replica of LrnOp::compute's element arithmetic.
               float sum_sq = 0.0f;
               const int lo = std::max(0, ch - p.depth_radius);
               const int hi = std::min(c - 1, ch + p.depth_radius);
               for (int k = lo; k <= hi; ++k) sum_sq += x[k] * x[k];
               const float denom =
                   std::pow(p.bias + p.alpha * sum_sq, p.beta);
               out[ch] = x[ch] / denom;
             }
             tensor::q_quantize_span(scheme, {out, cs});
           });
  return y;
}

void run_elementwise(std::size_t total,
                     util::FunctionRef<void(std::size_t, std::size_t)> fn) {
  constexpr std::size_t kElementBlock = 4096;
  const std::size_t blocks = (total + kElementBlock - 1) / kElementBlock;
  run_rows(blocks, kElementBlock, [&](std::size_t b) {
    const std::size_t lo = b * kElementBlock;
    fn(lo, std::min(total, lo + kElementBlock));
  });
}

tensor::Tensor clamp(float low, float high, tensor::QScheme scheme,
                     std::span<const tensor::Tensor> in) {
  Tensor y = in[0].clone();
  const std::span<float> yv = y.mutable_values();
  run_elementwise(yv.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Exact replica of ClampOp::apply (including its NaN-to-low rule).
      const float v = yv[i];
      yv[i] = v < low ? low
                      : (v > high ? high : (std::isnan(v) ? low : v));
    }
    tensor::q_quantize_span(scheme, yv.subspan(lo, hi - lo));
  });
  return y;
}

tensor::Tensor relu(tensor::QScheme scheme,
                    std::span<const tensor::Tensor> in) {
  Tensor y = in[0].clone();
  const std::span<float> yv = y.mutable_values();
  run_elementwise(yv.size(), [&](std::size_t lo, std::size_t hi) {
    // Exact replica of ReluOp::apply.
    for (std::size_t i = lo; i < hi; ++i) {
      const float v = yv[i];
      yv[i] = v > 0.0f ? v : 0.0f;
    }
    tensor::q_quantize_span(scheme, yv.subspan(lo, hi - lo));
  });
  return y;
}

tensor::Tensor unary(const UnaryElementwiseOp& op, tensor::QScheme scheme,
                     std::span<const tensor::Tensor> in) {
  op.infer_shape(std::array{in[0].shape()});
  Tensor y = in[0].clone();
  const std::span<float> yv = y.mutable_values();
  run_elementwise(yv.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) yv[i] = op.apply_value(yv[i]);
    tensor::q_quantize_span(scheme, yv.subspan(lo, hi - lo));
  });
  return y;
}

tensor::Tensor binary(const BinaryElementwiseOp& op, tensor::QScheme scheme,
                      std::span<const tensor::Tensor> in) {
  op.infer_shape(std::array{in[0].shape(), in[1].shape()});
  Tensor y = in[0].clone();
  const std::span<float> yv = y.mutable_values();
  const std::span<const float> bv = in[1].values();
  run_elementwise(yv.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      yv[i] = op.apply_value(yv[i], bv[i]);
    tensor::q_quantize_span(scheme, yv.subspan(lo, hi - lo));
  });
  return y;
}

}  // namespace rangerpp::ops::blocked
