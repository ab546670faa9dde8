#include "graph/incremental.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ops/activation_ops.hpp"
#include "ops/elementwise_ops.hpp"
#include "ops/kernels_blocked.hpp"
#include "ops/nn_ops.hpp"
#include "ops/norm_ops.hpp"
#include "ops/pool_ops.hpp"

namespace rangerpp::graph {

namespace {

using tensor::Tensor;

// Stores `value` (already quantised) at `i` when it differs bitwise from
// the golden element; copy-on-write keeps the shared golden storage
// intact.  Bitwise comparison matches the executor's dense diff (memcmp):
// NaN-safe and sensitive to -0.0f, so sparse and dense paths agree on what
// counts as "changed".
void store_if_changed(Tensor& out, const Tensor& golden, std::size_t i,
                      float value, ChangeSet& ch) {
  if (std::bit_cast<std::uint32_t>(value) !=
      std::bit_cast<std::uint32_t>(golden.at(i))) {
    out.set(i, value);
    ch.idx.push_back(i);
  }
}

// Output coordinates `o` (along one spatial axis) whose window
// [o*stride - pad, o*stride - pad + k) covers source coordinate `s`;
// inclusive range, possibly empty (lo > hi).
struct AxisRange {
  int lo, hi;
};
AxisRange affected_axis(int s, int k, int stride, int pad, int out_dim) {
  const int num_lo = s - k + 1 + pad;  // o*stride >= num_lo
  const int num_hi = s + pad;          // o*stride <= num_hi
  int lo = num_lo <= 0 ? 0 : (num_lo + stride - 1) / stride;
  int hi = num_hi < 0 ? -1 : num_hi / stride;
  hi = std::min(hi, out_dim - 1);
  return {lo, hi};
}

bool sparse_conv(const ops::Conv2DOp& op, const tensor::QScheme& scheme,
                 const Tensor& x, const Tensor& f, const ChangeSet& cx,
                 const Tensor& golden, Tensor& out, ChangeSet& ch) {
  const tensor::Shape& os = golden.shape();
  const tensor::Shape& xs = x.shape();
  const tensor::Shape& fs = f.shape();
  const int kh = fs.dim(0), kw = fs.dim(1);
  const int ic = fs.dim(2), oc = fs.dim(3);
  const int ih = xs.h(), iw = xs.w();
  const int oh = os.h(), ow = os.w();
  const ops::Conv2DParams& p = op.params();

  int pad_top = 0, pad_left = 0;
  if (p.padding == ops::Padding::kSame) {
    const int pad_h = std::max(0, (oh - 1) * p.stride_h + kh - ih);
    const int pad_w = std::max(0, (ow - 1) * p.stride_w + kw - iw);
    pad_top = pad_h / 2;
    pad_left = pad_w / 2;
  }

  // Changed input elements -> affected output positions (all output
  // channels at each position: the filter couples every input channel to
  // every output channel).
  std::vector<std::size_t> pos;
  for (const std::size_t idx : cx.idx) {
    const std::size_t spatial = idx / static_cast<std::size_t>(ic);
    const int sx = static_cast<int>(spatial % static_cast<std::size_t>(iw));
    const int sy = static_cast<int>((spatial / static_cast<std::size_t>(iw)) %
                                    static_cast<std::size_t>(ih));
    const int n = static_cast<int>(spatial / static_cast<std::size_t>(iw) /
                                   static_cast<std::size_t>(ih));
    const AxisRange ry = affected_axis(sy, kh, p.stride_h, pad_top, oh);
    const AxisRange rx = affected_axis(sx, kw, p.stride_w, pad_left, ow);
    for (int oy = ry.lo; oy <= ry.hi; ++oy)
      for (int ox = rx.lo; ox <= rx.hi; ++ox)
        pos.push_back((static_cast<std::size_t>(n) * oh + oy) * ow + ox);
  }
  std::sort(pos.begin(), pos.end());
  pos.erase(std::unique(pos.begin(), pos.end()), pos.end());

  const std::size_t total_pos = golden.elements() / static_cast<std::size_t>(oc);
  if (2 * pos.size() >= total_pos) return false;  // dense is cheaper

  out = golden;  // shared; copy-on-write on first actual difference
  std::span<const float> xv = x.values();
  std::span<const float> fv = f.values();
  // Identical accumulation structure (and therefore rounding) to
  // Conv2DOp::compute for each recomputed position.
  std::vector<float> acc(static_cast<std::size_t>(oc));
  for (const std::size_t pcode : pos) {
    const int ox = static_cast<int>(pcode % static_cast<std::size_t>(ow));
    const int oy = static_cast<int>((pcode / static_cast<std::size_t>(ow)) %
                                    static_cast<std::size_t>(oh));
    const int n = static_cast<int>(pcode / static_cast<std::size_t>(ow) /
                                   static_cast<std::size_t>(oh));
    const int base_y = oy * p.stride_h - pad_top;
    const int base_x = ox * p.stride_w - pad_left;
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int ky = 0; ky < kh; ++ky) {
      const int sy = base_y + ky;
      if (sy < 0 || sy >= ih) continue;
      for (int kx = 0; kx < kw; ++kx) {
        const int sx = base_x + kx;
        if (sx < 0 || sx >= iw) continue;
        const float* xp =
            &xv[((static_cast<std::size_t>(n) * ih + sy) * iw + sx) * ic];
        const float* fp =
            &fv[((static_cast<std::size_t>(ky) * kw + kx) * ic) *
                static_cast<std::size_t>(oc)];
        for (int ci = 0; ci < ic; ++ci) {
          const float xval = xp[ci];
          const float* frow = fp + static_cast<std::size_t>(ci) * oc;
          for (int co = 0; co < oc; ++co) acc[co] += xval * frow[co];
        }
      }
    }
    const std::size_t base = pcode * static_cast<std::size_t>(oc);
    for (int co = 0; co < oc; ++co)
      store_if_changed(out, golden, base + static_cast<std::size_t>(co),
                       tensor::q_quantize(scheme, acc[co]), ch);
  }
  return true;
}

bool sparse_pool(const ops::PoolOpBase& op, bool is_max, const tensor::QScheme& scheme,
                 const Tensor& x, const ChangeSet& cx, const Tensor& golden,
                 Tensor& out, ChangeSet& ch) {
  const tensor::Shape& os = golden.shape();
  const tensor::Shape& xs = x.shape();
  const int ih = xs.h(), iw = xs.w(), c = xs.c();
  const int oh = os.h(), ow = os.w();
  const ops::PoolParams& p = op.params();

  int pad_top = 0, pad_left = 0;
  if (p.padding == ops::Padding::kSame) {
    const int pad_h = std::max(0, (oh - 1) * p.stride_h + p.window_h - ih);
    const int pad_w = std::max(0, (ow - 1) * p.stride_w + p.window_w - iw);
    pad_top = pad_h / 2;
    pad_left = pad_w / 2;
  }

  std::vector<std::size_t> cand;  // affected output element indices
  for (const std::size_t idx : cx.idx) {
    const int cc = static_cast<int>(idx % static_cast<std::size_t>(c));
    const std::size_t spatial = idx / static_cast<std::size_t>(c);
    const int sx = static_cast<int>(spatial % static_cast<std::size_t>(iw));
    const int sy = static_cast<int>((spatial / static_cast<std::size_t>(iw)) %
                                    static_cast<std::size_t>(ih));
    const int n = static_cast<int>(spatial / static_cast<std::size_t>(iw) /
                                   static_cast<std::size_t>(ih));
    const AxisRange ry = affected_axis(sy, p.window_h, p.stride_h, pad_top, oh);
    const AxisRange rx = affected_axis(sx, p.window_w, p.stride_w, pad_left, ow);
    for (int oy = ry.lo; oy <= ry.hi; ++oy)
      for (int ox = rx.lo; ox <= rx.hi; ++ox)
        cand.push_back(
            ((static_cast<std::size_t>(n) * oh + oy) * ow + ox) * c + cc);
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  if (2 * cand.size() >= golden.elements()) return false;

  out = golden;
  std::vector<float> window;
  window.reserve(static_cast<std::size_t>(p.window_h) * p.window_w);
  for (const std::size_t oidx : cand) {
    const int cc = static_cast<int>(oidx % static_cast<std::size_t>(c));
    const std::size_t spatial = oidx / static_cast<std::size_t>(c);
    const int ox = static_cast<int>(spatial % static_cast<std::size_t>(ow));
    const int oy = static_cast<int>((spatial / static_cast<std::size_t>(ow)) %
                                    static_cast<std::size_t>(oh));
    const int n = static_cast<int>(spatial / static_cast<std::size_t>(ow) /
                                   static_cast<std::size_t>(oh));
    window.clear();
    for (int ky = 0; ky < p.window_h; ++ky) {
      const int sy = oy * p.stride_h - pad_top + ky;
      if (sy < 0 || sy >= ih) continue;
      for (int kx = 0; kx < p.window_w; ++kx) {
        const int sx = ox * p.stride_w - pad_left + kx;
        if (sx < 0 || sx >= iw) continue;
        window.push_back(x.at4(n, sy, sx, cc));
      }
    }
    float v = 0.0f;
    if (!window.empty()) {
      if (is_max) {
        v = window[0];
        for (const float w : window) v = std::max(v, w);
      } else {
        float s = 0.0f;
        for (const float w : window) s += w;
        v = s / static_cast<float>(window.size());
      }
    }
    store_if_changed(out, golden, oidx, tensor::q_quantize(scheme, v), ch);
  }
  return true;
}

// Gather the changed elements of value-only elementwise ops into a tiny
// tensor, run the op's own compute on it, and scatter the results back.
// Sound because the Unary/BinaryElementwiseOp contract is a per-element
// function of values alone (index-dependent ops such as the random-
// replacement restriction policy do not derive these bases and take the
// dense path).
bool sparse_unary(const ops::UnaryElementwiseOp& op, const tensor::QScheme& scheme,
                  const Tensor& x, const ChangeSet& cx, const Tensor& golden,
                  Tensor& out, ChangeSet& ch) {
  if (2 * cx.idx.size() >= golden.elements()) return false;
  std::vector<float> vals;
  vals.reserve(cx.idx.size());
  for (const std::size_t i : cx.idx) vals.push_back(x.at(i));
  const int k = static_cast<int>(vals.size());
  const Tensor tiny(tensor::Shape{k}, std::move(vals));
  const Tensor res = op.compute(std::span<const Tensor>{&tiny, 1});
  out = golden;
  for (std::size_t j = 0; j < cx.idx.size(); ++j)
    store_if_changed(out, golden, cx.idx[j],
                     tensor::q_quantize(scheme, res.at(j)), ch);
  return true;
}

bool sparse_binary(const ops::BinaryElementwiseOp& op, const tensor::QScheme& scheme,
                   const Tensor& a, const Tensor& b, const ChangeSet& ca,
                   const ChangeSet& cb, const Tensor& golden, Tensor& out,
                   ChangeSet& ch) {
  std::vector<std::size_t> cand;
  cand.reserve(ca.idx.size() + cb.idx.size());
  std::set_union(ca.idx.begin(), ca.idx.end(), cb.idx.begin(), cb.idx.end(),
                 std::back_inserter(cand));
  if (2 * cand.size() >= golden.elements()) return false;
  std::vector<float> av, bv;
  av.reserve(cand.size());
  bv.reserve(cand.size());
  for (const std::size_t i : cand) {
    av.push_back(a.at(i));
    bv.push_back(b.at(i));
  }
  const int k = static_cast<int>(cand.size());
  const Tensor ta(tensor::Shape{k}, std::move(av));
  const Tensor tb(tensor::Shape{k}, std::move(bv));
  const Tensor inputs[] = {ta, tb};
  const Tensor res = op.compute(inputs);
  out = golden;
  for (std::size_t j = 0; j < cand.size(); ++j)
    store_if_changed(out, golden, cand[j],
                     tensor::q_quantize(scheme, res.at(j)), ch);
  return true;
}

bool sparse_bias_add(const tensor::QScheme& scheme, const Tensor& x, const Tensor& bias,
                     const ChangeSet& cx, const Tensor& golden, Tensor& out,
                     ChangeSet& ch) {
  if (2 * cx.idx.size() >= golden.elements()) return false;
  const std::size_t c = bias.elements();
  out = golden;
  for (const std::size_t i : cx.idx)
    store_if_changed(out, golden, i,
                     tensor::q_quantize(scheme, x.at(i) + bias.at(i % c)),
                     ch);
  return true;
}

bool sparse_batch_norm(const ops::BatchNormOp& op, const tensor::QScheme& scheme,
                       const Tensor& x, const ChangeSet& cx,
                       const Tensor& golden, Tensor& out, ChangeSet& ch) {
  if (2 * cx.idx.size() >= golden.elements()) return false;
  const std::vector<float>& scale = op.scale();
  const std::vector<float>& shift = op.shift();
  const std::size_t c = scale.size();
  out = golden;
  for (const std::size_t i : cx.idx)
    store_if_changed(
        out, golden, i,
        tensor::q_quantize(scheme, x.at(i) * scale[i % c] + shift[i % c]),
        ch);
  return true;
}

// LRN couples channels within a depth_radius window at one spatial
// position; a changed input element affects only the outputs of its
// position's neighbouring channels.
bool sparse_lrn(const ops::LrnOp& op, const tensor::QScheme& scheme, const Tensor& x,
                const ChangeSet& cx, const Tensor& golden, Tensor& out,
                ChangeSet& ch) {
  const tensor::Shape& s = x.shape();
  const int c = s.c();
  const ops::LrnParams& p = op.params();
  std::vector<std::size_t> cand;
  for (const std::size_t idx : cx.idx) {
    const int cc = static_cast<int>(idx % static_cast<std::size_t>(c));
    const std::size_t spatial_base = idx - static_cast<std::size_t>(cc);
    const int lo = std::max(0, cc - p.depth_radius);
    const int hi = std::min(c - 1, cc + p.depth_radius);
    for (int k = lo; k <= hi; ++k)
      cand.push_back(spatial_base + static_cast<std::size_t>(k));
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  if (2 * cand.size() >= golden.elements()) return false;

  out = golden;
  for (const std::size_t oidx : cand) {
    const int cc = static_cast<int>(oidx % static_cast<std::size_t>(c));
    const std::size_t spatial_base = oidx - static_cast<std::size_t>(cc);
    // Identical arithmetic to LrnOp::compute.
    float sum_sq = 0.0f;
    const int lo = std::max(0, cc - p.depth_radius);
    const int hi = std::min(c - 1, cc + p.depth_radius);
    for (int k = lo; k <= hi; ++k) {
      const float v = x.at(spatial_base + static_cast<std::size_t>(k));
      sum_sq += v * v;
    }
    const float denom = std::pow(p.bias + p.alpha * sum_sq, p.beta);
    store_if_changed(out, golden, oidx,
                     tensor::q_quantize(scheme, x.at(oidx) / denom), ch);
  }
  return true;
}

// Channel-axis Concat maps each input element to one output element.
bool sparse_concat(const tensor::QScheme& scheme, const Tensor& a, const Tensor& b,
                   const ChangeSet& ca_set, const ChangeSet& cb_set,
                   const Tensor& golden, Tensor& out, ChangeSet& ch) {
  const int ca = a.shape().c();
  const int cb = b.shape().c();
  const int co = ca + cb;
  if (2 * (ca_set.idx.size() + cb_set.idx.size()) >= golden.elements())
    return false;
  out = golden;
  std::vector<std::size_t> cand;
  cand.reserve(ca_set.idx.size() + cb_set.idx.size());
  for (const std::size_t idx : ca_set.idx) {
    const std::size_t spatial = idx / static_cast<std::size_t>(ca);
    const std::size_t c = idx % static_cast<std::size_t>(ca);
    cand.push_back(spatial * static_cast<std::size_t>(co) + c);
  }
  for (const std::size_t idx : cb_set.idx) {
    const std::size_t spatial = idx / static_cast<std::size_t>(cb);
    const std::size_t c = idx % static_cast<std::size_t>(cb);
    cand.push_back(spatial * static_cast<std::size_t>(co) +
                   static_cast<std::size_t>(ca) + c);
  }
  std::sort(cand.begin(), cand.end());
  for (const std::size_t oidx : cand) {
    const std::size_t spatial = oidx / static_cast<std::size_t>(co);
    const std::size_t c = oidx % static_cast<std::size_t>(co);
    const float v =
        c < static_cast<std::size_t>(ca)
            ? a.at(spatial * static_cast<std::size_t>(ca) + c)
            : b.at(spatial * static_cast<std::size_t>(cb) +
                   (c - static_cast<std::size_t>(ca)));
    store_if_changed(out, golden, oidx, tensor::q_quantize(scheme, v), ch);
  }
  return true;
}

// MatMul rows are independent, so a changed input row changes only its
// own output row.  The changed rows are packed and run through the blocked
// GEMM core, whose per-element reduction (k ascending) is the scalar
// kernel's, so the result is byte-equal under either backend.  When every
// row changed — always the case at batch 1 — there is nothing to skip and
// the dense kernel runs instead.
bool sparse_matmul(const tensor::QScheme& scheme, const Tensor& x,
                   const Tensor& w, const ChangeSet& cx, const Tensor& golden,
                   Tensor& out, ChangeSet& ch) {
  const auto k = static_cast<std::size_t>(w.shape().dim(0));
  const auto n = static_cast<std::size_t>(w.shape().dim(1));
  std::vector<std::size_t> rows;  // ascending: cx.idx is
  for (const std::size_t idx : cx.idx)
    if (rows.empty() || rows.back() != idx / k) rows.push_back(idx / k);
  if (rows.size() >= golden.elements() / n) return false;

  const std::span<const float> xv = x.values();
  std::vector<float> a(rows.size() * k);
  std::vector<float> c(rows.size() * n);
  std::vector<float*> crows(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy_n(xv.begin() + static_cast<std::ptrdiff_t>(rows[r] * k), k,
                a.begin() + static_cast<std::ptrdiff_t>(r * k));
    crows[r] = c.data() + r * n;
  }
  ops::blocked::gemm_rows(a.data(), w.values().data(), crows.data(),
                          rows.size(), n, k, scheme);
  out = golden;
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (std::size_t j = 0; j < n; ++j)
      store_if_changed(out, golden, rows[r] * n + j, c[r * n + j], ch);
  return true;
}

// Reshape/Flatten copy elements 1:1 in storage order.
bool sparse_passthrough(const tensor::QScheme& scheme, const Tensor& x,
                        const ChangeSet& cx, const Tensor& golden,
                        Tensor& out, ChangeSet& ch) {
  if (2 * cx.idx.size() >= golden.elements()) return false;
  out = golden;
  for (const std::size_t i : cx.idx)
    store_if_changed(out, golden, i, tensor::q_quantize(scheme, x.at(i)),
                     ch);
  return true;
}

}  // namespace

bool incremental_recompute(const ops::Op& op, const tensor::QScheme& scheme,
                           std::span<const tensor::Tensor> inputs,
                           std::span<const ChangeSet* const> changes,
                           const tensor::Tensor& golden, tensor::Tensor& out,
                           ChangeSet& out_change) {
  for (const ChangeSet* c : changes)
    if (c->dense) return false;

  switch (op.kind()) {
    case ops::OpKind::kConv2D:
      if (!changes[1]->clean()) return false;  // filter changed: dense
      return sparse_conv(static_cast<const ops::Conv2DOp&>(op), scheme,
                         inputs[0], inputs[1], *changes[0], golden, out,
                         out_change);
    case ops::OpKind::kBiasAdd:
      if (!changes[1]->clean()) return false;
      return sparse_bias_add(scheme, inputs[0], inputs[1], *changes[0], golden,
                             out, out_change);
    case ops::OpKind::kBatchNorm:
      return sparse_batch_norm(static_cast<const ops::BatchNormOp&>(op),
                               scheme, inputs[0], *changes[0], golden, out,
                               out_change);
    case ops::OpKind::kMaxPool:
    case ops::OpKind::kAvgPool:
      return sparse_pool(static_cast<const ops::PoolOpBase&>(op),
                         op.kind() == ops::OpKind::kMaxPool, scheme, inputs[0],
                         *changes[0], golden, out, out_change);
    case ops::OpKind::kReshape:
    case ops::OpKind::kFlatten:
      return sparse_passthrough(scheme, inputs[0], *changes[0], golden, out,
                                out_change);
    case ops::OpKind::kLrn:
      return sparse_lrn(static_cast<const ops::LrnOp&>(op), scheme, inputs[0],
                        *changes[0], golden, out, out_change);
    case ops::OpKind::kConcat:
      return sparse_concat(scheme, inputs[0], inputs[1], *changes[0],
                           *changes[1], golden, out, out_change);
    case ops::OpKind::kMatMul:
      if (!changes[1]->clean()) return false;  // weights changed: dense
      return sparse_matmul(scheme, inputs[0], inputs[1], *changes[0], golden,
                           out, out_change);
    default:
      break;
  }
  if (const auto* u = dynamic_cast<const ops::UnaryElementwiseOp*>(&op))
    return sparse_unary(*u, scheme, inputs[0], *changes[0], golden, out,
                        out_change);
  if (const auto* b = dynamic_cast<const ops::BinaryElementwiseOp*>(&op))
    return sparse_binary(*b, scheme, inputs[0], inputs[1], *changes[0],
                         *changes[1], golden, out, out_change);
  return false;  // Softmax, GlobalAvgPool, unknown
}

}  // namespace rangerpp::graph
