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

bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

// Records output element `i`'s recomputed (already quantised) value when
// it differs bitwise from golden.  Bitwise comparison matches the
// executor's dense diff (memcmp): NaN-safe and sensitive to -0.0f, so
// sparse and dense paths agree on what counts as "changed".
void record(const float* golden, std::size_t i, float value, ChangeSet& ch) {
  if (same_bits(value, golden[i])) return;
  ch.idx.push_back(i);
  ch.val.push_back(value);
}

// One input of a sparse kernel: its tensor's values (golden when the
// change set is valued, the full value when it is index-only) and its
// change set.
struct In {
  In(const Tensor& t, const ChangeSet& c) : base(t.values().data()), ch(c) {}
  // The value of the j-th changed element, ch.idx[j].
  float changed(std::size_t j) const {
    return ch.valued() ? ch.val[j] : base[ch.idx[j]];
  }
  const float* base;
  const ChangeSet& ch;
};

// Random access to an input for the window kernels (conv, pool, LRN),
// viewed as rows of `row_len` contiguous values (an NHWC pixel's
// channels): the calling thread's scatter of a valued change set, with a
// stamp per element and per row, both set per bind so binding costs
// O(changed) and a read costs a stamp compare or two.  A row without a
// change reads the tensor directly, as does an index-only input.  Binding
// invalidates the thread's previous reader.
class WindowReader {
 public:
  WindowReader(const In& in, std::size_t elements, std::size_t row_len)
      : base_(in.base), row_len_(row_len) {
    if (!in.ch.valued()) return;
    thread_local Scatter scatter;
    const std::size_t rows = elements / row_len;
    if (scatter.slots.size() < elements) scatter.slots.resize(elements);
    if (scatter.rows.size() < rows) scatter.rows.resize(rows);
    if (++scatter.stamp == 0) {  // wrapped: retire every old stamp
      for (Slot& slot : scatter.slots) slot.stamp = 0;
      std::fill(scatter.rows.begin(), scatter.rows.end(), 0u);
      scatter.stamp = 1;
    }
    stamp_ = scatter.stamp;
    slots_ = scatter.slots.data();
    rows_ = scatter.rows.data();
    for (std::size_t j = 0; j < in.ch.idx.size(); ++j) {
      const std::size_t i = in.ch.idx[j];
      scatter.slots[i] = {stamp_, in.ch.val[j]};
      scatter.rows[i / row_len] = stamp_;
    }
  }
  // Element k of row r.
  float at(std::size_t r, std::size_t k) const {
    const std::size_t i = r * row_len_ + k;
    return rows_ && rows_[r] == stamp_ && slots_[i].stamp == stamp_
               ? slots_[i].value
               : base_[i];
  }
  // Row r: the tensor's own memory unless the row holds a change, then
  // gathered into `tmp` (row_len values).
  const float* row(std::size_t r, float* tmp) const {
    const float* src = base_ + r * row_len_;
    if (!rows_ || rows_[r] != stamp_) return src;
    for (std::size_t k = 0; k < row_len_; ++k) tmp[k] = at(r, k);
    return tmp;
  }

 private:
  struct Slot {
    std::uint32_t stamp = 0;
    float value = 0.0f;
  };
  struct Scatter {
    std::vector<Slot> slots;
    std::vector<std::uint32_t> rows;
    std::uint32_t stamp = 0;
  };
  const float* base_;
  std::size_t row_len_;
  const Slot* slots_ = nullptr;
  const std::uint32_t* rows_ = nullptr;
  std::uint32_t stamp_ = 0;
};

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

// Recomputes output channels at output positions of a convolution through
// conv_pixel and records the values that differ from golden.  The
// positions (NHW indices) are `pos`, ascending, or every position when
// `pos` is null; the channels are `cols`, ascending, or every channel when
// `cols` is null.  `filter` is [kh, kw, ic, channels recomputed]: the
// node's own filter, or one packed down to `cols`.  An input pixel
// holding a change is gathered through `xr`.
void conv_positions(const ops::blocked::ConvGeometry& g, const WindowReader& xr,
                    const float* filter, const std::vector<std::size_t>* cols,
                    const std::vector<std::size_t>* pos,
                    const tensor::QScheme& scheme, const Tensor& golden,
                    ChangeSet& ch) {
  const auto ic = static_cast<std::size_t>(g.ic);
  const auto oc = static_cast<std::size_t>(g.oc);
  const std::size_t nc = cols ? cols->size() : oc;
  const std::size_t npos = pos ? pos->size() : golden.elements() / oc;
  const float* gv = golden.values().data();
  std::vector<float> gathered(static_cast<std::size_t>(g.kh) * g.kw * ic);
  const auto row = [&](std::size_t pixel, std::size_t t) {
    return xr.row(pixel, gathered.data() + t * ic);
  };
  std::vector<float> out(nc);
  for (std::size_t k = 0; k < npos; ++k) {
    const std::size_t pcode = pos ? (*pos)[k] : k;
    const int ox = static_cast<int>(pcode % static_cast<std::size_t>(g.ow));
    const std::size_t ny = pcode / static_cast<std::size_t>(g.ow);
    const int oy = static_cast<int>(ny % static_cast<std::size_t>(g.oh));
    const int n = static_cast<int>(ny / static_cast<std::size_t>(g.oh));
    ops::blocked::conv_pixel(g, n, oy, ox, row, filter, nc, out.data(),
                             scheme);
    for (std::size_t j = 0; j < nc; ++j)
      record(gv, pcode * oc + (cols ? (*cols)[j] : j), out[j], ch);
  }
}

bool sparse_conv(const ops::Conv2DOp& op, const tensor::QScheme& scheme,
                 const Tensor& x, const Tensor& f, const In& in,
                 const Tensor& golden, ChangeSet& ch) {
  const ops::blocked::ConvGeometry g(op.params(), x.shape(), f.shape(),
                                     golden.shape());

  // Changed input pixels -> affected output positions (all output
  // channels at each position: the filter couples every input channel to
  // every output channel).  The indices ascend, so a pixel's changed
  // channels are adjacent and the walk jumps to the next pixel's.
  const auto ic = static_cast<std::size_t>(g.ic);
  const std::vector<std::size_t>& idx = in.ch.idx;
  std::vector<std::size_t> pos;
  for (auto it = idx.begin(); it != idx.end();) {
    const std::size_t spatial = *it / ic;
    it = std::lower_bound(it, idx.end(), (spatial + 1) * ic);
    const int sx = static_cast<int>(spatial % static_cast<std::size_t>(g.iw));
    const int sy = static_cast<int>(
        (spatial / static_cast<std::size_t>(g.iw)) %
        static_cast<std::size_t>(g.ih));
    const int n = static_cast<int>(spatial / static_cast<std::size_t>(g.iw) /
                                   static_cast<std::size_t>(g.ih));
    const AxisRange ry = affected_axis(sy, g.kh, g.stride_h, g.pad_top, g.oh);
    const AxisRange rx =
        affected_axis(sx, g.kw, g.stride_w, g.pad_left, g.ow);
    for (int oy = ry.lo; oy <= ry.hi; ++oy)
      for (int ox = rx.lo; ox <= rx.hi; ++ox)
        pos.push_back((static_cast<std::size_t>(n) * g.oh + oy) * g.ow + ox);
  }
  std::sort(pos.begin(), pos.end());
  pos.erase(std::unique(pos.begin(), pos.end()), pos.end());

  const auto oc = static_cast<std::size_t>(g.oc);
  if (2 * pos.size() >= golden.elements() / oc) return false;  // dense

  const WindowReader xr(in, x.elements(), ic);
  conv_positions(g, xr, f.values().data(), nullptr, &pos, scheme, golden, ch);
  return true;
}

// Conv2D with a changed filter (a weight fault) and a golden data input.
// Filter element i of [kh, kw, ic, oc] feeds output channel i % oc alone,
// so only the changed channels are recomputed, at every output position,
// position ascending and channel ascending (the change set comes out in
// index order), against the filter packed down to those channels: the
// filter tensor's values there, then each changed element's value over
// its slot (a valued filter's tensor is still golden).
bool param_conv(const ops::Conv2DOp& op, const tensor::QScheme& scheme,
                const Tensor& x, const Tensor& f, const In& in,
                const In& fin, const Tensor& golden, ChangeSet& ch) {
  const ops::blocked::ConvGeometry g(op.params(), x.shape(), f.shape(),
                                     golden.shape());
  const auto oc = static_cast<std::size_t>(g.oc);
  std::vector<std::size_t> cols;
  for (const std::size_t i : fin.ch.idx) cols.push_back(i % oc);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  if (2 * cols.size() >= oc) return false;  // dense

  const std::size_t nc = cols.size();
  const std::size_t rows = f.elements() / oc;  // kh * kw * ic
  std::vector<float> packed(rows * nc);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = 0; j < nc; ++j)
      packed[r * nc + j] = fin.base[r * oc + cols[j]];
  for (std::size_t k = 0; k < fin.ch.idx.size(); ++k) {
    const std::size_t i = fin.ch.idx[k];
    const auto j = static_cast<std::size_t>(
        std::lower_bound(cols.begin(), cols.end(), i % oc) - cols.begin());
    packed[i / oc * nc + j] = fin.changed(k);
  }
  const WindowReader xr(in, x.elements(), static_cast<std::size_t>(g.ic));
  conv_positions(g, xr, packed.data(), &cols, nullptr, scheme, golden, ch);
  return true;
}

bool sparse_pool(const ops::PoolOpBase& op, bool is_max,
                 const tensor::QScheme& scheme, const Tensor& x, const In& in,
                 const Tensor& golden, ChangeSet& ch) {
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
  for (const std::size_t idx : in.ch.idx) {
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

  const WindowReader xr(in, x.elements(), static_cast<std::size_t>(c));
  const tensor::Quantizer quantize(scheme);
  const float* gv = golden.values().data();
  for (const std::size_t oidx : cand) {
    const int cc = static_cast<int>(oidx % static_cast<std::size_t>(c));
    const std::size_t spatial = oidx / static_cast<std::size_t>(c);
    const int ox = static_cast<int>(spatial % static_cast<std::size_t>(ow));
    const int oy = static_cast<int>((spatial / static_cast<std::size_t>(ow)) %
                                    static_cast<std::size_t>(oh));
    const int n = static_cast<int>(spatial / static_cast<std::size_t>(ow) /
                                   static_cast<std::size_t>(oh));
    // The dense kernels' window order: the max starts at the first
    // in-bounds element, the average sums from 0 and divides by the
    // in-bounds count.
    float acc = 0.0f;
    int count = 0;
    for (int ky = 0; ky < p.window_h; ++ky) {
      const int sy = oy * p.stride_h - pad_top + ky;
      if (sy < 0 || sy >= ih) continue;
      for (int kx = 0; kx < p.window_w; ++kx) {
        const int sx = ox * p.stride_w - pad_left + kx;
        if (sx < 0 || sx >= iw) continue;
        const float w =
            xr.at((static_cast<std::size_t>(n) * ih + sy) * iw + sx,
                  static_cast<std::size_t>(cc));
        if (!is_max) acc += w;
        else acc = count == 0 ? w : std::max(acc, w);
        ++count;
      }
    }
    const float v =
        is_max || count == 0 ? acc : acc / static_cast<float>(count);
    record(gv, oidx, quantize(v), ch);
  }
  return true;
}

// Gather the changed elements of value-only elementwise ops into a tiny
// tensor, run the op's own compute on it, and record the results.  Sound
// because the Unary/BinaryElementwiseOp contract is a per-element function
// of values alone (index-dependent ops such as the random-replacement
// restriction policy do not derive these bases and take the dense path).
bool sparse_unary(const ops::UnaryElementwiseOp& op,
                  const tensor::QScheme& scheme, const In& x,
                  const Tensor& golden, ChangeSet& ch) {
  const std::vector<std::size_t>& idx = x.ch.idx;
  if (2 * idx.size() >= golden.elements()) return false;
  std::vector<float> vals(idx.size());
  for (std::size_t j = 0; j < idx.size(); ++j) vals[j] = x.changed(j);
  const Tensor tiny(tensor::Shape{static_cast<int>(idx.size())},
                    std::move(vals));
  const Tensor res = op.compute(std::span<const Tensor>{&tiny, 1});
  const std::span<const float> rv = res.values();
  const tensor::Quantizer quantize(scheme);
  const float* gv = golden.values().data();
  for (std::size_t j = 0; j < idx.size(); ++j)
    record(gv, idx[j], quantize(rv[j]), ch);
  return true;
}

bool sparse_binary(const ops::BinaryElementwiseOp& op,
                   const tensor::QScheme& scheme, const In& a, const In& b,
                   const Tensor& golden, ChangeSet& ch) {
  // Merge-walk the two ascending change sets: the union of their indices,
  // each side's value at every one.
  const std::vector<std::size_t>& ia = a.ch.idx;
  const std::vector<std::size_t>& ib = b.ch.idx;
  std::vector<std::size_t> cand;
  std::vector<float> av, bv;
  cand.reserve(ia.size() + ib.size());
  av.reserve(ia.size() + ib.size());
  bv.reserve(ia.size() + ib.size());
  for (std::size_t i = 0, j = 0; i < ia.size() || j < ib.size();) {
    const std::size_t ea = i < ia.size() ? ia[i] : SIZE_MAX;
    const std::size_t eb = j < ib.size() ? ib[j] : SIZE_MAX;
    const std::size_t e = std::min(ea, eb);
    cand.push_back(e);
    av.push_back(ea == e ? a.changed(i++) : a.base[e]);
    bv.push_back(eb == e ? b.changed(j++) : b.base[e]);
  }
  if (2 * cand.size() >= golden.elements()) return false;
  const int k = static_cast<int>(cand.size());
  const Tensor inputs[] = {Tensor(tensor::Shape{k}, std::move(av)),
                           Tensor(tensor::Shape{k}, std::move(bv))};
  const Tensor res = op.compute(inputs);
  const std::span<const float> rv = res.values();
  const tensor::Quantizer quantize(scheme);
  const float* gv = golden.values().data();
  for (std::size_t j = 0; j < cand.size(); ++j)
    record(gv, cand[j], quantize(rv[j]), ch);
  return true;
}

bool sparse_bias_add(const tensor::QScheme& scheme, const In& x,
                     const Tensor& bias, const Tensor& golden,
                     ChangeSet& ch) {
  const std::vector<std::size_t>& idx = x.ch.idx;
  if (2 * idx.size() >= golden.elements()) return false;
  const std::size_t c = bias.elements();
  const float* bv = bias.values().data();
  const tensor::Quantizer quantize(scheme);
  const float* gv = golden.values().data();
  for (std::size_t j = 0; j < idx.size(); ++j)
    record(gv, idx[j], quantize(x.changed(j) + bv[idx[j] % c]), ch);
  return true;
}

bool sparse_batch_norm(const ops::BatchNormOp& op,
                       const tensor::QScheme& scheme, const In& x,
                       const Tensor& golden, ChangeSet& ch) {
  const std::vector<std::size_t>& idx = x.ch.idx;
  if (2 * idx.size() >= golden.elements()) return false;
  const std::vector<float>& scale = op.scale();
  const std::vector<float>& shift = op.shift();
  const std::size_t c = scale.size();
  const tensor::Quantizer quantize(scheme);
  const float* gv = golden.values().data();
  for (std::size_t j = 0; j < idx.size(); ++j)
    record(gv, idx[j],
           quantize(x.changed(j) * scale[idx[j] % c] + shift[idx[j] % c]),
           ch);
  return true;
}

// LRN couples channels within a depth_radius window at one spatial
// position; a changed input element affects only the outputs of its
// position's neighbouring channels.
bool sparse_lrn(const ops::LrnOp& op, const tensor::QScheme& scheme,
                const Tensor& x, const In& in, const Tensor& golden,
                ChangeSet& ch) {
  const int c = x.shape().c();
  const ops::LrnParams& p = op.params();
  std::vector<std::size_t> cand;
  for (const std::size_t idx : in.ch.idx) {
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

  const WindowReader xr(in, x.elements(), static_cast<std::size_t>(c));
  const tensor::Quantizer quantize(scheme);
  const float* gv = golden.values().data();
  for (const std::size_t oidx : cand) {
    const int cc = static_cast<int>(oidx % static_cast<std::size_t>(c));
    const std::size_t pixel = oidx / static_cast<std::size_t>(c);
    // Identical arithmetic to LrnOp::compute.
    float sum_sq = 0.0f;
    const int lo = std::max(0, cc - p.depth_radius);
    const int hi = std::min(c - 1, cc + p.depth_radius);
    for (int k = lo; k <= hi; ++k) {
      const float v = xr.at(pixel, static_cast<std::size_t>(k));
      sum_sq += v * v;
    }
    const float denom = std::pow(p.bias + p.alpha * sum_sq, p.beta);
    record(gv, oidx,
           quantize(xr.at(pixel, static_cast<std::size_t>(cc)) / denom), ch);
  }
  return true;
}

// Channel-axis Concat maps each input element to one output element.
bool sparse_concat(const tensor::QScheme& scheme, const Tensor& a,
                   const Tensor& b, const In& ia, const In& ib,
                   const Tensor& golden, ChangeSet& ch) {
  const auto ca = static_cast<std::size_t>(a.shape().c());
  const auto cb = static_cast<std::size_t>(b.shape().c());
  const std::size_t co = ca + cb;
  if (2 * (ia.ch.idx.size() + ib.ch.idx.size()) >= golden.elements())
    return false;
  std::vector<std::pair<std::size_t, float>> cand;  // (output index, value)
  cand.reserve(ia.ch.idx.size() + ib.ch.idx.size());
  for (std::size_t j = 0; j < ia.ch.idx.size(); ++j) {
    const std::size_t idx = ia.ch.idx[j];
    cand.emplace_back(idx / ca * co + idx % ca, ia.changed(j));
  }
  for (std::size_t j = 0; j < ib.ch.idx.size(); ++j) {
    const std::size_t idx = ib.ch.idx[j];
    cand.emplace_back(idx / cb * co + ca + idx % cb, ib.changed(j));
  }
  std::sort(cand.begin(), cand.end(),
            [](const auto& l, const auto& r) { return l.first < r.first; });
  const tensor::Quantizer quantize(scheme);
  const float* gv = golden.values().data();
  for (const auto& [oidx, v] : cand) record(gv, oidx, quantize(v), ch);
  return true;
}

// MatMul rows are independent, so a changed input row changes only its
// own output row.  The changed rows are packed and run through the blocked
// GEMM core, whose per-element reduction (k ascending) is the scalar
// kernel's, so the result is byte-equal under either backend.  When every
// row changed — always the case at batch 1 — there is nothing to skip and
// the dense kernel runs instead.
bool sparse_matmul(const tensor::QScheme& scheme, const In& x,
                   const Tensor& w, const Tensor& golden, ChangeSet& ch) {
  const auto k = static_cast<std::size_t>(w.shape().dim(0));
  const auto n = static_cast<std::size_t>(w.shape().dim(1));
  const std::vector<std::size_t>& idx = x.ch.idx;
  std::vector<std::size_t> rows;  // ascending: idx is
  for (const std::size_t i : idx)
    if (rows.empty() || rows.back() != i / k) rows.push_back(i / k);
  if (rows.size() >= golden.elements() / n) return false;

  std::vector<float> a(rows.size() * k);
  std::vector<float> c(rows.size() * n);
  std::vector<float*> crows(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy_n(x.base + rows[r] * k, k, a.data() + r * k);
    crows[r] = c.data() + r * n;
  }
  if (x.ch.valued())
    for (std::size_t j = 0, r = 0; j < idx.size(); ++j) {
      while (rows[r] != idx[j] / k) ++r;
      a[r * k + idx[j] % k] = x.ch.val[j];
    }
  ops::blocked::gemm_rows(a.data(), w.values().data(), crows.data(),
                          rows.size(), n, k, scheme);
  const float* gv = golden.values().data();
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (std::size_t j = 0; j < n; ++j)
      record(gv, rows[r] * n + j, c[r * n + j], ch);
  return true;
}

// Reshape/Flatten copy elements 1:1 in storage order.
bool sparse_passthrough(const tensor::QScheme& scheme, const In& x,
                        const Tensor& golden, ChangeSet& ch) {
  const std::vector<std::size_t>& idx = x.ch.idx;
  if (2 * idx.size() >= golden.elements()) return false;
  const tensor::Quantizer quantize(scheme);
  const float* gv = golden.values().data();
  for (std::size_t j = 0; j < idx.size(); ++j)
    record(gv, idx[j], quantize(x.changed(j)), ch);
  return true;
}

}  // namespace

std::size_t materialize(tensor::Tensor& t, ChangeSet& ch) {
  tensor::Tensor full = t.clone();
  const std::span<float> v = full.mutable_values();
  for (std::size_t j = 0; j < ch.idx.size(); ++j) v[ch.idx[j]] = ch.val[j];
  t = std::move(full);
  ch.val.clear();
  return v.size();
}

bool incremental_recompute(const ops::Op& op, const tensor::QScheme& scheme,
                           std::span<const tensor::Tensor> inputs,
                           std::span<const ChangeSet* const> changes,
                           const tensor::Tensor& golden,
                           ChangeSet& out_change) {
  for (const ChangeSet* c : changes)
    if (c->dense) return false;
  const In x(inputs[0], *changes[0]);

  switch (op.kind()) {
    case ops::OpKind::kConv2D:
      if (!changes[1]->clean()) {
        // A changed filter takes the parameter kernel while the data
        // input is golden; with both changed, dense.
        if (!changes[0]->clean()) return false;
        return param_conv(static_cast<const ops::Conv2DOp&>(op), scheme,
                          inputs[0], inputs[1], x, In(inputs[1], *changes[1]),
                          golden, out_change);
      }
      return sparse_conv(static_cast<const ops::Conv2DOp&>(op), scheme,
                         inputs[0], inputs[1], x, golden, out_change);
    case ops::OpKind::kBiasAdd:
      if (!changes[1]->clean()) return false;
      return sparse_bias_add(scheme, x, inputs[1], golden, out_change);
    case ops::OpKind::kBatchNorm:
      return sparse_batch_norm(static_cast<const ops::BatchNormOp&>(op),
                               scheme, x, golden, out_change);
    case ops::OpKind::kMaxPool:
    case ops::OpKind::kAvgPool:
      return sparse_pool(static_cast<const ops::PoolOpBase&>(op),
                         op.kind() == ops::OpKind::kMaxPool, scheme, inputs[0],
                         x, golden, out_change);
    case ops::OpKind::kReshape:
    case ops::OpKind::kFlatten:
      return sparse_passthrough(scheme, x, golden, out_change);
    case ops::OpKind::kLrn:
      return sparse_lrn(static_cast<const ops::LrnOp&>(op), scheme, inputs[0],
                        x, golden, out_change);
    case ops::OpKind::kConcat:
      return sparse_concat(scheme, inputs[0], inputs[1], x,
                           In(inputs[1], *changes[1]), golden, out_change);
    case ops::OpKind::kMatMul:
      if (!changes[1]->clean()) return false;  // weights changed: dense
      return sparse_matmul(scheme, x, inputs[1], golden, out_change);
    default:
      break;
  }
  if (const auto* u = dynamic_cast<const ops::UnaryElementwiseOp*>(&op))
    return sparse_unary(*u, scheme, x, golden, out_change);
  if (const auto* b = dynamic_cast<const ops::BinaryElementwiseOp*>(&op))
    return sparse_binary(*b, scheme, x, In(inputs[1], *changes[1]), golden,
                         out_change);
  return false;  // Softmax, GlobalAvgPool, unknown
}

}  // namespace rangerpp::graph
