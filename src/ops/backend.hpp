// Kernel backend selection: how operator outputs are *computed*, chosen
// once per ExecutionPlan at compile time.
//
//  * kScalar  — the reference kernels: each Op's own `compute` (naive
//    scalar loops) followed by an executor-side quantisation sweep.
//  * kBlocked — blocked, multi-threaded kernels (kernels_blocked.cpp):
//    im2col + blocked-GEMM convolution, tiled MatMul, direct pooling, and
//    fused elementwise/restriction kernels that quantise in the same sweep
//    that computes, parallelised over output blocks via
//    util::parallel_for.
//  * kSimd    — explicitly vectorized AVX2/FMA kernels
//    (kernels_simd.cpp), runtime-dispatched: on hosts without AVX2+FMA
//    (or with RANGERPP_SIMD=portable) every simd kernel delegates to its
//    blocked counterpart.
//
// Determinism contract — two tiers:
//
// scalar and blocked are *bit-identical*: every blocked kernel performs,
// for each output element, exactly the floating-point operations of the
// scalar reference in exactly the same order (same (ky, kx, ci)
// accumulation order for Conv2D, same ascending-k reduction for MatMul,
// same window visit order and NaN semantics for pooling, same
// padding-skip behaviour everywhere).  Blocking only changes which
// elements are computed together, never how one element is computed; and
// thread partitioning only distributes disjoint output blocks, so results
// are independent of thread count and run-to-run deterministic.  This is
// what lets the golden-prefix partial re-execution (whose element-sparse
// kernels mirror the scalar accumulation order) and the sharded-campaign
// merge-vs-golden CI gates keep passing bit-identically under either
// backend — the backend is a pure performance knob, excluded from
// checkpoint fingerprints.
//
// simd is *tolerance-judged*: its GEMM core accumulates each output
// element in 8 FMA lanes and reduces at the end — a different float
// summation order and rounding than the scalar chain, which no amount of
// scheduling care can make byte-equal.  Its elementwise kernels ARE still
// per-element bit-identical (vector max/blend/mul+add performs the same
// operation per lane), so all divergence enters through Conv2D/MatMul.
// Equivalence to scalar is judged by fi::Equivalence (abs-tol/max-ulp
// tensor compare, argmax agreement, Wilson-interval SDC-rate equality)
// instead of byte comparison, and simd runs are deterministic for a fixed
// host/level but not comparable byte-for-byte across hosts — don't feed
// simd outputs to the byte-gated golden checks.
//
// Selection: the RANGERPP_BACKEND environment variable ("scalar" |
// "blocked" | "simd", read once per process) sets the default;
// CompileOptions::backend can override it per plan.  Blocked is the
// default.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "ops/op.hpp"
#include "tensor/dtype.hpp"

namespace rangerpp::ops {

enum class KernelBackend { kScalar, kBlocked, kSimd };

std::string_view backend_name(KernelBackend b);

// "scalar" / "blocked" / "simd" -> backend; nullopt for anything else.
std::optional<KernelBackend> parse_backend(std::string_view s);

// Resolves an environment override value (nullptr = unset) to the backend
// to use.  An unparseable value falls back to kBlocked and, when `warning`
// is non-null, stores the message the caller should print — factored out
// of default_backend() so the fallback path is unit-testable despite the
// process-wide cache.
KernelBackend backend_from_env(const char* value,
                               std::string* warning = nullptr);

// Process-wide default: RANGERPP_BACKEND when set to a valid name,
// otherwise kBlocked (a malformed value warns to stderr once and is
// ignored).  Read once (first call) so a plan compiled early and a plan
// compiled late in the process always agree.
KernelBackend default_backend();

// A node's compiled compute function.  `fn == nullptr` means "no special
// kernel": the executor calls Op::compute and quantises the result itself.
// When `fused_quantize` is set, `fn`'s output is already quantised under
// the scheme the kernel was selected for and the executor skips its sweep.
struct CompiledKernel {
  std::function<tensor::Tensor(std::span<const tensor::Tensor>)> fn;
  bool fused_quantize = false;
};

// Ops defined outside ops/ (e.g. the core/ restriction-policy variants)
// implement this to contribute a blocked kernel without the backend layer
// knowing their concrete types.  The returned blocked kernel must obey
// the bit-identity contract above; `simd_kernel` may return a vectorized
// variant (the default reuses the blocked one, which is always valid —
// elementwise restriction kernels that vectorize per-element-identically
// may override it).
class BlockedKernelProvider {
 public:
  virtual ~BlockedKernelProvider() = default;
  virtual CompiledKernel blocked_kernel(
      const tensor::QScheme& scheme) const = 0;
  virtual CompiledKernel simd_kernel(const tensor::QScheme& scheme) const {
    return blocked_kernel(scheme);
  }
};

// Picks the kernel for (op, scheme) under `backend`.  The scalar backend —
// and any op the blocked/simd backends have no kernel for (Softmax, shape
// ops, …) — returns a null kernel, i.e. the Op::compute fallback.  A
// plain DType converts implicitly to its canonical scheme.
CompiledKernel select_kernel(const Op& op, const tensor::QScheme& scheme,
                             KernelBackend backend);

}  // namespace rangerpp::ops
