#include "ops/backend.hpp"

#include <cstdio>
#include <cstdlib>

#include "ops/fused_op.hpp"
#include "ops/kernels_blocked.hpp"
#include "ops/kernels_simd.hpp"

namespace rangerpp::ops {

std::string_view backend_name(KernelBackend b) {
  switch (b) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kBlocked:
      return "blocked";
    case KernelBackend::kSimd:
      return "simd";
  }
  return "unknown";
}

std::optional<KernelBackend> parse_backend(std::string_view s) {
  if (s == "scalar") return KernelBackend::kScalar;
  if (s == "blocked") return KernelBackend::kBlocked;
  if (s == "simd") return KernelBackend::kSimd;
  return std::nullopt;
}

KernelBackend backend_from_env(const char* value, std::string* warning) {
  if (warning) warning->clear();
  if (!value) return KernelBackend::kBlocked;
  if (const auto parsed = parse_backend(value)) return *parsed;
  if (warning)
    *warning = std::string("rangerpp: ignoring RANGERPP_BACKEND=") + value +
               " (want scalar|blocked|simd)";
  return KernelBackend::kBlocked;
}

KernelBackend default_backend() {
  static const KernelBackend cached = [] {
    std::string warning;
    const KernelBackend b =
        backend_from_env(std::getenv("RANGERPP_BACKEND"), &warning);
    if (!warning.empty()) std::fprintf(stderr, "%s\n", warning.c_str());
    return b;
  }();
  return cached;
}

namespace {

// The simd backend's dedicated kernels; every op it does not vectorize
// (pooling, generic unary/binary, …) falls back to the blocked selection
// below, which is legitimate under the tolerance contract (blocked is
// byte-equal to scalar, a strict subset of tolerance-equal).
CompiledKernel select_simd(const Op& op, const tensor::QScheme& scheme) {
  const Op* o = &op;
  switch (op.kind()) {
    case OpKind::kConv2D:
      return {[o, scheme](std::span<const tensor::Tensor> in) {
                return simd::conv2d(*static_cast<const Conv2DOp*>(o),
                                    scheme, in);
              },
              true};
    case OpKind::kMatMul:
      return {[scheme](std::span<const tensor::Tensor> in) {
                return simd::matmul(scheme, in);
              },
              true};
    case OpKind::kBiasAdd:
      return {[scheme](std::span<const tensor::Tensor> in) {
                return simd::bias_add(scheme, in);
              },
              true};
    case OpKind::kBatchNorm:
      return {[o, scheme](std::span<const tensor::Tensor> in) {
                return simd::batch_norm(
                    *static_cast<const BatchNormOp*>(o), scheme, in);
              },
              true};
    case OpKind::kRelu:
      return {[scheme](std::span<const tensor::Tensor> in) {
                return simd::relu(scheme, in);
              },
              true};
    default:
      break;
  }
  if (const auto* provider = dynamic_cast<const BlockedKernelProvider*>(&op))
    return provider->simd_kernel(scheme);
  if (const auto* c = dynamic_cast<const ClampOp*>(&op)) {
    const float low = c->low(), high = c->high();
    return {[low, high, scheme](std::span<const tensor::Tensor> in) {
              return simd::clamp(low, high, scheme, in);
            },
            true};
  }
  return {};  // fall back to the blocked selection
}

}  // namespace

CompiledKernel select_kernel(const Op& op, const tensor::QScheme& scheme,
                             KernelBackend backend) {
  if (backend == KernelBackend::kScalar) return {};
  // A fused node runs each stage's own kernel in sequence — fusion moves
  // chains behind one node, it never invents new math.  Stages without a
  // kernel run their op's scalar compute plus the quantisation sweep the
  // executor would have done, so the composition stays bit-identical to
  // the unfused schedule under every backend.
  if (op.kind() == OpKind::kFused) {
    const auto& fused = static_cast<const FusedOp&>(op);
    struct StageKernel {
      const Op* op;
      tensor::QScheme scheme;
      std::size_t extra_inputs;
      CompiledKernel kernel;
    };
    auto stages = std::make_shared<std::vector<StageKernel>>();
    for (const FusedOp::Stage& s : fused.stages())
      stages->push_back(StageKernel{s.op.get(), s.scheme, s.extra_inputs,
                                    select_kernel(*s.op, s.scheme, backend)});
    return {[stages](std::span<const tensor::Tensor> in) {
              std::size_t cursor = 0;
              tensor::Tensor value;
              std::vector<tensor::Tensor> stage_in;
              for (std::size_t k = 0; k < stages->size(); ++k) {
                const StageKernel& s = (*stages)[k];
                stage_in.clear();
                if (k > 0) stage_in.push_back(std::move(value));
                for (std::size_t j = 0; j < s.extra_inputs; ++j)
                  stage_in.push_back(in[cursor++]);
                value = s.kernel.fn ? s.kernel.fn(stage_in)
                                    : s.op->compute(stage_in);
                if (!s.kernel.fused_quantize &&
                    s.scheme.dtype != tensor::DType::kFloat32)
                  tensor::q_quantize_span(s.scheme, value.mutable_values());
              }
              return value;
            },
            true};
  }
  if (backend == KernelBackend::kSimd) {
    // The simd:: entry points dispatch to blocked internally on hosts
    // without AVX2, so handing out simd kernels is always safe; ops
    // without a simd variant use the blocked selection below.
    CompiledKernel k = select_simd(op, scheme);
    if (k.fn) return k;
  }
  // `op` outlives the returned kernel: kernels are compiled into an
  // ExecutionPlan, which owns (a copy of) the graph whose nodes share the
  // op objects.
  const Op* o = &op;
  switch (op.kind()) {
    case OpKind::kConv2D:
      return {[o, scheme](std::span<const tensor::Tensor> in) {
                return blocked::conv2d(*static_cast<const Conv2DOp*>(o),
                                       scheme, in);
              },
              true};
    case OpKind::kMatMul:
      return {[scheme](std::span<const tensor::Tensor> in) {
                return blocked::matmul(scheme, in);
              },
              true};
    case OpKind::kBiasAdd:
      return {[scheme](std::span<const tensor::Tensor> in) {
                return blocked::bias_add(scheme, in);
              },
              true};
    case OpKind::kBatchNorm:
      return {[o, scheme](std::span<const tensor::Tensor> in) {
                return blocked::batch_norm(
                    *static_cast<const BatchNormOp*>(o), scheme, in);
              },
              true};
    case OpKind::kRelu:
      return {[scheme](std::span<const tensor::Tensor> in) {
                return blocked::relu(scheme, in);
              },
              true};
    case OpKind::kLrn:
      return {[o, scheme](std::span<const tensor::Tensor> in) {
                return blocked::lrn(*static_cast<const LrnOp*>(o), scheme,
                                    in);
              },
              true};
    case OpKind::kMaxPool:
    case OpKind::kAvgPool:
      if (const auto* pool = dynamic_cast<const PoolOpBase*>(&op)) {
        const bool is_max = op.kind() == OpKind::kMaxPool;
        return {[pool, is_max, scheme](std::span<const tensor::Tensor> in) {
                  return blocked::pool(*pool, is_max, scheme, in);
                },
                true};
      }
      break;
    case OpKind::kGlobalAvgPool:
      return {[o, scheme](std::span<const tensor::Tensor> in) {
                return blocked::global_avg_pool(
                    *static_cast<const GlobalAvgPoolOp*>(o), scheme, in);
              },
              true};
    default:
      break;
  }
  // Ops from other layers (core/ restriction variants) may carry their own
  // blocked kernel.  Checked before the generic elementwise fallbacks so a
  // provider always wins.
  if (const auto* provider = dynamic_cast<const BlockedKernelProvider*>(&op))
    return provider->blocked_kernel(scheme);
  // The Ranger restriction clamp gets the fused fast path (no per-element
  // virtual dispatch); kind() alone cannot identify it because the
  // restriction-policy variants report kClamp too, hence the cast.
  if (const auto* c = dynamic_cast<const ClampOp*>(&op)) {
    const float low = c->low(), high = c->high();
    return {[low, high, scheme](std::span<const tensor::Tensor> in) {
              return blocked::clamp(low, high, scheme, in);
            },
            true};
  }
  if (const auto* u = dynamic_cast<const UnaryElementwiseOp*>(&op))
    return {[u, scheme](std::span<const tensor::Tensor> in) {
              return blocked::unary(*u, scheme, in);
            },
            true};
  if (const auto* b = dynamic_cast<const BinaryElementwiseOp*>(&op))
    return {[b, scheme](std::span<const tensor::Tensor> in) {
              return blocked::binary(*b, scheme, in);
            },
            true};
  // Softmax, shape ops, Const, Input, unknown ops: scalar compute +
  // executor-side quantisation.
  return {};
}

}  // namespace rangerpp::ops
