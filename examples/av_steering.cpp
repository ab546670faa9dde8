// The paper's Fig 1 scenario: a transient fault during the inference of an
// AV steering DNN swings the predicted steering angle wildly; the same
// fault under Ranger is restricted back to (nearly) the correct angle.
//
// Sweeps every bit position at one fault site to show which bits are
// critical (high-order) vs benign (low-order) — the monotone-deviation
// property Ranger exploits (§III-B).
#include <cmath>
#include <cstdio>
#include <numbers>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/fault_model.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "models/workload.hpp"

using namespace rangerpp;

namespace {

double degrees(const tensor::Tensor& out, bool radians) {
  double v = out.at(0);
  if (radians) v *= 180.0 / std::numbers::pi;
  return v;
}

}  // namespace

int main() {
  std::printf("building (or loading) trained Dave steering model...\n");
  const models::Workload w = models::make_workload(models::ModelId::kDave);
  const bool rad = models::outputs_radians(w.id);

  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);
  const graph::Graph protected_g =
      core::RangerTransform{}.apply(w.graph, bounds);

  // One plan per graph, reused by every run below.  A plan keeps every
  // node of its graph, so the injection hooks see the same nodes.
  const graph::CompileOptions co{.dtype = tensor::DType::kFixed32};
  const graph::ExecutionPlan plan = graph::compile(w.graph, co);
  const graph::ExecutionPlan plan_prot = graph::compile(protected_g, co);
  const graph::Executor exec;
  graph::Arena arena, arena_prot;
  const fi::Feeds& frame = w.eval_feeds.front();
  const double golden = degrees(exec.run(plan, frame, arena), rad);
  std::printf("fault-free steering angle: %.2f deg\n\n", golden);

  // Pick a positive-valued element of the conv3 output as the fault site:
  // a negative site would have its positive-going flips masked by the
  // following ReLU (which is itself part of the paper's §III-A story).
  const char* site = "conv3/bias_add";
  std::size_t element = 0;
  exec.run(plan, frame, arena,
           [&](const graph::Node& n, tensor::Tensor& t) {
             if (n.name != site) return;
             for (std::size_t i = 0; i < t.elements(); ++i)
               if (t.at(i) > 0.5f) {
                 element = i;
                 break;
               }
           });

  std::printf("%-4s  %-22s  %-22s\n", "bit", "unprotected angle (deg)",
              "Ranger angle (deg)");
  for (int bit = 31; bit >= 0; bit -= 3) {
    const fi::FaultSet fault{{site, element, bit}};
    const double plain = degrees(
        exec.run(plan, frame, arena,
                 fi::make_injection_hook(w.graph, tensor::DType::kFixed32,
                                         fault)),
        rad);
    const double prot = degrees(
        exec.run(plan_prot, frame, arena_prot,
                 fi::make_injection_hook(protected_g,
                                         tensor::DType::kFixed32, fault)),
        rad);
    std::printf("%-4d  %8.2f%-14s  %8.2f%-14s\n", bit, plain,
                std::abs(plain - golden) > 15.0 ? "  <-- deviation!" : "",
                prot, std::abs(prot - golden) > 15.0 ? "  <-- deviation!"
                                                     : "");
  }
  std::printf(
      "\nHigh-order-bit faults swing the unprotected angle (the Fig 1 "
      "156.58 -> -46.47 deg scenario); Ranger keeps every flip within a "
      "safe deviation of the fault-free angle.\n");
  return 0;
}
