#include "baselines/abft.hpp"

#include <cmath>

#include "core/flops_profiler.hpp"
#include "graph/executor.hpp"

namespace rangerpp::baselines {

TrialOutcome AbftConv::run_trial(const graph::ExecutionPlan& plan,
                                 graph::Arena& arena, const fi::Feeds& feeds,
                                 const fi::FaultSet& faults) const {
  const graph::Executor exec;
  const graph::PostOpHook inject =
      fi::make_injection_hook(plan.graph(), plan.dtype(), faults);

  // The executor hook fires after the kernel computes its (correct) output
  // and before downstream consumption; the checksum predicted from the
  // inputs equals the sum of the correct output, so capturing the sum
  // before applying the injection reproduces the input-side checksum
  // without a second convolution.  Checksums cover every conv layer, so
  // trials run the full plan.
  bool detected = false;
  tensor::Tensor out = exec.run(
      plan, feeds, arena, [&](const graph::Node& n, tensor::Tensor& t) {
        const bool is_conv = n.op->kind() == ops::OpKind::kConv2D;
        double before = 0.0;
        if (is_conv)
          for (float v : t.values()) before += v;
        inject(n, t);
        if (!is_conv) return;
        double after = 0.0;
        for (float v : t.values()) after += v;
        const double tol = rel_tol_ * (1.0 + std::abs(before));
        if (std::isnan(after) || std::abs(after - before) > tol)
          detected = true;
      });
  return TrialOutcome{std::move(out), detected};
}

double AbftConv::overhead_pct(const graph::Graph& g) const {
  // Checksum cost per conv: one input-side checksum convolution row
  // (equivalent to a single extra output channel) plus the output-side
  // reduction — flops(conv)/out_channels + out_elements.
  const core::FlopsReport r = core::profile_flops(g);
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  std::vector<tensor::Shape> in_shapes;
  std::uint64_t cost = 0;
  for (const graph::Node& n : g.nodes()) {
    if (n.op->kind() != ops::OpKind::kConv2D) continue;
    in_shapes.clear();
    for (graph::NodeId in : n.inputs)
      in_shapes.push_back(shapes[static_cast<std::size_t>(in)]);
    const tensor::Shape& out = shapes[static_cast<std::size_t>(n.id)];
    const int oc = out.c();
    cost += n.op->flops(in_shapes) / static_cast<std::uint64_t>(oc) +
            out.elements();
  }
  if (r.total == 0) return 0.0;
  return 100.0 * static_cast<double>(cost) / static_cast<double>(r.total);
}

}  // namespace rangerpp::baselines
