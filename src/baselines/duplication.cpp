#include "baselines/duplication.hpp"

#include <algorithm>

#include "graph/executor.hpp"

namespace rangerpp::baselines {

void SelectiveDuplication::prepare(const graph::ExecutionPlan& plan,
                                   const std::vector<fi::Feeds>&) {
  const graph::Graph& g = plan.graph();
  duplicated_.clear();

  struct Candidate {
    std::string name;
    std::uint64_t flops;
    std::size_t elements;
  };
  std::vector<Candidate> candidates;

  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  std::uint64_t total_flops = 0;
  std::vector<tensor::Shape> in_shapes;
  for (const graph::Node& n : g.nodes()) {
    in_shapes.clear();
    for (graph::NodeId in : n.inputs)
      in_shapes.push_back(shapes[static_cast<std::size_t>(in)]);
    const std::uint64_t f = n.op->flops(in_shapes);
    total_flops += f;
    if (!n.injectable) continue;
    candidates.push_back(Candidate{
        n.name, f, shapes[static_cast<std::size_t>(n.id)].elements()});
  }
  if (total_flops == 0) return;

  // Greedy: most corruptible state per FLOP first (free ops like Reshape
  // are always duplicated).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              const double ra = a.flops == 0
                                    ? 1e30
                                    : static_cast<double>(a.elements) /
                                          static_cast<double>(a.flops);
              const double rb = b.flops == 0
                                    ? 1e30
                                    : static_cast<double>(b.elements) /
                                          static_cast<double>(b.flops);
              return ra > rb;
            });

  const double budget =
      budget_pct_ / 100.0 * static_cast<double>(total_flops);
  double spent = 0.0;
  for (const Candidate& c : candidates) {
    if (spent + static_cast<double>(c.flops) > budget && c.flops > 0)
      continue;
    spent += static_cast<double>(c.flops);
    duplicated_.insert(c.name);
  }
  selected_flops_pct_ = 100.0 * spent / static_cast<double>(total_flops);
}

TrialOutcome SelectiveDuplication::run_trial(const graph::ExecutionPlan& plan,
                                             graph::Arena& arena,
                                             const fi::Feeds& feeds,
                                             const fi::FaultSet& faults) const {
  const graph::Executor exec;
  const graph::PostOpHook inject =
      fi::make_injection_hook(plan.graph(), plan.dtype(), faults);

  // Duplicate-and-compare: the duplicated op re-computes its output from
  // the same inputs; the fault corrupts only the stored (primary) copy, so
  // any injection into a duplicated op mismatches and is detected.  The
  // re-computation is emulated by checking whether a fault site targets a
  // duplicated node (bit flips always change the stored value).
  bool detected = false;
  for (const fi::FaultPoint& f : faults)
    if (duplicated_.contains(f.node_name)) detected = true;

  tensor::Tensor out = exec.run(plan, feeds, arena, inject);
  return TrialOutcome{std::move(out), detected};
}

double SelectiveDuplication::overhead_pct(const graph::Graph&) const {
  return selected_flops_pct_;
}

}  // namespace rangerpp::baselines
