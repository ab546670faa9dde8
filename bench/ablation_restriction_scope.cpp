// Ablation (DESIGN.md §6): how much of Ranger's protection comes from
// extending the restriction beyond the ACT layers to the following
// Max-Pool / Avg-Pool / Reshape / Concat operators (Algorithm 1 lines
// 5-8)?  §III-C argues with the MaxPool example that ACT-only restriction
// is not enough; this bench quantifies it, plus the two multi-bit fault
// models of §VI-B (independent flips vs a consecutive burst in one value).
#include "bench/common.hpp"

using namespace rangerpp;

namespace {

double avg_sdc(const graph::Graph& g, const models::Workload& w,
               const bench::BenchConfig& cfg, int n_bits,
               bool consecutive) {
  fi::CampaignConfig cc;
  cc.dtype = tensor::DType::kFixed32;
  cc.n_bits = n_bits;
  cc.consecutive_bits = consecutive;
  cc.trials_per_input = cfg.trials_for(w.id);
  cc.seed = cfg.seed;
  const auto judges = models::default_judges(w.id);
  const auto r = bench::campaign_results(cc, g, w.eval_feeds, judges);
  double sum = 0.0;
  for (const auto& x : r) sum += x.sdc_rate_pct();
  return sum / static_cast<double>(r.size());
}

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::print_header(
      "Ablations: restriction scope + multi-bit fault models",
      "Section III-C's MaxPool argument and Section VI-B");

  std::printf("1) Restriction scope (single-bit flips, fixed32):\n");
  util::Table scope({"model", "unprotected", "ACT-only clamps",
                     "full Algorithm 1", "restriction ops (ACT-only/full)"});
  for (const models::ModelId id :
       {models::ModelId::kLeNet, models::ModelId::kVgg11,
        models::ModelId::kSqueezeNet, models::ModelId::kComma}) {
    models::WorkloadOptions wo;
    wo.eval_inputs = cfg.inputs;
    wo.seed = cfg.seed;
    const models::Workload w = models::make_workload(id, wo);
    const core::Bounds bounds =
        core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);

    core::TransformOptions act_only;
    act_only.extend_to_transparent_ops = false;
    core::RangerTransform act_transform{act_only};
    const graph::Graph g_act = act_transform.apply(w.graph, bounds);
    const std::size_t n_act =
        act_transform.last_stats().restriction_ops_inserted;

    core::RangerTransform full_transform;
    const graph::Graph g_full = full_transform.apply(w.graph, bounds);
    const std::size_t n_full =
        full_transform.last_stats().restriction_ops_inserted;

    scope.add_row(
        {models::model_name(id),
         util::Table::pct(avg_sdc(w.graph, w, cfg, 1, false), 2),
         util::Table::pct(avg_sdc(g_act, w, cfg, 1, false), 2),
         util::Table::pct(avg_sdc(g_full, w, cfg, 1, false), 2),
         std::to_string(n_act) + " / " + std::to_string(n_full)});
  }
  scope.print();

  std::printf(
      "\n2) Multi-bit model: independent flips vs consecutive burst "
      "(3 bits, Comma):\n");
  {
    models::WorkloadOptions wo;
    wo.eval_inputs = cfg.inputs;
    wo.seed = cfg.seed;
    const models::Workload w =
        models::make_workload(models::ModelId::kComma, wo);
    const core::Bounds bounds =
        core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);
    const graph::Graph prot = core::RangerTransform{}.apply(w.graph, bounds);
    util::Table table({"fault model", "unprotected", "Ranger"});
    table.add_row({"3 independent flips",
                   util::Table::pct(avg_sdc(w.graph, w, cfg, 3, false), 2),
                   util::Table::pct(avg_sdc(prot, w, cfg, 3, false), 2)});
    table.add_row({"3-bit consecutive burst",
                   util::Table::pct(avg_sdc(w.graph, w, cfg, 3, true), 2),
                   util::Table::pct(avg_sdc(prot, w, cfg, 3, true), 2)});
    table.print();
    std::printf(
        "The paper evaluates the independent model as the conservative "
        "choice (more values corrupted); the burst model corrupts one "
        "value and behaves closer to single-bit faults.\n");
  }
  return 0;
}
