// Fig 8: relative SDC-rate reduction of Hong et al.'s Tanh-substitution
// defense vs Ranger, on ReLU-based models and on Tanh-based variants.
// Paper findings: the Tanh swap yields 0% reduction on models already
// using Tanh (faults after the Tanh are untouched) and modest reduction on
// ReLU models; Ranger exceeds 85% everywhere.
#include "bench/common.hpp"

using namespace rangerpp;

namespace {

// Average SDC rate across a model's default judges.
double avg_sdc_pct(const graph::Graph& g, const models::Workload& w,
                   const bench::BenchConfig& cfg) {
  fi::CampaignConfig cc;
  cc.dtype = tensor::DType::kFixed32;
  cc.trials_per_input = cfg.trials_for(w.id);
  cc.seed = cfg.seed;
  const auto results = bench::campaign_results(
      cc, g, w.eval_feeds, models::default_judges(w.id));
  double sum = 0.0;
  for (const auto& r : results) sum += r.sdc_rate_pct();
  return sum / static_cast<double>(results.size());
}

double reduction_pct(double base, double with_defense) {
  if (base <= 0.0) return 0.0;
  return 100.0 * (base - with_defense) / base;
}

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::print_header(
      "Relative SDC reduction: Hong et al. (Tanh swap) vs Ranger", "Fig. 8");

  const models::ModelId ids[] = {
      models::ModelId::kLeNet, models::ModelId::kAlexNet,
      models::ModelId::kVgg11, models::ModelId::kDave,
      models::ModelId::kComma};

  util::Table table({"model", "Tanh-Hong", "Tanh-Ranger", "Relu-Hong",
                     "Relu-Ranger"});
  double sums[4] = {0, 0, 0, 0};
  for (const models::ModelId id : ids) {
    // ReLU-activation base model (the published configuration) and the
    // Tanh-activation variant.  Hong et al.'s defense = swap every ACT to
    // Tanh (applied to the ReLU model); applied to the Tanh model it
    // changes nothing.
    const bench::ProtectedWorkload relu =
        bench::make_protected(id, cfg, ops::OpKind::kRelu);
    const bench::ProtectedWorkload tanh =
        bench::make_protected(id, cfg, ops::OpKind::kTanh);

    const double sdc_relu = avg_sdc_pct(relu.base.graph, relu.base, cfg);
    const double sdc_relu_ranger =
        avg_sdc_pct(relu.protected_graph, relu.base, cfg);
    const double sdc_tanh = avg_sdc_pct(tanh.base.graph, tanh.base, cfg);
    const double sdc_tanh_ranger =
        avg_sdc_pct(tanh.protected_graph, tanh.base, cfg);

    const double tanh_hong = 0.0;  // defense == identity on Tanh models
    const double tanh_ranger = reduction_pct(sdc_tanh, sdc_tanh_ranger);
    const double relu_hong = reduction_pct(sdc_relu, sdc_tanh);
    const double relu_ranger = reduction_pct(sdc_relu, sdc_relu_ranger);
    sums[0] += tanh_hong;
    sums[1] += tanh_ranger;
    sums[2] += relu_hong;
    sums[3] += relu_ranger;
    table.add_row({models::model_name(id), util::Table::pct(tanh_hong, 2),
                   util::Table::pct(tanh_ranger, 2),
                   util::Table::pct(relu_hong, 2),
                   util::Table::pct(relu_ranger, 2)});
  }
  const double n = static_cast<double>(std::size(ids));
  table.add_row({"Average", util::Table::pct(sums[0] / n, 2),
                 util::Table::pct(sums[1] / n, 2),
                 util::Table::pct(sums[2] / n, 2),
                 util::Table::pct(sums[3] / n, 2)});
  table.print();
  std::printf(
      "Paper averages: Tanh-Hong 0.00%%, Tanh-Ranger 94.19%%, "
      "Relu-Hong 47.32%%, Relu-Ranger 93.85%%.\n"
      "(Relu-Hong can be negative when the Tanh swap *hurts* resilience "
      "for a model.)\n");
  return 0;
}
