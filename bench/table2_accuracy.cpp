// Table II (RQ2): fault-free accuracy of every model with and without
// Ranger on a held-out validation set.  Paper: zero accuracy loss on all
// 8 DNNs (SqueezeNet even gains +0.004%).
//
// Reproduction notes (DESIGN.md §3): LeNet/Dave/Comma carry genuinely
// trained weights, so their accuracy columns are real; the He-initialised
// large classifiers report top-1/top-5 *agreement* between the protected
// and unprotected model on validation data, which is the property Table II
// asserts (Ranger leaves fault-free behaviour unchanged).
#include "bench/common.hpp"
#include "graph/passes.hpp"

using namespace rangerpp;

namespace {

double agreement(const graph::Graph& a, const graph::Graph& b,
                 const std::string& input, const data::Dataset& ds) {
  const graph::CompileOptions co{.dtype = tensor::DType::kFloat32};
  const graph::ExecutionPlan plan_a = graph::compile(a, co);
  const graph::ExecutionPlan plan_b = graph::compile(b, co);
  const graph::Executor exec;
  graph::Arena arena_a, arena_b;
  std::size_t same = 0;
  for (const data::Sample& s : ds.samples) {
    const fi::Feeds feeds{{input, s.image}};
    if (graph::argmax(exec.run(plan_a, feeds, arena_a)) ==
        graph::argmax(exec.run(plan_b, feeds, arena_b)))
      ++same;
  }
  return ds.samples.empty()
             ? 1.0
             : static_cast<double>(same) / ds.samples.size();
}

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::print_header("Fault-free accuracy, original vs Ranger", "Table II");

  util::Table table(
      {"model", "metric", "w/o Ranger", "w/ Ranger", "diff"});

  const models::ModelId all[] = {
      models::ModelId::kLeNet,     models::ModelId::kAlexNet,
      models::ModelId::kVgg11,     models::ModelId::kVgg16,
      models::ModelId::kResNet18,  models::ModelId::kSqueezeNet,
      models::ModelId::kDave,      models::ModelId::kComma};

  for (const models::ModelId id : all) {
    const bench::ProtectedWorkload pw = bench::make_protected(id, cfg);
    const models::Workload& w = pw.base;
    if (models::is_steering(id)) {
      const bool rad = models::outputs_radians(id);
      const models::SteeringMetrics m0 = models::steering_metrics(
          w.graph, w.input_name, w.validation, rad);
      const models::SteeringMetrics m1 = models::steering_metrics(
          pw.protected_graph, w.input_name, w.validation, rad);
      table.add_row({models::model_name(id), "RMSE (deg)",
                     util::Table::fmt(m0.rmse, 3),
                     util::Table::fmt(m1.rmse, 3),
                     util::Table::fmt(m1.rmse - m0.rmse, 3)});
      table.add_row({models::model_name(id), "Avg. Dev. (deg)",
                     util::Table::fmt(m0.avg_deviation, 3),
                     util::Table::fmt(m1.avg_deviation, 3),
                     util::Table::fmt(m1.avg_deviation - m0.avg_deviation,
                                      3)});
    } else if (models::is_trainable(id)) {
      const double a0 =
          models::top1_accuracy(w.graph, w.input_name, w.validation);
      const double a1 = models::top1_accuracy(pw.protected_graph,
                                              w.input_name, w.validation);
      table.add_row({models::model_name(id), "top-1 accuracy",
                     util::Table::pct(100.0 * a0, 2),
                     util::Table::pct(100.0 * a1, 2),
                     util::Table::pct(100.0 * (a1 - a0), 3)});
    } else {
      const double agree = agreement(w.graph, pw.protected_graph,
                                     w.input_name, w.validation);
      table.add_row({models::model_name(id), "top-1 agreement",
                     "100.00%",  // the unprotected model agrees with itself
                     util::Table::pct(100.0 * agree, 2),
                     util::Table::pct(100.0 * (agree - 1.0), 3)});
    }
  }
  table.print();
  std::printf(
      "Paper: accuracy difference is 0.000 for every model "
      "(+0.004%% on SqueezeNet).\n");
  return 0;
}
