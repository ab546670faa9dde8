// Table III: one-time instrumentation cost — the wall-clock time of the
// automated Ranger insertion (graph duplication + clamp splicing) per
// model.  Paper: 1-320 seconds on a laptop for TensorFlow graphs; our
// graphs are lighter-weight objects, so absolute numbers are smaller, but
// the ordering (bigger graph => longer insertion) holds.  The bound-
// profiling time (the other one-time cost, §V-A) is reported alongside.
#include "bench/common.hpp"
#include "graph/passes.hpp"

using namespace rangerpp;

int main() {
  const bench::BenchConfig cfg;
  bench::print_header("Ranger instrumentation time per model", "Table III");

  util::Table table({"model", "graph nodes", "restriction ops",
                     "insertion time (ms)", "profiling time (s)"});
  const models::ModelId all[] = {
      models::ModelId::kLeNet,     models::ModelId::kAlexNet,
      models::ModelId::kVgg11,     models::ModelId::kVgg16,
      models::ModelId::kResNet18,  models::ModelId::kSqueezeNet,
      models::ModelId::kDave,      models::ModelId::kComma};
  for (const models::ModelId id : all) {
    const bench::ProtectedWorkload pw = bench::make_protected(id, cfg);
    table.add_row({models::model_name(id),
                   std::to_string(pw.base.graph.size()),
                   std::to_string(
                       pw.transform_stats.restriction_ops_inserted),
                   util::Table::fmt(
                       pw.transform_stats.elapsed_seconds * 1e3, 3),
                   util::Table::fmt(pw.profiling_seconds, 2)});
  }
  table.print();
  std::printf(
      "Paper (TensorFlow graphs, laptop): LeNet 3s ... VGG16 320s; both "
      "are one-time, pre-deployment costs.\n");

  // Compiling the protected graph is the rest of the one-time cost; the
  // per-stage trace breaks it down (lowering, memory planning — what
  // --dump-passes prints).
  std::printf("\ncompile pipeline per protected model (%s):\n",
              std::string(ops::backend_name(ops::default_backend())).c_str());
  for (const models::ModelId id : all) {
    const bench::ProtectedWorkload pw = bench::make_protected(id, cfg);
    const graph::ExecutionPlan probe = graph::compile(
        pw.protected_graph, {.dtype = tensor::DType::kFixed32});
    std::printf("%s:\n%s\n", models::model_name(id).c_str(),
                probe.report()->to_string().c_str());
  }
  return 0;
}
