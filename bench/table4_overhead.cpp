// Table IV (RQ3): runtime overhead of Ranger.
//  * FLOPs with and without Ranger for all 8 models (the paper's platform-
//    independent metric, computed with the graph FLOPs profiler);
//  * wall-clock inference latency with and without Ranger for three
//    representative models, measured with google-benchmark;
//  * memory overhead = the stored restriction-bound pairs.
// Paper: 0.097%-1.583% FLOPs overhead (0.530% average), negligible memory.
#include <benchmark/benchmark.h>

#include "bench/common.hpp"
#include "core/flops_profiler.hpp"
#include "graph/passes.hpp"

using namespace rangerpp;

namespace {

const bench::BenchConfig& config() {
  static const bench::BenchConfig cfg;
  return cfg;
}

const bench::ProtectedWorkload& cached_workload(models::ModelId id) {
  static std::map<models::ModelId, bench::ProtectedWorkload> cache;
  auto it = cache.find(id);
  if (it == cache.end())
    it = cache.emplace(id, bench::make_protected(id, config())).first;
  return it->second;
}

void run_inference(benchmark::State& state, models::ModelId id,
                   bool with_ranger) {
  const bench::ProtectedWorkload& pw = cached_workload(id);
  const graph::Graph& g = with_ranger ? pw.protected_graph : pw.base.graph;
  // One compiled plan and arena per benchmark: the loop times inference,
  // not compilation.
  const graph::ExecutionPlan plan =
      graph::compile(g, {.dtype = tensor::DType::kFixed32});
  const graph::Executor exec;
  graph::Arena arena;
  const fi::Feeds& feeds = pw.base.eval_feeds.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.run(plan, feeds, arena));
  }
}

void BM_LeNet(benchmark::State& s) {
  run_inference(s, models::ModelId::kLeNet, false);
}
void BM_LeNet_Ranger(benchmark::State& s) {
  run_inference(s, models::ModelId::kLeNet, true);
}
void BM_Vgg16(benchmark::State& s) {
  run_inference(s, models::ModelId::kVgg16, false);
}
void BM_Vgg16_Ranger(benchmark::State& s) {
  run_inference(s, models::ModelId::kVgg16, true);
}
void BM_Dave(benchmark::State& s) {
  run_inference(s, models::ModelId::kDave, false);
}
void BM_Dave_Ranger(benchmark::State& s) {
  run_inference(s, models::ModelId::kDave, true);
}
BENCHMARK(BM_LeNet)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeNet_Ranger)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Vgg16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Vgg16_Ranger)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dave)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dave_Ranger)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Ranger computation overhead", "Table IV");

  util::Table table({"model", "FLOPs w/o", "FLOPs w/", "overhead",
                     "bound values stored"});
  const models::ModelId all[] = {
      models::ModelId::kLeNet,     models::ModelId::kAlexNet,
      models::ModelId::kVgg11,     models::ModelId::kVgg16,
      models::ModelId::kResNet18,  models::ModelId::kSqueezeNet,
      models::ModelId::kDave,      models::ModelId::kComma};
  double sum_overhead = 0.0;
  for (const models::ModelId id : all) {
    const bench::ProtectedWorkload& pw = cached_workload(id);
    const std::uint64_t f0 = core::profile_flops(pw.base.graph).total;
    const std::uint64_t f1 = core::profile_flops(pw.protected_graph).total;
    const double pct =
        core::flops_overhead_pct(pw.base.graph, pw.protected_graph);
    sum_overhead += pct;
    table.add_row({models::model_name(id), std::to_string(f0),
                   std::to_string(f1), util::Table::pct(pct, 3),
                   std::to_string(
                       pw.transform_stats.bound_values_stored())});
  }
  table.add_row({"Average", "", "",
                 util::Table::pct(sum_overhead / std::size(all), 3), ""});
  table.print();
  std::printf(
      "Paper: 0.097%%-1.583%% FLOPs overhead per model, 0.530%% average; "
      "memory overhead = one (low, up) pair per restriction op.\n\n"
      "Wall-clock inference latency (google-benchmark):\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
