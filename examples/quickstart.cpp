// Quickstart: protect a DNN with Ranger in six steps.
//
//   1. build (or load) a model as a rangerpp dataflow graph;
//   2. derive restriction bounds by profiling training data;
//   3. protect the graph with the Ranger transform and compile both the
//      unprotected and the protected graph into plans;
//   4. run both plans: fault-free outputs are identical;
//   5. inject a transient fault: the unprotected model misclassifies,
//      the protected one does not;
//   6. measure statistically: a sharded, stratified fault-injection
//      campaign with Wilson confidence intervals (fi::CampaignRunner).
#include <cstdio>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "data/synthetic.hpp"
#include "fi/fault_model.hpp"
#include "fi/runner.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "models/workload.hpp"

using namespace rangerpp;

int main() {
  // 1. A trained LeNet on synthetic digits (weights are trained on first
  //    run and cached under ./rangerpp_weights/).
  std::printf("building (or loading) trained LeNet...\n");
  const models::Workload w = models::make_workload(models::ModelId::kLeNet);

  // 2. Derive per-activation-layer restriction bounds from ~20% of the
  //    training stream.  This is the only profiling Ranger needs — no
  //    fault injection, no retraining.
  const core::Bounds bounds =
      core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);
  std::printf("profiled %zu activation layers:\n", bounds.size());
  for (const auto& [layer, b] : bounds)
    std::printf("  %-8s -> [%.3f, %.3f]\n", layer.c_str(), b.low, b.up);

  // 3. The Ranger transform splices a clamp after every bounded
  //    activation (and the pooling/flatten ops it feeds).  Then compile
  //    both graphs (schedule, reachability sets, pre-quantized weights):
  //    plans + arenas are what every campaign runs on.
  const tensor::DType dtype = tensor::DType::kFixed32;
  const core::RangerTransform transform;
  const graph::Graph transformed = transform.apply(w.graph, bounds);
  std::printf("Ranger transform: %zu -> %zu nodes in %.2f ms\n",
              w.graph.size(), transformed.size(),
              transform.last_stats().elapsed_seconds * 1e3);
  const graph::Executor exec;
  const graph::ExecutionPlan plan = graph::compile(w.graph, {.dtype = dtype});
  const graph::ExecutionPlan plan_prot =
      graph::compile(transformed, {.dtype = dtype});

  // 4. Check fault-free behaviour is unchanged by the protection.
  graph::Arena arena, arena_prot;
  const fi::Feeds& input = w.eval_feeds.front();
  const int label_plain = graph::argmax(exec.run(plan, input, arena));
  const std::vector<tensor::Tensor> golden = arena.outputs();
  const int label_prot =
      graph::argmax(exec.run(plan_prot, input, arena_prot));
  const std::vector<tensor::Tensor> golden_prot = arena_prot.outputs();
  std::printf("fault-free prediction: %d (unprotected) vs %d (Ranger)\n",
              label_plain, label_prot);

  // 5. Find a datapath transient fault (high-order bit flip in the first
  //    conv layer) that actually corrupts the unprotected prediction,
  //    then replay the identical fault on the protected graph.  Each probe
  //    resumes from the cached golden activations and recomputes only the
  //    fault's downstream cone — the partial re-execution that makes
  //    thousand-trial campaigns cheap.
  for (std::size_t element = 0; element < 600; element += 7) {
    const fi::FaultSet fault{{"conv1/bias_add", element, /*bit=*/29}};
    const int faulty_plain = graph::argmax(exec.run_from(
        plan, golden, fi::make_injections(plan, fault), arena));
    if (faulty_plain == label_plain) continue;  // fault was benign
    const int faulty_prot = graph::argmax(exec.run_from(
        plan_prot, golden_prot, fi::make_injections(plan_prot, fault),
        arena_prot));
    std::printf(
        "bit-29 flip at conv1[%zu]: unprotected predicts %d <-- SDC!  "
        "Ranger predicts %d%s\n",
        element, faulty_plain, faulty_prot,
        faulty_prot == label_plain ? " (corrected)" : "");
    break;
  }

  // 6. One anecdote is not a rate: run a stratified fault-injection
  //    campaign through the CampaignRunner.  Trials are a pure function
  //    of (seed, trial index), so the two "shards" below — normally two
  //    machines writing JSONL checkpoints merged later — together execute
  //    exactly the trial set a single run would, and every per-stratum
  //    SDC rate carries a Wilson 95% interval.
  fi::RunnerConfig rc;
  rc.campaign.dtype = dtype;
  rc.campaign.trials_per_input = 200;
  rc.campaign.seed = 2021;
  rc.stratified.enabled = true;  // even coverage of (layer, bit) strata
  rc.label = "LeNet quickstart";
  const auto judges = models::default_judges(w.id);

  std::vector<fi::TrialRecord> records;
  std::map<std::string, double> stratum_weights;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    rc.shard_index = shard;
    rc.shard_count = 2;
    const fi::CampaignReport part =
        fi::CampaignRunner(rc).run(w.graph, w.eval_feeds, judges);
    std::printf("shard %zu/2: %zu trials, %zu SDCs\n", shard,
                part.executed(), part.aggregate[0].sdcs);
    records.insert(records.end(), part.records.begin(),
                   part.records.end());
    for (const fi::StratumStats& s : part.strata)
      stratum_weights[s.key] = s.weight;
  }
  const fi::CampaignReport merged = fi::build_report(
      std::move(records), judges.size(),
      rc.campaign.trials_per_input * w.eval_feeds.size(), stratum_weights);
  // Under stratified sampling the number to quote is the *weighted*
  // estimate Σ wₛ p̂ₛ — the raw aggregate over-represents small layers
  // and bit classes by construction.
  const util::Interval est = merged.weighted[0];
  std::printf(
      "merged campaign: %zu trials over %zu (layer, bit-group) strata -> "
      "unprotected SDC rate %.2f%% (95%% CI: %.2f-%.2f%%, "
      "stratified estimate)\n",
      merged.executed(), merged.strata.size(), 100.0 * est.center,
      100.0 * est.lo(), 100.0 * est.hi());
  std::printf(
      "(suite_cli runs it from the shell as a one-cell grid: --models "
      "lenet --techniques unprotected --stratified, with --shard i/N, "
      "resumable --dir checkpoints and --merge)\n");
  return 0;
}
