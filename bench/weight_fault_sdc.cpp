// Weight-memory fault SDC study (the new scenario axis the paper's §II-C
// ECC assumption excluded): a Fig6-style per-model table comparing SDC
// rates under
//   * transient activation faults (the paper's model, for reference),
//   * persistent weight faults with no ECC,
//   * persistent weight faults behind SEC-DED (single-bit faults are
//     corrected, so this column is 0 by construction for kind=single),
//   * persistent weight faults (no ECC) on the Ranger-protected graph —
//     does range restriction also contain parameter corruption?
//
// A second section benchmarks the persistent-fault input sweep: one
// patched plan per fault reused across every input (the campaign path)
// versus naive per-trial plan recompilation.  Both modes execute the
// identical fault stream and MUST produce bit-identical SDC counts (the
// bench exits 1 otherwise); the sweep is expected to be >= 3x faster.
// Emits BENCH_weight_fault_sdc.json for cross-PR tracking.
#include <cstdlib>

#include "bench/common.hpp"
#include "fi/weight_fault.hpp"
#include "graph/passes.hpp"

using namespace rangerpp;

namespace {

fi::CampaignReport run_weight_campaign(const graph::Graph& g,
                                       const models::Workload& base,
                                       const bench::BenchConfig& cfg,
                                       const fi::EccModel& ecc) {
  fi::RunnerConfig rc;
  rc.campaign.dtype = tensor::DType::kFixed32;
  rc.campaign.fault_class = fi::FaultClass::kWeight;
  rc.campaign.ecc = ecc;
  rc.campaign.trials_per_input = cfg.trials_for(base.id);
  rc.campaign.seed = cfg.seed;
  rc.shard_index = cfg.shard_index;
  rc.shard_count = cfg.shard_count;
  rc.label = models::model_name(base.id) + "+weight";
  return fi::CampaignRunner(rc).run(g, base.eval_feeds,
                                    models::default_judges(base.id));
}

double avg_rate_pct(const fi::CampaignReport& r) {
  double sum = 0.0;
  for (const fi::CampaignResult& a : r.aggregate) sum += a.sdc_rate_pct();
  return r.aggregate.empty() ? 0.0
                             : sum / static_cast<double>(r.aggregate.size());
}

struct SweepMeasurement {
  double seconds = 0.0;
  std::size_t trials = 0;
  std::size_t sdcs = 0;
};

// The campaign path: consts patched once per fault, partial re-execution
// from the per-input goldens.
SweepMeasurement run_sweep(const models::Workload& w,
                           const fi::TrialPlanner& planner,
                           const fi::CampaignConfig& cc,
                           std::size_t n_faults) {
  const fi::TrialExecutor executor(w.graph, cc, w.eval_feeds, 1);
  const auto judges = models::default_judges(w.id);
  SweepMeasurement m;
  util::Timer timer;
  for (std::size_t f = 0; f < n_faults; ++f) {
    const fi::TrialSpec first = planner.plan(f * w.eval_feeds.size());
    const fi::TrialExecutor::PatchedConsts patch =
        executor.patch_consts(first.applied);
    for (std::size_t i = 0; i < w.eval_feeds.size(); ++i) {
      const tensor::Tensor out = executor.run_weight_trial(0, i, patch);
      ++m.trials;
      for (const auto& judge : judges)
        if (judge->is_sdc(executor.golden_output(i), out)) ++m.sdcs;
    }
  }
  m.seconds = timer.elapsed_seconds();
  return m;
}

// The naive shape this subsystem replaces: every (fault, input) trial
// recompiles a fresh ExecutionPlan (re-quantising every const, rebuilding
// the reachability bitsets) and runs it end to end.
SweepMeasurement run_naive(const models::Workload& w,
                           const fi::TrialPlanner& planner,
                           const fi::CampaignConfig& cc,
                           std::size_t n_faults) {
  const graph::Executor exec;
  const graph::CompileOptions co{.dtype = cc.dtype,
                                 .observe = graph::Observe::kAll};
  const auto judges = models::default_judges(w.id);
  // Goldens once (both modes amortise goldens; the comparison isolates
  // per-trial recompilation against patched-plan reuse).
  std::vector<tensor::Tensor> golden;
  {
    const graph::ExecutionPlan plan = graph::compile(w.graph, co);
    graph::Arena arena;
    for (const fi::Feeds& f : w.eval_feeds)
      golden.push_back(exec.run(plan, f, arena));
  }
  SweepMeasurement m;
  util::Timer timer;
  graph::Arena arena;
  for (std::size_t f = 0; f < n_faults; ++f) {
    const fi::TrialSpec first = planner.plan(f * w.eval_feeds.size());
    for (std::size_t i = 0; i < w.eval_feeds.size(); ++i) {
      const graph::ExecutionPlan plan = graph::compile(w.graph, co);
      const auto overrides = fi::make_const_overrides(plan, first.applied);
      const tensor::Tensor out =
          exec.run(plan, w.eval_feeds[i], arena, overrides);
      ++m.trials;
      for (const auto& judge : judges)
        if (judge->is_sdc(golden[i], out)) ++m.sdcs;
    }
  }
  m.seconds = timer.elapsed_seconds();
  return m;
}

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::print_header("Weight-memory fault SDC study",
                      "the weight-fault extension of Fig 6 (paper §II-C "
                      "relaxed: parameter memory without/with ECC)");
  bench::print_shard_note(cfg);

  const fi::EccModel no_ecc{};
  const fi::EccModel secded{fi::EccKind::kSecDed, 0.0};

  std::vector<std::pair<std::string, double>> metrics;
  util::Table table({"model", "SDC act (%)", "SDC weight (%)",
                     "SDC weight+secded (%)", "SDC weight ranger (%)"});
  for (const models::ModelId id :
       {models::ModelId::kLeNet, models::ModelId::kAlexNet}) {
    const bench::ProtectedWorkload pw = bench::make_protected(id, cfg);
    const double act = avg_rate_pct(bench::run_sdc_campaign(
        pw.base.graph, pw.base, cfg, tensor::DType::kFixed32));
    const double weight = avg_rate_pct(
        run_weight_campaign(pw.base.graph, pw.base, cfg, no_ecc));
    const double weight_secded = avg_rate_pct(
        run_weight_campaign(pw.base.graph, pw.base, cfg, secded));
    const double weight_ranger = avg_rate_pct(
        run_weight_campaign(pw.protected_graph, pw.base, cfg, no_ecc));
    table.add_row({models::model_name(id), util::Table::fmt(act, 2),
                   util::Table::fmt(weight, 2),
                   util::Table::fmt(weight_secded, 2),
                   util::Table::fmt(weight_ranger, 2)});
    const std::string tok = models::model_token(id);
    metrics.emplace_back(tok + "_act_sdc_pct", act);
    metrics.emplace_back(tok + "_weight_sdc_pct", weight);
    metrics.emplace_back(tok + "_weight_secded_sdc_pct", weight_secded);
    metrics.emplace_back(tok + "_weight_ranger_sdc_pct", weight_ranger);
    if (weight_secded != 0.0) {
      // SEC-DED corrects every single-bit weight fault before it touches
      // memory — a non-zero rate here is a correctness bug, not noise.
      std::fprintf(stderr,
                   "FAIL: %s SEC-DED single-bit weight SDC rate is %.4f%% "
                   "(must be 0 by construction)\n",
                   tok.c_str(), weight_secded);
      return 1;
    }
  }
  table.print();
  std::printf("(single-bit faults; SEC-DED corrects all of them, so its "
              "column is 0 by construction)\n");

  // ---- Input-sweep speedup vs naive per-trial recompilation -------------
  std::printf("\n-- persistent-fault input sweep vs naive recompilation "
              "(LeNet) --\n");
  models::WorkloadOptions wo;
  wo.eval_inputs = cfg.inputs;
  wo.seed = cfg.seed;
  const models::Workload w = models::make_workload(models::ModelId::kLeNet,
                                                   wo);
  fi::CampaignConfig cc;
  cc.dtype = tensor::DType::kFixed32;
  cc.fault_class = fi::FaultClass::kWeight;
  const std::size_t n_faults =
      std::max<std::size_t>(30, cfg.trials_small / 10);
  cc.trials_per_input = n_faults;
  cc.seed = cfg.seed;
  const fi::TrialPlanner planner(w.graph, cc, w.eval_feeds.size());

  const SweepMeasurement sweep = run_sweep(w, planner, cc, n_faults);
  const SweepMeasurement naive = run_naive(w, planner, cc, n_faults);
  if (sweep.trials != naive.trials || sweep.sdcs != naive.sdcs) {
    std::fprintf(stderr,
                 "FAIL: sweep and naive modes diverge (sweep %zu/%zu, "
                 "naive %zu/%zu) — patched-plan reuse must be "
                 "bit-identical to recompilation\n",
                 sweep.sdcs, sweep.trials, naive.sdcs, naive.trials);
    return 1;
  }
  const double speedup =
      sweep.seconds > 0.0 ? naive.seconds / sweep.seconds : 0.0;
  std::printf("%zu faults x %zu inputs, %zu SDCs (bit-identical)\n",
              n_faults, w.eval_feeds.size(), sweep.sdcs);
  std::printf("sweep  %.3fs  (%.0f trials/s)\n", sweep.seconds,
              sweep.seconds > 0 ? sweep.trials / sweep.seconds : 0.0);
  std::printf("naive  %.3fs  (%.0f trials/s)\n", naive.seconds,
              naive.seconds > 0 ? naive.trials / naive.seconds : 0.0);
  std::printf("speedup %.2fx (target >= 3x)%s\n", speedup,
              speedup >= 3.0 ? "  OK" : "  BELOW TARGET");

  metrics.emplace_back("sweep_seconds", sweep.seconds);
  metrics.emplace_back("naive_seconds", naive.seconds);
  metrics.emplace_back("sweep_speedup_x", speedup);
  bench::emit_bench_json("weight_fault_sdc", metrics, &cfg);
  return 0;
}
