// Table VI: comparison of Ranger with the existing protection techniques,
// all re-implemented (src/baselines/) and evaluated under the *identical*
// fault-injection campaign.  Coverage = fraction of would-be-SDC trials
// that a technique corrects or detects; overhead = FLOPs relative to the
// unprotected model.
//
// The Ranger and Hong et al. rows run on the zoo-wide suite (fi::Suite):
//  * Ranger coverage is the record join of an (unprotected,
//    ranger-paired) cell pair — fault sites planned on the unprotected
//    graph, replayed on the protected twin, judged against the
//    unprotected goldens — the exact replay the old in-bench loop did;
//  * Hong et al. is the relative SDC reduction of the Tanh-substituted
//    activation variant, i.e. two unprotected cells on the suite's act
//    axis.
// The five baseline techniques (src/baselines/) keep the paired replay
// evaluator below but share the suite's workload cache, so every row of
// the table is built from one workload/bounds/plan construction per
// model.
//
// Paper's cited operating points: TMR 100%/200%; selective duplication
// ~60%/30%; symptom-based detector 99.5%/74.48%; ML-based corrector
// 66.95%/0.95%; Hong et al. 31.54%/0%; ABFT 29.98%/<8%; Ranger
// 97.05%/0.53%.
#include <memory>

#include "baselines/abft.hpp"
#include "baselines/duplication.hpp"
#include "baselines/ml_corrector.hpp"
#include "baselines/symptom.hpp"
#include "baselines/tmr.hpp"
#include "bench/common.hpp"
#include "core/flops_profiler.hpp"
#include "graph/passes.hpp"
#include "util/threadpool.hpp"

using namespace rangerpp;

namespace {

struct Row {
  std::string name;
  double coverage_sum = 0.0;
  double overhead_sum = 0.0;
  std::size_t count = 0;
};

// Evaluates one technique on one workload: replays the campaign's fault
// sets; for trials whose unprotected run is an SDC, counts the trial
// covered when the technique's output is not an SDC or the fault was
// detected (detection triggers out-of-band recovery).  Trial generation
// and the plain (unprotected) run go through the campaign layers
// (TrialPlanner / TrialExecutor), so the fault stream is the exact one
// every other campaign entry point draws for this seed.
void eval_technique(baselines::Technique& tech,
                    const models::Workload& w,
                    const bench::BenchConfig& cfg, Row& row) {
  fi::CampaignConfig cc;
  cc.dtype = tensor::DType::kFixed32;
  cc.trials_per_input = cfg.trials_for(w.id) / 2;
  cc.seed = cfg.seed;
  const graph::ExecutionPlan plan = graph::compile(
      w.graph, {.dtype = cc.dtype, .observe = graph::Observe::kAll});
  tech.prepare(plan, w.profile_feeds);

  const auto judges = models::default_judges(w.id);
  const fi::TrialPlanner planner(w.graph, cc, w.eval_feeds.size());
  const std::size_t total = planner.total_trials();
  // Honor RANGERPP_SHARD like the campaign figures: this process replays
  // only its slice of the deterministic trial stream.
  std::vector<std::size_t> trial_ids;
  for (std::size_t t = cfg.shard_index; t < total; t += cfg.shard_count)
    trial_ids.push_back(t);
  const unsigned workers = util::worker_count(trial_ids.size());
  const fi::TrialExecutor executor(w.graph, cc, w.eval_feeds, workers);

  std::vector<graph::Arena> tech_arenas(workers);
  std::vector<unsigned char> sdc_flags(total, 0), covered_flags(total, 0);
  util::parallel_for_workers(trial_ids.size(), [&](unsigned worker,
                                                   std::size_t i) {
    const std::size_t t = trial_ids[i];
    const fi::TrialSpec spec = planner.plan(t);
    const tensor::Tensor& golden = executor.golden_output(spec.input);
    const tensor::Tensor plain =
        executor.run_trial(worker, spec.input, spec.faults);
    bool sdc = false;
    for (const auto& j : judges)
      if (j->is_sdc(golden, plain)) sdc = true;
    if (!sdc) return;
    sdc_flags[t] = 1;

    const baselines::TrialOutcome o = tech.run_trial(
        plan, tech_arenas[worker], w.eval_feeds[spec.input], spec.faults);
    bool still_sdc = false;
    for (const auto& j : judges)
      if (j->is_sdc(golden, o.output)) still_sdc = true;
    if (!still_sdc || o.detected) covered_flags[t] = 1;
  });

  std::size_t sdcs = 0, covered = 0;
  for (std::size_t t = 0; t < total; ++t) {
    sdcs += sdc_flags[t];
    covered += covered_flags[t];
  }
  if (sdcs > 0) {
    row.coverage_sum += 100.0 * static_cast<double>(covered) /
                        static_cast<double>(sdcs);
    row.overhead_sum += tech.overhead_pct(w.graph);
    ++row.count;
  }
}

// Mean-over-judges SDC rate of an unprotected suite cell.
double mean_sdc_rate(const fi::SuiteCellResult& c) {
  double sum = 0.0;
  for (const auto& r : c.report.aggregate) sum += r.sdc_rate();
  return c.report.aggregate.empty()
             ? 0.0
             : sum / static_cast<double>(c.report.aggregate.size());
}

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::print_header(
      "Protection-technique comparison (coverage vs overhead)", "Table VI");
  bench::print_shard_note(cfg);

  // Representative workloads spanning a classifier, an LRN-bearing
  // classifier and a steering model (full 8-model sweeps of every
  // technique would multiply runtime ~7x for no additional insight).
  const std::vector<models::ModelId> ids = {models::ModelId::kLeNet,
                                            models::ModelId::kAlexNet,
                                            models::ModelId::kComma};

  // One workload cache feeds the suites and the baseline evaluators.
  models::WorkloadOptions wo;
  wo.eval_inputs = cfg.inputs;
  wo.seed = cfg.seed;
  models::WorkloadCache cache(wo);

  // Ranger row: (unprotected, ranger-paired) cell pairs at half trials —
  // the Table VI campaign configuration.
  fi::SuiteSpec paired_spec = bench::suite_spec_from_env(cfg, "table6");
  paired_spec.models = ids;
  paired_spec.dtypes = {tensor::DType::kFixed32};
  paired_spec.techniques = {fi::Technique::kUnprotected,
                            fi::Technique::kRangerPaired};
  paired_spec.trials_divisor = 2;
  fi::Suite paired_suite(paired_spec, &cache);
  const fi::SuiteResult paired = paired_suite.run();

  // Hong et al. row: the Tanh activation substitution, evaluated as the
  // relative SDC reduction over the ReLU variant (Fig 8's metric).
  fi::SuiteSpec hong_spec = bench::suite_spec_from_env(cfg, "table6-hong");
  hong_spec.models = ids;
  hong_spec.acts = {ops::OpKind::kRelu, ops::OpKind::kTanh};
  hong_spec.dtypes = {tensor::DType::kFixed32};
  hong_spec.techniques = {fi::Technique::kUnprotected};
  hong_spec.trials_divisor = 2;
  fi::Suite hong_suite(hong_spec, &cache);
  const fi::SuiteResult hong = hong_suite.run();

  std::vector<Row> rows;
  rows.reserve(16);  // references below must stay valid across add() calls
  auto add = [&](const std::string& name) -> Row& {
    rows.push_back(Row{name, 0, 0, 0});
    return rows.back();
  };

  Row& tmr_row = add("Triple Modular Redundancy");
  Row& dup_row = add("Selective duplication [16]");
  Row& sym_row = add("Symptom-based detector [12]");
  Row& ml_row = add("ML-based error corrector [14]");
  Row& hong_row = add("Hong et al. [19]");
  Row& abft_row = add("ABFT-based approach [17]");
  Row& ranger_row = add("Ranger (Ours)");

  for (const models::ModelId id : ids) {
    const models::Workload& w = cache.get(id);

    baselines::Tmr tmr;
    baselines::SelectiveDuplication dup(30.0);
    baselines::SymptomDetector sym(1.1);
    baselines::MlCorrector ml(200, cfg.seed);
    baselines::AbftConv abft;

    eval_technique(tmr, w, cfg, tmr_row);
    eval_technique(dup, w, cfg, dup_row);
    eval_technique(sym, w, cfg, sym_row);
    eval_technique(ml, w, cfg, ml_row);
    eval_technique(abft, w, cfg, abft_row);
  }

  // Ranger: join each model's paired cells.
  for (std::size_t i = 0; i < paired.cells.size(); ++i) {
    const auto cov = fi::paired_coverage(paired, i);
    if (!cov || cov->sdcs == 0) continue;
    const fi::SuiteCell& c = paired.cells[i].cell;
    ranger_row.coverage_sum += cov->pct();
    ranger_row.overhead_sum += core::flops_overhead_pct(
        cache.get(c.model).graph,
        paired_suite.protected_graph(c.model, c.act));
    ++ranger_row.count;
  }

  // Hong: relative SDC reduction Tanh vs ReLU per model.
  for (const models::ModelId id : ids) {
    const fi::SuiteCellResult* relu = nullptr;
    const fi::SuiteCellResult* tanh = nullptr;
    for (const fi::SuiteCellResult& c : hong.cells) {
      if (c.cell.model != id) continue;
      if (c.cell.act == ops::OpKind::kRelu) relu = &c;
      if (c.cell.act == ops::OpKind::kTanh) tanh = &c;
    }
    if (!relu || !tanh) continue;
    const double base = mean_sdc_rate(*relu);
    hong_row.coverage_sum +=
        base <= 0.0 ? 0.0
                    : 100.0 * (base - mean_sdc_rate(*tanh)) / base;
    hong_row.overhead_sum += 0.0;  // architecture change, no runtime cost
    ++hong_row.count;
  }

  util::Table table({"technique", "SDC coverage", "overhead"});
  for (const Row& r : rows) {
    const double n = r.count ? static_cast<double>(r.count) : 1.0;
    table.add_row({r.name, util::Table::pct(r.coverage_sum / n, 2),
                   util::Table::pct(r.overhead_sum / n, 2)});
  }
  table.print();
  std::printf(
      "Paper: TMR 100/200; dup ~60/30; symptom 99.5/74.48; ML 66.95/0.95; "
      "Hong 31.54/0; ABFT 29.98/<8; Ranger 97.05/0.53.\n"
      "(Hong et al. coverage here can be negative: the untrained Tanh swap "
      "sometimes hurts; see EXPERIMENTS.md.)\n");
  return 0;
}
