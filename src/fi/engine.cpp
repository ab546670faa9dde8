#include "fi/engine.hpp"

#include <stdexcept>
#include <string>

#include "core/calibration.hpp"
#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"

namespace rangerpp::fi {

namespace {

int key(models::ModelId model) { return static_cast<int>(model); }
int key(ops::OpKind act) { return static_cast<int>(act); }

}  // namespace

Engine::Engine(models::WorkloadCache* external, bool verify_plans,
               unsigned workers)
    : verify_plans_(verify_plans), workers_(workers), external_(external) {}

models::WorkloadCache& Engine::workloads(std::uint64_t seed,
                                         std::size_t inputs) {
  if (external_ && external_->options().seed == seed &&
      external_->options().eval_inputs == inputs)
    return *external_;
  util::MutexLock lk(mu_);
  std::unique_ptr<models::WorkloadCache>& cache = workloads_[{seed, inputs}];
  if (!cache) {
    models::WorkloadOptions wo;
    wo.seed = seed;
    wo.eval_inputs = inputs;
    cache = std::make_unique<models::WorkloadCache>(wo);
  }
  return *cache;
}

const core::Bounds& Engine::bounds(const SuiteSpec& spec,
                                   models::ModelId model, ops::OpKind act) {
  return bounds_.get(
      ModelKey{spec.seed, spec.inputs, key(model), key(act)}, [&] {
        const models::Workload& w =
            workloads(spec.seed, spec.inputs).get(model, act);
        return core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);
      });
}

const graph::Graph& Engine::protected_graph(const SuiteSpec& spec,
                                            models::ModelId model,
                                            ops::OpKind act) {
  return protected_.get(
      ModelKey{spec.seed, spec.inputs, key(model), key(act)}, [&] {
        const models::Workload& w =
            workloads(spec.seed, spec.inputs).get(model, act);
        return core::RangerTransform{}.apply(w.graph,
                                             bounds(spec, model, act));
      });
}

Engine::CellRun Engine::prepare(const SuiteSpec& spec,
                                const SuiteCell& cell) {
  const models::Workload& w =
      workloads(spec.seed, spec.inputs).get(cell.model, cell.act);
  if (w.eval_feeds.size() != spec.inputs)
    throw std::runtime_error(
        "Engine: workload produced " + std::to_string(w.eval_feeds.size()) +
        " eval inputs for cell " + cell.id + ", spec expects " +
        std::to_string(spec.inputs));
  const bool is_protected = cell.technique != Technique::kUnprotected;
  CellRun run;
  run.inputs = &w.eval_feeds;
  // Fault sites are planned on the protected graph for kRanger cells
  // and on the workload graph otherwise (see Technique).
  run.ctx.plan_graph = cell.technique == Technique::kRanger
                           ? &protected_graph(spec, cell.model, cell.act)
                           : &w.graph;
  run.ctx.exec_graph =
      is_protected ? &protected_graph(spec, cell.model, cell.act) : &w.graph;
  run.ctx.executor = &executor(spec, cell, is_protected);
  if (cell.technique == Technique::kRangerPaired)
    run.ctx.golden_executor = &executor(spec, cell, /*is_protected=*/false);
  return run;
}

const TrialExecutor& Engine::executor(const SuiteSpec& spec,
                                      const SuiteCell& cell,
                                      bool is_protected) {
  const ExecKey k{spec.seed,        spec.inputs,
                  key(cell.model),  key(cell.act),
                  is_protected ? 1 : 0, static_cast<int>(cell.dtype)};
  return *executors_.get(k, [&] {
    const models::Workload& w =
        workloads(spec.seed, spec.inputs).get(cell.model, cell.act);
    CampaignConfig ec;
    ec.dtype = cell.dtype;
    // The per-executor static verification point: every distinct
    // compiled plan is proven sound here, once, before any trial runs.
    // A VerifyReport failure throws out of the build.
    ec.verify_plan = verify_plans_;
    // int8 cells calibrate activation formats from the same
    // RangeProfiler bounds Ranger derives its thresholds from — a pure
    // function of (model, act), independent of the cell's dtype, shard
    // or resume state — so the calibrated plan (and with it the cell's
    // trial stream) is identical across shards and resumes.
    if (cell.dtype == tensor::DType::kInt8)
      ec.int8_formats =
          core::int8_calibration(bounds(spec, cell.model, cell.act));
    const graph::Graph& g =
        is_protected ? protected_graph(spec, cell.model, cell.act) : w.graph;
    return std::make_unique<TrialExecutor>(g, ec, w.eval_feeds, workers_);
  });
}

}  // namespace rangerpp::fi
