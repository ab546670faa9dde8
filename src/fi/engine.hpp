// fi::Engine — the one engine cache behind fi::Suite and fi::Scheduler.
// A suite cell's campaign runs on state that is expensive to build and
// shared by many cells (and, in the scheduler daemon, by many requests),
// so it is built once per key and reused:
//
//  * workloads — a models::WorkloadCache per (seed, eval inputs); an
//    external cache whose options match serves those requests instead;
//  * bounds — RangeProfiler restriction bounds per (seed, inputs, model,
//    act);
//  * protected graphs — the Ranger transform of the workload graph under
//    those bounds (a separate entry, so bounds and transform time apart);
//  * executors — compiled TrialExecutors (plans + goldens) per (seed,
//    inputs, model, act, protected?, dtype).  The fault model, trial
//    count and seed stream never reach an executor, so one serves every
//    cell of its key.  A ranger-paired cell judges against the goldens
//    of its unprotected sibling's executor (RunContext::golden_executor).
//
// Every entry cache is a util::OnceCache: built at most once, in
// parallel across keys, never evicted, immutable once built — so
// returned references stay valid for the engine's lifetime and reads
// need no lock.  Build chains nest executor → protected graph → bounds →
// workload, one direction, so nested builds never deadlock.  Lookups
// run under cache.<which>.get spans and builds under cache.<which>.build
// spans, which ∈ {bounds, protected, executor} (workload lookups are
// models::WorkloadCache's).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "fi/suite.hpp"
#include "util/mutex.hpp"
#include "util/once_cache.hpp"
#include "util/thread_annotations.hpp"

namespace rangerpp::fi {

class Engine {
 public:
  // `external` (optional, must outlive the engine) serves every request
  // whose (seed, inputs) match its options.  `verify_plans` runs the
  // static plan verifier on every executor's compiled plans
  // (CampaignConfig::verify_plan).  `workers` is the arena-slot count of
  // every executor: the callers' maximum parallel width.
  Engine(models::WorkloadCache* external, bool verify_plans,
         unsigned workers);

  models::WorkloadCache& workloads(std::uint64_t seed, std::size_t inputs);
  const core::Bounds& bounds(const SuiteSpec& spec, models::ModelId model,
                             ops::OpKind act);
  const graph::Graph& protected_graph(const SuiteSpec& spec,
                                      models::ModelId model,
                                      ops::OpKind act);

  // What one cell's campaign runs on: its inputs (the workload's eval
  // feeds) and a RunContext with the cell's planning and execution
  // graphs, the shared executor and, for kRangerPaired cells, the
  // unprotected executor whose goldens judge the trials.
  // ctx.worker_base is 0.
  struct CellRun {
    const std::vector<Feeds>* inputs = nullptr;
    RunContext ctx;
  };
  CellRun prepare(const SuiteSpec& spec, const SuiteCell& cell);

 private:
  const TrialExecutor& executor(const SuiteSpec& spec, const SuiteCell& cell,
                                bool is_protected);

  // (seed, inputs, model, act) and the executor's (…, protected?, dtype).
  using ModelKey = std::tuple<std::uint64_t, std::size_t, int, int>;
  using ExecKey = std::tuple<std::uint64_t, std::size_t, int, int, int, int>;

  const bool verify_plans_;
  const unsigned workers_;
  models::WorkloadCache* const external_;
  util::Mutex mu_;  // guards workloads_, whose caches are cheap to make
  std::map<std::pair<std::uint64_t, std::size_t>,
           std::unique_ptr<models::WorkloadCache>>
      workloads_ RANGERPP_GUARDED_BY(mu_);
  util::OnceCache<ModelKey, core::Bounds> bounds_{
      {"cache.bounds.get", "cache.bounds.build", "cache.bounds.hit"}};
  util::OnceCache<ModelKey, graph::Graph> protected_{
      {"cache.protected.get", "cache.protected.build",
       "cache.protected.hit"}};
  util::OnceCache<ExecKey, std::unique_ptr<TrialExecutor>> executors_{
      {"cache.executor.get", "cache.executor.build", "cache.executor.hit"}};
};

}  // namespace rangerpp::fi
