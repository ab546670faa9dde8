// §VI-C design alternatives: what should a restriction op do with an
// out-of-bound value?
//  * clamp to the bound (Ranger's choice),
//  * reset to 0 (Reagen et al., Minerva),
//  * replace with a uniform random value inside the bound.
//
// The policies only differ on values that actually leave the profiled
// range.  Fault-free, that happens only on the rare unseen inputs whose
// activations exceed the training-derived bound (the paper's "5 out of
// 50,000" VGG16 cases, §III-B); on exactly those inputs the paper finds
// zero-reset flips 3/5 = 60% of predictions while clamp preserves them.
// This bench (a) finds such boundary-exceeding validation inputs, (b)
// compares the policies' fault-free prediction agreement on them, and (c)
// compares SDC rates under faults, where all three policies restrict the
// corrupted values.
#include <atomic>

#include "bench/common.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "util/threadpool.hpp"

using namespace rangerpp;

namespace {

struct PolicyDef {
  const char* name;
  core::RestrictionPolicy policy;
};
constexpr PolicyDef kPolicies[] = {
    {"Clamp to bound (Ranger)", core::RestrictionPolicy::kClamp},
    {"Reset to zero (Minerva)", core::RestrictionPolicy::kZero},
    {"Random in-bound replacement", core::RestrictionPolicy::kRandom},
};

// Float32 plan whose nodes are the graph's, so bound names match hooks.
graph::ExecutionPlan float_plan(const graph::Graph& g) {
  return graph::compile(
      g, {.dtype = tensor::DType::kFloat32, .observe = graph::Observe::kAll});
}

// Indices of validation samples whose fault-free activations exceed the
// profiled upper bound anywhere in the network.
std::vector<std::size_t> exceeding_inputs(const models::Workload& w,
                                          const graph::ExecutionPlan& plan,
                                          const core::Bounds& bounds) {
  std::vector<std::size_t> out;
  const std::size_t count = w.validation.samples.size();
  std::vector<std::atomic<unsigned char>> flags(count);
  const graph::Executor exec;
  std::vector<graph::Arena> arenas(util::worker_count(count));
  util::parallel_for_workers(count, [&](unsigned worker, std::size_t i) {
    bool exceeds = false;
    exec.run(plan,
             fi::Feeds{{w.input_name, w.validation.samples[i].image}},
             arenas[worker], [&](const graph::Node& n, tensor::Tensor& t) {
               if (exceeds) return;
               const auto it = bounds.find(n.name);
               if (it == bounds.end()) return;
               for (float v : t.values())
                 if (v > it->second.up || v < it->second.low) {
                   exceeds = true;
                   break;
                 }
             });
    flags[i] = exceeds ? 1 : 0;
  });
  for (std::size_t i = 0; i < flags.size(); ++i)
    if (flags[i]) out.push_back(i);
  return out;
}

}  // namespace

int main() {
  const bench::BenchConfig cfg;
  bench::print_header("Restriction-policy design alternatives",
                      "Section VI-C");

  for (const models::ModelId id :
       {models::ModelId::kVgg16, models::ModelId::kLeNet}) {
    models::WorkloadOptions wo;
    wo.eval_inputs = cfg.inputs;
    wo.validation_samples = 400;
    // A modest profiling sample leaves genuine head-room for unseen data
    // to exceed the bound, as with the paper's 20% training subset.
    wo.profile_samples = 60;
    wo.seed = cfg.seed;
    const models::Workload w = models::make_workload(id, wo);
    const core::Bounds bounds =
        core::RangeProfiler{}.derive_bounds(w.graph, w.profile_feeds);

    const graph::ExecutionPlan base_plan = float_plan(w.graph);
    const std::vector<std::size_t> exceeding =
        exceeding_inputs(w, base_plan, bounds);
    std::printf("--- %s: %zu of %zu validation inputs exceed the profiled "
                "bound fault-free ---\n",
                models::model_name(id).c_str(), exceeding.size(),
                w.validation.samples.size());

    fi::CampaignConfig cc;
    cc.dtype = tensor::DType::kFixed32;
    cc.trials_per_input = cfg.trials_for(id);
    cc.seed = cfg.seed;
    const auto judges = models::default_judges(id);
    const graph::Executor exec;
    graph::Arena base_arena, prot_arena;

    util::Table table({"policy", "pred. changes on exceeding inputs",
                       "SDC rate (%)"});
    const auto base =
        bench::campaign_results(cc, w.graph, w.eval_feeds, judges);
    table.add_row({"Unprotected", "-", bench::pct_pm(base[0])});

    for (const PolicyDef& p : kPolicies) {
      const graph::Graph protected_g =
          core::RangerTransform{{p.policy, cfg.seed}}.apply(w.graph, bounds);
      const graph::ExecutionPlan prot_plan = float_plan(protected_g);
      std::size_t changed = 0;
      for (const std::size_t i : exceeding) {
        const fi::Feeds feeds{{w.input_name,
                               w.validation.samples[i].image}};
        if (graph::argmax(exec.run(base_plan, feeds, base_arena)) !=
            graph::argmax(exec.run(prot_plan, feeds, prot_arena)))
          ++changed;
      }
      const auto r =
          bench::campaign_results(cc, protected_g, w.eval_feeds, judges);
      table.add_row(
          {p.name,
           std::to_string(changed) + " / " + std::to_string(exceeding.size()),
           bench::pct_pm(r[0])});
    }
    table.print();

    // Stress variant: brightness-shifted inputs (x1.5) push many
    // activations past the profiled bound — the "unseen data" regime the
    // paper worries about.  The policies now genuinely diverge: zero-reset
    // wipes out the large (informative) activations, clamp saturates them.
    std::printf("Distribution-shifted inputs (pixels x1.5), prediction "
                "changes vs unprotected:\n");
    util::Table shifted_table({"policy", "changed predictions"});
    std::vector<tensor::Tensor> shifted;
    const std::size_t n_shift =
        std::min<std::size_t>(60, w.validation.samples.size());
    for (std::size_t i = 0; i < n_shift; ++i) {
      tensor::Tensor img = w.validation.samples[i].image.clone();
      for (float& v : img.mutable_values()) v *= 1.5f;
      shifted.push_back(std::move(img));
    }
    for (const PolicyDef& p : kPolicies) {
      const graph::ExecutionPlan prot_plan = float_plan(
          core::RangerTransform{{p.policy, cfg.seed}}.apply(w.graph, bounds));
      std::size_t changed = 0;
      for (const tensor::Tensor& img : shifted) {
        const fi::Feeds feeds{{w.input_name, img}};
        if (graph::argmax(exec.run(base_plan, feeds, base_arena)) !=
            graph::argmax(exec.run(prot_plan, feeds, prot_arena)))
          ++changed;
      }
      shifted_table.add_row(
          {p.name, std::to_string(changed) + " / " +
                       std::to_string(shifted.size())});
    }
    shifted_table.print();
  }
  std::printf(
      "Paper (VGG16): zero-reset changes 3/5 = 60%% of the "
      "bound-exceeding inputs' predictions; random replacement and clamp "
      "preserve them.  All three policies give comparable SDC reduction; "
      "clamp is deterministic, which the paper prefers for safety-critical "
      "systems.\n");
  return 0;
}
