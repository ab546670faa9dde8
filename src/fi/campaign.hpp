// Fault-injection campaign layers (the TensorFI-equivalent experiment
// driver).  CampaignRunner (runner.hpp) is the one trial loop; it
// composes the deterministic core defined here:
//
//  * trial generation  — TrialPlanner: pure function of (config, trial
//    index) → fault set + input index + stratum, so any subset of trials
//    (a shard, a resumed tail) reproduces bit-identically on any machine;
//  * execution         — TrialExecutor: compiled ExecutionPlan, cached
//    golden activations, per-worker Arenas, golden-prefix partial
//    re-execution via Executor::run_from;
//  * aggregation       — CampaignResult here for raw counts; the richer
//    per-stratum / checkpointed reports live in report.hpp.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fi/fault_model.hpp"
#include "fi/sdc.hpp"
#include "fi/weight_fault.hpp"
#include "graph/executor.hpp"
#include "graph/plan.hpp"
#include "util/stats.hpp"

namespace rangerpp::fi {

struct CampaignConfig {
  tensor::DType dtype = tensor::DType::kFixed32;
  int n_bits = 1;                   // flips per trial (multi-bit: 2-5)
  // Multi-bit mode: false = independent flips in independently chosen
  // values (the paper's conservative default, §VI-B); true = a burst of
  // adjacent bits within one value (Yang et al. [58]).
  bool consecutive_bits = false;
  std::size_t trials_per_input = 1000;
  std::uint64_t seed = 42;
  unsigned threads = 0;             // 0 = hardware concurrency
  // Golden-prefix partial re-execution (the default).  false forces a full
  // graph execution per trial — only useful for A/B benchmarking the
  // speedup; results are bit-identical either way.
  bool partial_reexecution = true;
  // Kernel backend the campaign's plans compile under; a pure performance
  // knob (backends are bit-identical, see ops/backend.hpp), so it is
  // excluded from checkpoint fingerprints.
  ops::KernelBackend backend = ops::default_backend();
  // Trials executed per plan run: up to `batch` same-input trials ride one
  // batched plan execution, each in its own batch row, amortising plan
  // dispatch and letting the blocked kernels work on wider blocks.  Also
  // bit-identical to per-trial execution (rows are independent) and
  // excluded from fingerprints.  1 disables batching; graphs that cannot
  // compile batched (see plan_supports_batch) fall back to per-trial runs.
  std::size_t batch = 8;

  // ---- Weight-memory fault campaigns (fault_class == kWeight) ----------
  // Persistent parameter corruption instead of transient activation
  // flips.  The trial stream is an *input sweep*: trial t applies fault
  // t / n_inputs to input t % n_inputs, so the n_inputs consecutive
  // trials of one fault corrupt the same const elements.  Each trial
  // runs its fault as injections on Const nodes (TrialExecutor::
  // run_trial), the path activation faults take — no per-trial plan
  // recompilation, and no const copy on a partial run.
  // trials_per_input therefore counts the *faults* each input sees; the
  // campaign size trials_per_input × n_inputs is unchanged.  Batched
  // plan riding is disabled under kWeight (batch rows share the const
  // tensors, so two faults cannot ride one run); `weight_fault`/`ecc`
  // are fingerprinted (report.hpp) while `batch`/`backend` stay
  // performance-only.
  FaultClass fault_class = FaultClass::kActivation;
  WeightFaultModel weight_fault;  // used when fault_class == kWeight
  EccModel ecc;                   // filters sampled weight faults

  // ---- int8 calibration (dtype == kInt8 only) --------------------------
  // Per-node activation formats (node name -> format), normally
  // core::int8_calibration(bounds) from the model's RangeProfiler bounds —
  // the same bounds Ranger derives its restriction thresholds from.
  // Forwarded into CompileOptions::int8_formats; ignored for other dtypes.
  // Deterministic given (model, seed, inputs), so it needs no checkpoint
  // fingerprint entry of its own: `dtype` already covers it.
  std::unordered_map<std::string, tensor::FixedPointFormat> int8_formats;

  // Run the static plan verifier (graph/verify.hpp) on every plan this
  // campaign compiles, even in release builds where compilation skips it
  // by default.  A violated invariant throws std::logic_error out of
  // TrialExecutor construction instead of producing silently wrong trial
  // records.  Pure diagnostics: verification never mutates the plan, so
  // it is excluded from checkpoint fingerprints.
  bool verify_plan = false;
};

using Feeds = std::unordered_map<std::string, tensor::Tensor>;

struct CampaignResult {
  std::size_t trials = 0;
  std::size_t sdcs = 0;

  double sdc_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(sdcs) /
                             static_cast<double>(trials);
  }
  double sdc_rate_pct() const { return 100.0 * sdc_rate(); }
  // 95% CI half-width, in percent (the paper's error bars).
  double ci95_pct() const {
    return 100.0 * util::ci95_proportion(sdcs, trials);
  }
  // Wilson score interval (fractions); better behaved near rate 0.
  util::Interval wilson95() const { return util::wilson95(sdcs, trials); }
};

// ---- Trial generation layer -------------------------------------------------

// Stratified sampling over (layer, bit-group) strata: trial t is assigned
// round-robin to stratum t % strata_count() and sampled *within* it, so
// every layer/bit-position class is covered evenly regardless of layer
// size.  Off (uniform-over-elements sampling, the paper's default) unless
// `enabled`.  Requires n_bits == 1 and !consecutive_bits.
struct StratifiedOptions {
  bool enabled = false;
  // Bit positions are grouped into ceil(dtype_bits / bit_group_size)
  // classes per layer; 8 gives 4 strata per layer under fixed32.
  int bit_group_size = 8;
};

// What one trial does, fully determined by (config, trial index).
struct TrialSpec {
  std::size_t trial = 0;
  std::size_t input = 0;    // index into the campaign's input list
  std::size_t stratum = 0;  // index into the planner's strata
  FaultSet faults;          // sampled faults (recorded in checkpoints)
  // Faults that actually corrupt state after ECC filtering — what the
  // executor applies.  Equal to `faults` for activation campaigns and
  // for weight campaigns without ECC; may be empty when SEC-DED corrects
  // the whole sample (the trial then reproduces the golden output by
  // construction).
  FaultSet applied;
};

class TrialPlanner {
 public:
  TrialPlanner(const graph::Graph& g, const CampaignConfig& config,
               std::size_t n_inputs, StratifiedOptions stratified = {});

  std::size_t total_trials() const {
    return n_inputs_ * config_.trials_per_input;
  }
  // Pure: plan(t) depends only on the constructor arguments, never on
  // which other trials ran — the property sharding and resume rely on.
  TrialSpec plan(std::size_t t) const;

  // Strata are defined for both sampling modes (uniform trials are
  // post-stratified by their sampled fault), keyed "node:bLO-HI" — over
  // operator-output sites for activation campaigns, over Const-tensor
  // sites for weight campaigns.
  std::size_t strata_count() const { return strata_.size(); }
  const std::string& stratum_key(std::size_t s) const {
    return strata_[s].key;
  }
  // Probability mass of a stratum under the uniform site distribution
  // (element share × bit share); weights sum to 1 and turn per-stratum
  // rates back into an unbiased aggregate under stratified sampling.
  double stratum_weight(std::size_t s) const { return strata_[s].weight; }

  // Activation campaigns only (the planner builds exactly one space).
  const SiteSpace& sites() const { return *sites_; }
  // Weight campaigns only.
  const WeightSiteSpace& weight_sites() const { return *wsites_; }
  const CampaignConfig& config() const { return config_; }
  const StratifiedOptions& stratified() const { return stratified_; }

 private:
  std::size_t stratum_of(const FaultSet& faults) const;
  std::size_t stratum_for_index(std::size_t t) const;

  struct Stratum {
    std::string key;
    std::size_t site = 0;  // SiteSpace site index
    int bit_lo = 0;
    int bit_span = 1;
    double weight = 0.0;
  };

  CampaignConfig config_;
  std::size_t n_inputs_;
  StratifiedOptions stratified_;
  std::optional<SiteSpace> sites_;         // activation campaigns
  std::optional<WeightSiteSpace> wsites_;  // weight campaigns
  std::vector<Stratum> strata_;
  std::size_t bit_groups_ = 1;
};

// ---- Execution layer --------------------------------------------------------

// Owns everything one campaign needs to execute trials: the compiled
// plans (single-image, and — when CampaignConfig::batch > 1 and the graph
// is batchable — a batched twin), the per-input golden outputs +
// activation snapshots, and one private Arena per worker.  run_trial and
// run_trial_batch are safe to call concurrently for distinct `worker`
// values.
class TrialExecutor {
 public:
  // `inputs` must outlive the executor.  `workers` sizes the arena pool
  // (use util::worker_count).
  TrialExecutor(const graph::Graph& g, const CampaignConfig& config,
                const std::vector<Feeds>& inputs, unsigned workers);

  // Applies `faults` (make_injections: activation faults on op outputs,
  // weight faults on Consts — for a weight trial, its post-ECC applied
  // set) to input `input_idx` and returns the faulty output, resuming
  // from the cached golden activations (or a full plan run when partial
  // re-execution is disabled) — bit-identical either way.
  tensor::Tensor run_trial(unsigned worker, std::size_t input_idx,
                           const FaultSet& faults) const;

  // Trials one batched plan run can carry (1 = batching unavailable:
  // config.batch == 1 or the graph is not batchable).
  std::size_t batch() const { return batch_plan_ ? config_.batch : 1; }

  // Executes row_faults.size() (<= batch()) same-input trials as one
  // batched plan run — trial b rides batch row b — and returns each
  // trial's output.  Bit-identical to run_trial per trial: rows are
  // independent, golden-prefix partial re-execution included (the batched
  // golden is the single-image golden tiled across rows, and the
  // element-sparse change tracking keeps each row's recomputation exactly
  // what its single-image trial would do).
  std::vector<tensor::Tensor> run_trial_batch(
      unsigned worker, std::size_t input_idx,
      std::span<const FaultSet> row_faults) const;

  // --- run_trial's two halves ---------------------------------------------
  // run_trial(w, i, f) is run_weight_trial(w, i, patch_consts(f)); the
  // perfbench weight replay times the two apart.

  // make_injections(plan(), applied): resolves a fault set (for a weight
  // trial, the post-ECC one) against this executor's plan by node name;
  // unknown names and elements past a node are ignored (cross-graph
  // replay).  An ECC-corrected (empty) set yields no injections.
  std::vector<graph::Injection> patch_consts(const FaultSet& applied) const;

  // Runs input `input_idx` under `injections`, resuming from the cached
  // goldens (only the injected nodes' downstream cones recompute) or
  // re-running the full plan when partial re-execution is disabled —
  // bit-identical either way.  No injections return the golden output
  // outright (ECC corrected the fault before it touched memory).
  tensor::Tensor run_weight_trial(
      unsigned worker, std::size_t input_idx,
      std::span<const graph::Injection> injections) const;

  const tensor::Tensor& golden_output(std::size_t input_idx) const {
    return golden_[input_idx].output;
  }
  // Input `input_idx`'s golden activations (indexed by NodeId), and the
  // batched twin partial re-execution resumes from (empty unless batch()
  // > 1 with partial re-execution on).
  std::span<const tensor::Tensor> golden_activations(
      std::size_t input_idx) const {
    return golden_[input_idx].activations;
  }
  std::span<const tensor::Tensor> batch_golden(std::size_t input_idx) const {
    if (batch_golden_.empty()) return {};
    return batch_golden_[input_idx];
  }
  std::size_t inputs() const { return golden_.size(); }
  const graph::ExecutionPlan& plan() const { return plan_; }
  const CampaignConfig& config() const { return config_; }
  // Worker slots this executor was sized for (run_trial's `worker` must
  // stay below it) — callers sharing one executor across campaigns (the
  // suite) use it to cap their parallelism.
  unsigned workers() const { return static_cast<unsigned>(arenas_.size()); }

 private:
  struct GoldenState {
    tensor::Tensor output;
    std::vector<tensor::Tensor> activations;  // shared-storage snapshot
  };

  CampaignConfig config_;
  const std::vector<Feeds>* inputs_;
  graph::Executor exec_;
  graph::ExecutionPlan plan_;
  std::vector<GoldenState> golden_;
  mutable std::vector<graph::Arena> arenas_;
  // Batched execution state (null/empty when batch() == 1).
  std::unique_ptr<graph::ExecutionPlan> batch_plan_;
  std::vector<std::vector<tensor::Tensor>> batch_golden_;  // per input
  std::vector<Feeds> batch_feeds_;                         // per input
  mutable std::vector<graph::Arena> batch_arenas_;
};

}  // namespace rangerpp::fi
