#include "fi/campaign.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/passes.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::fi {

namespace {

// Compile options for a campaign plan under `batch` images per run.
// Observe::kInjectable: every injection site (and profiled ceiling) lives
// on an injectable node, so rewrites only ever touch the non-injectable
// output head — site replay and golden snapshots are unaffected, and the
// fused plan stays bit-identical to the pass-free Observe::kAll plan
// (passes_test's fusion gates check this).
graph::CompileOptions campaign_compile_options(const CampaignConfig& config,
                                               std::size_t batch) {
  graph::CompileOptions opts;
  opts.dtype = config.dtype;
  opts.backend = config.backend;
  opts.batch = batch;
  opts.int8_formats = config.int8_formats;
  opts.observe = graph::Observe::kInjectable;
  // Debug builds already verify; verify_plan forces it in release too.
  opts.verify = opts.verify || config.verify_plan;
  return opts;
}

}  // namespace

// ---- TrialPlanner -----------------------------------------------------------

TrialPlanner::TrialPlanner(const graph::Graph& g,
                           const CampaignConfig& config, std::size_t n_inputs,
                           StratifiedOptions stratified)
    : config_(config), n_inputs_(n_inputs), stratified_(stratified) {
  if (n_inputs_ == 0)
    throw std::invalid_argument("TrialPlanner: no inputs");
  // Validate here, on the caller's thread: plan() runs inside thread-pool
  // workers, where a throw would terminate the process.
  if (config_.n_bits < 1)
    throw std::invalid_argument("TrialPlanner: n_bits < 1");
  const bool weight = config_.fault_class == FaultClass::kWeight;
  if (weight && config_.weight_fault.n_bits < 1)
    throw std::invalid_argument("TrialPlanner: weight_fault.n_bits < 1");
  if (stratified_.enabled && weight)
    throw std::invalid_argument(
        "TrialPlanner: stratified sampling is not defined for weight-fault "
        "campaigns (records are still post-stratified per const tensor)");
  if (stratified_.enabled &&
      (config_.n_bits != 1 || config_.consecutive_bits))
    throw std::invalid_argument(
        "TrialPlanner: stratified sampling requires the single-bit fault "
        "model (n_bits == 1, consecutive_bits == false)");
  if (stratified_.bit_group_size < 1)
    throw std::invalid_argument("TrialPlanner: bit_group_size < 1");

  // Exactly one site population exists per campaign; both expose the same
  // (site × bit-group) strata shape, so the report layer is class-blind.
  if (weight)
    wsites_.emplace(g, config_.dtype);
  else
    sites_.emplace(g, config_.dtype);
  const int bits = weight ? wsites_->dtype_bits() : sites_->dtype_bits();
  const std::size_t n_sites =
      weight ? wsites_->injectable_tensors() : sites_->injectable_nodes();
  const auto site_name = [&](std::size_t i) -> const std::string& {
    return weight ? wsites_->site_name(i) : sites_->site_name(i);
  };
  const auto site_elements = [&](std::size_t i) {
    return weight ? wsites_->site_elements(i) : sites_->site_elements(i);
  };
  const double total = static_cast<double>(
      weight ? wsites_->total_elements() : sites_->total_elements());
  const int group = std::min(stratified_.bit_group_size, bits);
  bit_groups_ =
      static_cast<std::size_t>((bits + group - 1) / group);
  for (std::size_t i = 0; i < n_sites; ++i) {
    for (std::size_t b = 0; b < bit_groups_; ++b) {
      Stratum s;
      s.site = i;
      s.bit_lo = static_cast<int>(b) * group;
      s.bit_span = std::min(group, bits - s.bit_lo);
      s.key = site_name(i) + ":b" + std::to_string(s.bit_lo) + "-" +
              std::to_string(s.bit_lo + s.bit_span - 1);
      s.weight = (static_cast<double>(site_elements(i)) / total) *
                 (static_cast<double>(s.bit_span) / bits);
      strata_.push_back(std::move(s));
    }
  }
}

std::size_t TrialPlanner::stratum_of(const FaultSet& faults) const {
  // Classified by the first fault point (the only one under the default
  // single-bit model; a representative one under multi-bit).
  const FaultPoint& f = faults.front();
  const bool weight = config_.fault_class == FaultClass::kWeight;
  const std::size_t site = weight ? wsites_->site_index(f.node_name)
                                  : sites_->site_index(f.node_name);
  if (site == SIZE_MAX) return 0;
  const int bits = weight ? wsites_->dtype_bits() : sites_->dtype_bits();
  const int group = std::min(stratified_.bit_group_size, bits);
  return site * bit_groups_ + static_cast<std::size_t>(f.bit / group);
}

std::size_t TrialPlanner::stratum_for_index(std::size_t t) const {
  // Stratum assignment under stratified sampling.  Plain round-robin
  // (t % S) would alias with shard partitioning (t % N): a shard whose
  // count shares a factor with S would never sample entire strata.
  // Instead each block of S consecutive trials covers every stratum
  // exactly once through a per-block pseudorandom permutation — still a
  // pure, shard-agnostic function of t (so shards and the golden run
  // agree on every trial), still exactly equal allocation per full
  // block, but a shard's arithmetic progression of trial indices now
  // meets every stratum across blocks.
  const std::size_t S = strata_.size();
  const std::size_t block = t / S;
  const std::size_t offset = t % S;
  // plan() is called once per trial from thread-pool workers, and all S
  // trials of a block share one permutation — cache it per thread so the
  // shuffle is paid once per block, not once per trial.
  struct PermCache {
    std::uint64_t seed = 0;
    std::size_t block = SIZE_MAX;
    std::size_t size = 0;
    std::vector<std::uint32_t> perm;
  };
  static thread_local PermCache cache;
  if (cache.seed != config_.seed || cache.block != block ||
      cache.size != S) {
    cache.seed = config_.seed;
    cache.block = block;
    cache.size = S;
    cache.perm.resize(S);
    for (std::size_t i = 0; i < S; ++i)
      cache.perm[i] = static_cast<std::uint32_t>(i);
    util::Rng rng(
        util::derive_seed(config_.seed ^ 0x53545241544121ULL, block));
    for (std::size_t i = S - 1; i > 0; --i)
      std::swap(cache.perm[i], cache.perm[rng.uniform_index(i + 1)]);
  }
  return cache.perm[offset];
}

TrialSpec TrialPlanner::plan(std::size_t t) const {
  TrialSpec spec;
  spec.trial = t;
  if (config_.fault_class == FaultClass::kWeight) {
    // Input sweep: consecutive trials iterate every input under one
    // persistent fault.  The fault stream is keyed on the fault index
    // alone (not the trial index), so all n_inputs trials of fault f
    // corrupt memory identically and the executor patches the consts
    // once per fault.  The ECC coverage draws ride the same stream,
    // making the applied set a pure function of (seed, fault index).
    spec.input = t % n_inputs_;
    const std::size_t fault_idx = t / n_inputs_;
    util::Rng rng(util::derive_seed(
        config_.seed ^ 0x5745494748545321ULL, fault_idx));
    spec.faults = wsites_->sample(rng, config_.weight_fault);
    spec.applied = apply_ecc(spec.faults, config_.ecc, rng);
    spec.stratum = stratum_of(spec.faults);
    return spec;
  }
  spec.input = t / config_.trials_per_input;
  util::Rng rng(util::derive_seed(config_.seed, t));
  if (!stratified_.enabled) {
    spec.faults = config_.consecutive_bits
                      ? sites_->sample_consecutive(rng, config_.n_bits)
                      : sites_->sample(rng, config_.n_bits);
    spec.applied = spec.faults;
    spec.stratum = stratum_of(spec.faults);
    return spec;
  }
  // Stratified: the stratum is fixed by the trial index; the element and
  // bit are drawn uniformly *within* it from the trial's own stream.
  spec.stratum = stratum_for_index(t);
  const Stratum& s = strata_[spec.stratum];
  const std::size_t element =
      rng.uniform_index(sites_->site_elements(s.site));
  const int bit =
      s.bit_lo + static_cast<int>(rng.uniform_index(
                     static_cast<std::uint64_t>(s.bit_span)));
  spec.faults = {FaultPoint{sites_->site_name(s.site), element, bit}};
  spec.applied = spec.faults;
  return spec;
}

// ---- TrialExecutor ----------------------------------------------------------

TrialExecutor::TrialExecutor(const graph::Graph& g,
                             const CampaignConfig& config,
                             const std::vector<Feeds>& inputs,
                             unsigned workers)
    : config_(config),
      inputs_(&inputs),
      plan_(graph::compile(g, campaign_compile_options(config, 1))),
      arenas_(workers == 0 ? 1 : workers) {
  if (inputs.empty())
    throw std::invalid_argument("TrialExecutor: no inputs");
  // Goldens per input, computed once under the campaign datatype, across
  // inputs with one arena per worker.
  golden_.resize(inputs.size());
  std::vector<graph::Arena> golden_arenas(util::worker_count(inputs.size()));
  util::parallel_for_workers(inputs.size(), [&](unsigned w, std::size_t i) {
    graph::Arena& arena = golden_arenas[w];
    golden_[i].output = exec_.run(plan_, inputs[i], arena);
    golden_[i].activations = arena.outputs();  // tensors share storage
  });

  // Weight campaigns never batch: batch rows share the const tensors, so
  // two different persistent faults cannot ride one plan run.
  if (config_.fault_class == FaultClass::kActivation && config_.batch > 1 &&
      graph::plan_supports_batch(g)) {
    // Compiled with the same options (plus batch) as plan_: the rewrite
    // passes are deterministic and batch-independent, so node ids line up
    // between the two plans — which the tiled goldens below rely on.
    batch_plan_ = std::make_unique<graph::ExecutionPlan>(
        graph::compile(g, campaign_compile_options(config, config.batch)));
    // Only the state the configured mode will read is materialised:
    // partial re-execution resumes from tiled goldens, full re-execution
    // re-runs from tiled feeds.
    if (config_.partial_reexecution)
      batch_golden_.resize(inputs.size());
    else
      batch_feeds_.resize(inputs.size());
    util::parallel_for(inputs.size(), [&](std::size_t i) {
      if (config_.partial_reexecution) {
        // Batched goldens are the single-image goldens tiled across rows
        // (consts are shared, not per-row), so a batched partial run
        // resumes from exactly the state trial-per-trial execution would.
        std::vector<tensor::Tensor> tiled(plan_.size());
        for (const graph::Node& n : plan_.graph().nodes()) {
          const auto id = static_cast<std::size_t>(n.id);
          tiled[id] =
              batch_plan_->is_const(n.id)
                  ? batch_plan_->const_output(n.id)
                  : graph::tile_batch(golden_[i].activations[id],
                                      config_.batch,
                                      batch_plan_->shapes()[id]);
        }
        batch_golden_[i] = std::move(tiled);
      } else {
        Feeds packed;
        for (const graph::Node& n : plan_.graph().nodes()) {
          if (!plan_.is_input(n.id)) continue;
          const auto it = inputs[i].find(n.name);
          if (it == inputs[i].end())
            throw std::invalid_argument(
                "TrialExecutor: missing feed for input '" + n.name + "'");
          packed.emplace(
              n.name,
              graph::tile_batch(
                  it->second, config_.batch,
                  batch_plan_->shapes()[static_cast<std::size_t>(n.id)]));
        }
        batch_feeds_[i] = std::move(packed);
      }
    });
    batch_arenas_.resize(arenas_.size());
  }
}

tensor::Tensor TrialExecutor::run_trial(unsigned worker,
                                        std::size_t input_idx,
                                        const FaultSet& faults) const {
  graph::Arena& arena = arenas_[worker];
  return config_.partial_reexecution
             ? exec_.run_from(plan_, golden_[input_idx].activations,
                              make_injections(plan_, faults), arena)
             : exec_.run(plan_, (*inputs_)[input_idx], arena,
                         make_injection_hook(plan_, faults));
}

std::vector<tensor::Tensor> TrialExecutor::run_trial_batch(
    unsigned worker, std::size_t input_idx,
    std::span<const FaultSet> row_faults) const {
  if (!batch_plan_)
    throw std::logic_error("TrialExecutor: batching unavailable");
  if (row_faults.empty() || row_faults.size() > config_.batch)
    throw std::invalid_argument("TrialExecutor: bad batch size");
  graph::Arena& arena = batch_arenas_[worker];
  // Each row's injections land in its own row, so rows without a fault at
  // a shared root node stay golden there.
  const tensor::Tensor out =
      config_.partial_reexecution
          ? exec_.run_from(*batch_plan_, batch_golden_[input_idx],
                           make_injections(*batch_plan_, row_faults), arena)
          : exec_.run(*batch_plan_, batch_feeds_[input_idx], arena,
                      make_batched_injection_hook(*batch_plan_, row_faults));
  std::vector<tensor::Tensor> rows;
  rows.reserve(row_faults.size());
  const tensor::Shape& single = golden_[input_idx].output.shape();
  for (std::size_t b = 0; b < row_faults.size(); ++b)
    rows.push_back(graph::slice_batch(out, b, config_.batch, single));
  return rows;
}

TrialExecutor::PatchedConsts TrialExecutor::patch_consts(
    const FaultSet& applied) const {
  return {make_const_overrides(plan_, applied)};
}

tensor::Tensor TrialExecutor::run_weight_trial(
    unsigned worker, std::size_t input_idx,
    const PatchedConsts& patch) const {
  if (patch.overrides.empty())
    return golden_[input_idx].output;  // ECC corrected the sample
  graph::Arena& arena = arenas_[worker];
  return config_.partial_reexecution
             ? exec_.run_from(plan_, golden_[input_idx].activations, {},
                              arena, patch.overrides)
             : exec_.run(plan_, (*inputs_)[input_idx], arena,
                         patch.overrides);
}

}  // namespace rangerpp::fi
