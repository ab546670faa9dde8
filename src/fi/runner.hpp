// CampaignRunner: the one fault-injection trial loop.  It drives the
// planner/executor layers of campaign.hpp for every campaign in the
// tree — benches, examples, fi::Suite cells (suite_cli) and
// fi::Scheduler slices — and makes each one resumable and shardable:
//
//  * Deterministic sharding — shard i of N executes exactly the trials
//    with index ≡ i (mod N).  Because TrialPlanner::plan(t) and the
//    per-trial seed util::derive_seed(seed, t) depend only on the global
//    trial index, any shard subset reproduces bit-identically on any
//    machine, and the union of shards equals the single-process run
//    trial for trial.
//  * Checkpointing — every batch of executed trials is appended to an
//    RPRC checkpoint file (record_codec.hpp); a killed campaign resumes
//    by re-reading the file and executing only the missing trials (the
//    resumed run's records are bit-identical to an uninterrupted one).
//  * Stratified sampling — optional (layer, bit-group) strata with
//    per-stratum Wilson intervals and a weighted unbiased aggregate
//    (report.hpp).
//  * Early stopping — optionally stop once the aggregate Wilson-95
//    half-width of the first judge drops below a target, checked at
//    deterministic batch boundaries.
//
// Determinism contract: the records a run produces depend only on
// (campaign fingerprint, shard spec, executed trial set).  Worker thread
// count, kernel backend and trial batch size (CampaignConfig::threads /
// backend / batch) are pure performance knobs — trials are planned from
// the global index and executed bit-identically under every combination —
// so none of them enter the checkpoint fingerprint, and a checkpoint
// written under one combination resumes cleanly under another.
//
// Thread-safety: CampaignRunner is stateless after construction; run()
// may be called concurrently on the same runner only with distinct
// checkpoint paths (the checkpoint file has a single writer).  Internally
// run() parallelises trial groups over util::parallel_for workers, each
// owning a private Arena (see graph/plan.hpp for the arena contract).
#pragma once

#include <string>

#include "fi/campaign.hpp"
#include "fi/report.hpp"

namespace rangerpp::fi {

struct RunnerConfig {
  CampaignConfig campaign;
  StratifiedOptions stratified;

  // This process executes trials t with t % shard_count == shard_index.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  // RPRC checkpoint path; empty = in-memory only.  An existing file is
  // resumed (its header must match this config, else the run throws).
  std::string checkpoint_path;

  // Early stop: finish once the aggregate Wilson-95 half-width of judge 0
  // falls below this many percent.  0 = run every planned trial.
  double target_half_width_pct = 0.0;
  // Trials per batch between checkpoint flushes / early-stop checks.
  std::size_t check_every = 256;

  // Cap on trials newly executed by this invocation (0 = unlimited) —
  // lets a scheduler run a campaign in bounded slices, and lets tests
  // simulate a killed job at an exact point.
  std::size_t max_new_trials = 0;

  // Recorded in the checkpoint header (model name etc.); informational.
  std::string label;
};

// Everything one run() invocation needs beyond the runner config.  The
// default (only plan_graph set) is the classic single-graph campaign;
// the optional fields serve paired replays and the engine cache
// (fi::Engine), which shares compiled state across many cells:
//
//  * exec_graph — trials execute here while fault sites are planned on
//    plan_graph.  Node names shared by both graphs resolve the planned
//    faults onto the executed graph (the Ranger transform preserves
//    names), which is how Table-VI-style paired coverage replays the
//    unprotected fault stream on the protected twin.  Note the
//    checkpoint fingerprint derives from the *planning* graph, so a
//    paired cell and its unprotected sibling share a fingerprint — keep
//    their checkpoint paths distinct.
//  * executor — a pre-built TrialExecutor for exec_graph, reused across
//    campaigns (plans + goldens compiled once per (graph, dtype)).  Its
//    dtype must match the campaign's; its worker capacity caps the
//    runner's parallelism.
//  * golden_executor — an executor over the same inputs whose golden
//    outputs trials are judged against instead of the executed graph's
//    own (paired coverage judges the protected output against the
//    unprotected executor's goldens).
struct RunContext {
  const graph::Graph* plan_graph = nullptr;
  const graph::Graph* exec_graph = nullptr;    // null = plan_graph
  const TrialExecutor* executor = nullptr;     // null = build internally
  const TrialExecutor* golden_executor = nullptr;  // null = the executor
  // First arena slot of the shared executor this run may use: local
  // worker w executes as executor worker (worker_base + w).  The
  // scheduler runs many single-threaded runner invocations concurrently
  // against one shared executor, each pinned to a private arena by its
  // base; requires `executor` (a locally built one is already private)
  // and caps this run's parallelism to the slots above the base.
  unsigned worker_base = 0;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(RunnerConfig config);

  // Runs (or resumes) this shard of the campaign and returns the report
  // over every record available — loaded plus newly executed.  The
  // report's `planned` counts this shard's trials only; use
  // merge_checkpoints to combine shards into the full-campaign report.
  CampaignReport run(const graph::Graph& g, const std::vector<Feeds>& inputs,
                     const std::vector<JudgePtr>& judges) const;

  // As above, with the planning/execution split and shared compiled
  // state of `ctx` (see RunContext).  ctx.plan_graph is required.
  CampaignReport run(const RunContext& ctx, const std::vector<Feeds>& inputs,
                     const std::vector<JudgePtr>& judges) const;

  // The header `run` writes for this configuration (exposed for tests
  // and for tools that pre-validate checkpoints).
  CheckpointHeader make_header(std::size_t n_inputs,
                               std::size_t judge_count) const;

  const RunnerConfig& config() const { return config_; }

 private:
  RunnerConfig config_;
};

}  // namespace rangerpp::fi
