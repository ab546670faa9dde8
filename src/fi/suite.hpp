// fi::Suite — the zoo-wide campaign orchestrator.  The paper's results
// are a *grid* — eight DNNs × {fixed32, fixed16} × {single-bit,
// multi-bit, burst} × {unprotected, Ranger} × activation variants — and
// this layer runs that grid as one declarative work plan instead of a
// dozen disconnected bench binaries:
//
//  * SuiteSpec describes the grid; compile_suite() expands it into an
//    ordered list of cells, each with a suite-global trial offset, so
//    the whole suite is one deterministic trial stream.
//  * Expensive state is built once and shared through fi::Engine
//    (engine.hpp, the same cache the scheduler daemon serves from):
//    models::Workload construction (training / weight loading), derived
//    restriction bounds, Ranger-protected graphs, and compiled
//    TrialExecutors (ExecutionPlans + goldens) are cached per (model,
//    act[, dtype]) and reused by every fault-model/technique cell.
//  * Each cell executes on the existing CampaignRunner, so per-cell
//    JSONL checkpoints, deterministic sharding, stratified sampling and
//    Wilson-CI early stopping compose for free.  Suite-level `--shard i/N` partitions
//    the *global* cell×trial stream: a cell at global offset O maps the
//    suite shard onto the runner-local shard ((i - O) mod N), so the
//    union of suite shards is bit-identical to the unsharded suite,
//    trial for trial, cell for cell.
//  * The `ranger-paired` technique plans fault sites on the unprotected
//    graph and executes them on the protected twin, judged against the
//    unprotected goldens — exactly the Table-VI coverage setup — so
//    coverage becomes a pure join over two cells' per-trial records.
//  * write_suite_manifest() emits one aggregated SUITE_<name>.json
//    (with host metadata), derived only from per-trial records and the
//    spec, so a merged-shards manifest is byte-identical to an
//    unsharded run's — the CI gate.
//  * The report layer regenerates the Fig 6/7/9/11/12 and Table 6
//    numbers from a suite result, bit-identical to the standalone
//    benches at equal seeds/trials (tests/suite_test.cpp asserts this).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bounds.hpp"
#include "fi/runner.hpp"
#include "models/workload.hpp"

namespace rangerpp::fi {

// How a cell runs its campaign:
//  * kUnprotected  — plan and execute on the model's plain graph;
//  * kRanger       — plan and execute on the Ranger-protected graph
//    (the Fig 6/7/9/11/12 configuration: the paper also injects into
//    the restriction ops);
//  * kRangerPaired — plan on the unprotected graph, execute on the
//    protected graph, judge against the unprotected goldens (the
//    Table VI coverage configuration; pairs record-for-record with the
//    kUnprotected cell of the same scalars).
enum class Technique { kUnprotected, kRanger, kRangerPaired };

std::string_view technique_token(Technique t);
std::optional<Technique> technique_from_token(std::string_view s);

// Activation-variant tokens for cell ids / CLIs: "default" (the model's
// published activation, the WorkloadOptions kInput sentinel), "relu",
// "tanh", "sigmoid", "elu".
std::string_view act_token(ops::OpKind act);
std::optional<ops::OpKind> act_from_token(std::string_view s);

// Bare datatype tokens ("fixed32", not tensor::dtype_name's
// "fixed32(Q21.10)") — the one grammar cell ids, manifests and both
// CLIs share.
std::string_view dtype_token(tensor::DType d);
std::optional<tensor::DType> dtype_from_token(std::string_view s);

struct FaultModelSpec {
  int n_bits = 1;
  bool consecutive = false;  // burst: adjacent bits within one value
  // Weight-memory fault axis: cls == kWeight draws faults from Const
  // (weight/bias) tensors under `wkind` (n_bits doubles as the kind's
  // count parameter), optionally filtered through `ecc`, and runs the
  // persistent-fault input sweep (one patched plan per fault reused
  // across every input).  cls == kActivation ignores wkind/ecc.
  FaultClass cls = FaultClass::kActivation;
  WeightFaultKind wkind = WeightFaultKind::kSingleBit;
  EccModel ecc;
};

// Cell-id token of a fault spec: "b1"/"b3c" for activation cells
// (unchanged from the pre-weight grammar), "w<kind>[<n>][-<ecc>]" for
// weight cells (e.g. "wsingle", "wmulti3-secded", "wrow4-cov0.5").
std::string fault_spec_token(const FaultModelSpec& f);

// Inverse of fault_spec_token (the scheduler wire format and CLIs parse
// fault axes with it); round-trips every token the printer emits.
std::optional<FaultModelSpec> fault_spec_from_token(std::string_view s);

struct SuiteSpec {
  std::string name = "suite";
  std::vector<models::ModelId> models;
  // ops::OpKind::kInput is the "published activation" sentinel (the
  // WorkloadOptions convention); additional entries add substituted
  // variants (e.g. kTanh for the Hong-et-al. comparison).
  std::vector<ops::OpKind> acts = {ops::OpKind::kInput};
  std::vector<tensor::DType> dtypes = {tensor::DType::kFixed32};
  std::vector<FaultModelSpec> faults = {{}};
  std::vector<Technique> techniques = {Technique::kUnprotected,
                                       Technique::kRanger};

  // Per-cell trial count = scaled_trials(model, trials_small) /
  // trials_divisor (Table VI runs at half trials, like the bench).
  std::size_t trials_small = 1000;
  std::size_t trials_divisor = 1;
  std::size_t inputs = 8;
  std::uint64_t seed = 2021;

  unsigned threads = 0;           // 0 = hardware concurrency
  std::size_t check_every = 256;  // checkpoint-flush / early-stop batch
  std::size_t max_new_trials = 0; // per cell; 0 = unlimited (tests use
                                  // this to simulate a killed suite)
  // Per-cell Wilson-CI early stop (CampaignRunner's
  // target_half_width_pct); 0 = run every planned trial.  An
  // early-stopped cell records a deterministic prefix of its trial
  // stream, so resume/merge still compose — but its executed count no
  // longer equals planned, so don't combine early stopping with the
  // merged-vs-unsharded manifest byte-identity gate.
  double target_half_width_pct = 0.0;

  // Stratified (layer, bit-group) sampling for every cell
  // (CampaignRunner's RunnerConfig::stratified).  Defined only for
  // single-bit activation faults, so compile_suite refuses it with
  // weight, multi-bit or burst cells.  bit_group_size also shapes the
  // post-stratification of uniform runs.
  StratifiedOptions stratified;

  // Suite-level shard of the global cell×trial stream.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  // Directory for per-cell JSONL checkpoints (created on demand); empty
  // = in-memory only.  Files are named by cell_checkpoint_name.
  std::string checkpoint_dir;

  // Run the static plan verifier (graph/verify.hpp) on every cell's
  // compiled plans, even in release builds (CampaignConfig::verify_plan).
  // A local execution knob, not part of the request: it is excluded from
  // the spec wire format — the scheduler daemon's equivalent is the
  // serve-side SchedulerConfig::verify_plans.
  bool verify_plan = false;
};

struct SuiteCell {
  models::ModelId model{};
  ops::OpKind act = ops::OpKind::kInput;
  tensor::DType dtype = tensor::DType::kFixed32;
  FaultModelSpec fault;
  Technique technique = Technique::kUnprotected;

  std::size_t trials_per_input = 0;
  std::size_t total_trials = 0;   // trials_per_input × inputs
  std::size_t global_offset = 0;  // first suite-global trial index
  // Offset used for shard phasing.  Normally global_offset; a
  // kRangerPaired cell reuses its kUnprotected sibling's offset so both
  // cells execute the *same* shard-local trial set — otherwise the
  // paired-coverage record join would intersect nothing whenever the
  // cell size is not a multiple of the shard count.  Any fixed phase
  // still partitions the cell's trials across shards, so the
  // union-of-shards == unsharded contract is unchanged.
  std::size_t shard_offset = 0;
  std::string id;     // "lenet.fixed32.b1.ranger" (+ "+tanh", "c", …)
  std::string label;  // human-readable ("LeNet+ranger")
};

struct SuitePlan {
  SuiteSpec spec;
  std::vector<SuiteCell> cells;
  std::size_t total_trials = 0;
};

// Pure function of the spec: cell order, ids and global offsets are what
// every shard and every resume agree on.  Throws std::invalid_argument
// on an unsatisfiable spec (no models, bad shard, stratum-less grid…).
SuitePlan compile_suite(const SuiteSpec& spec);

// The file name of `cell`'s checkpoint for shard i of N:
// "<suite>.<cell-id>.s<i>of<N>.jsonl".  Suite runs, merges, scheduler
// exports (s0of1) and the scheduler's binary partition checkpoints
// (ext ".rcp") all name their files through this one function.
std::string cell_checkpoint_name(const std::string& suite,
                                 const SuiteCell& cell,
                                 std::size_t shard_index,
                                 std::size_t shard_count,
                                 const char* ext = ".jsonl");

// The runner-local shard index a suite shard maps to for a cell at
// `global_offset` (suite trial g = offset + t executes when
// g % N == shard_index).
std::size_t cell_shard_index(std::size_t suite_shard_index,
                             std::size_t shard_count,
                             std::size_t global_offset);

// The RunnerConfig Suite::run() executes `cell` under (campaign
// scalars, shard mapping, batching, label — everything except the
// checkpoint path, which depends on the caller's directory layout).
// Exposed so the scheduler daemon compiles cells to the exact same
// configs: the byte-identity contract between a scheduled request and a
// one-shot suite run holds because both paths call this one function.
RunnerConfig cell_runner_config(const SuiteSpec& spec,
                                const SuiteCell& cell);

struct SuiteCellResult {
  SuiteCell cell;
  CampaignReport report;
};

struct SuiteResult {
  SuitePlan plan;
  std::vector<SuiteCellResult> cells;  // in plan order
};

class Engine;  // engine.hpp

class Suite {
 public:
  // `shared_workloads` (optional) lets several suites — or a suite and a
  // bench evaluating extra techniques — share one workload cache; it
  // must outlive the Suite.  Its options' eval_inputs/seed must match
  // the spec's (an internally owned cache is built from the spec).
  explicit Suite(SuiteSpec spec,
                 models::WorkloadCache* shared_workloads = nullptr);
  ~Suite();

  const SuitePlan& plan() const { return plan_; }

  // Runs (or resumes) this shard of every cell, reusing cached state
  // across cells, and returns the per-cell reports in plan order.
  SuiteResult run();

  // Loads and merges the per-cell shard checkpoints found in `dirs`
  // (files written by run() under any shard spec) into full-campaign
  // reports — no trials execute.  Throws if a cell has no checkpoint or
  // its files were written under another configuration.  With a
  // checkpoint_dir in the spec, each cell's merged records are also
  // written there as its unsharded (s0of1) checkpoint: the file an
  // unsharded run writes, byte for byte, once every shard is merged.
  SuiteResult merge(const std::vector<std::string>& dirs) const;

  models::WorkloadCache& workloads();
  // Cached Ranger state, shared across every cell of (model, act).
  const core::Bounds& bounds(models::ModelId id, ops::OpKind act);
  const graph::Graph& protected_graph(models::ModelId id, ops::OpKind act);

 private:
  SuitePlan plan_;
  std::unique_ptr<Engine> engine_;
};

// ---- Manifest ---------------------------------------------------------------

// Writes the aggregated SUITE manifest: spec dimensions, host metadata
// (hardware_concurrency, kernel backend, seed, trial counts — so
// artifacts are comparable across machines), per-cell counts with
// Wilson intervals, and the paired-coverage join.  Derived only from
// (spec, per-trial records), so merged shards and an unsharded run
// produce byte-identical manifests on the same host.
void write_suite_manifest(const std::string& path, const SuiteResult& r);

// ---- Report layer -----------------------------------------------------------

// Wilson centre ± half-width in percent, the format every figure
// quotes: the normal approximation collapses to ±0 at the 0-SDC rates
// Ranger drives campaigns toward, and quoting the raw proportion
// against the Wilson half-width would misstate the interval (it is
// centred on the adjusted estimate).
std::string pct_pm(const CampaignResult& r);

// Table-VI coverage from the record join of a kRangerPaired cell and its
// kUnprotected sibling: of the trials whose unprotected run is an SDC
// (any judge), the fraction the protected run rectifies.  nullopt when
// the sibling cell is absent from the result.
struct PairedCoverage {
  std::size_t sdcs = 0;     // unprotected-SDC trials (the denominator)
  std::size_t covered = 0;  // …whose protected run is SDC-free
  double pct() const {
    return sdcs == 0 ? 0.0
                     : 100.0 * static_cast<double>(covered) /
                           static_cast<double>(sdcs);
  }
};
std::optional<PairedCoverage> paired_coverage(const SuiteResult& r,
                                              std::size_t paired_cell_index);

// Regenerate the paper-figure tables from a suite result (each prints
// the cells it finds; a grid without the needed dimensions prints a
// note instead).  `mode` ∈ {cells, fig6, fig7, fig9, int8, fig11,
// fig12, table6, all, strata}; "all" is the cell table plus every
// figure, "strata" each cell's print_report (raw and weighted
// aggregate, per-stratum table).  `suite` (optional) supplies graphs
// for the Table-VI FLOPs-overhead column.
void print_suite_report(const SuiteResult& r, const std::string& mode,
                        Suite* suite = nullptr);

void print_fig6(const SuiteResult& r);
void print_fig7(const SuiteResult& r);
void print_fig9(const SuiteResult& r);
// Fig-9-shaped table over the int8 cells: does Ranger still contain
// single-bit faults at calibrated 8-bit precision?  (`mode` token:
// "int8".)
void print_fig9_int8(const SuiteResult& r);
void print_fig11(const SuiteResult& r);
void print_fig12(const SuiteResult& r);
void print_table6_coverage(const SuiteResult& r, Suite* suite = nullptr);

}  // namespace rangerpp::fi
