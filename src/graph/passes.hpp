// The pass-based plan compiler: graph::compile() — the single public entry
// point that turns a Graph into an ExecutionPlan.
//
// Compilation is a pipeline of named, ordered passes over a mutable op
// model (OpModel), in the spirit of production DNN compilers' pass
// managers, followed by the lowering stages that were historically one
// monolithic ExecutionPlan constructor:
//
//   rewrite passes (PassManager; the rewrites are observability-gated)
//     1. validate        — int8_formats keys must name graph nodes
//                          (silent mismatch used to hide calibration
//                          bugs); emits warnings, never mutates;
//     2. const_fold      — fold op nodes whose inputs are all Const
//                          (skipped under int8, where Const schemes
//                          self-calibrate from their values);
//     3. dce             — erase nodes that neither reach the output nor
//                          are observable (see Observe below);
//     4. fuse            — collapse producer->consumer chains
//                          (Conv2D/MatMul/BiasAdd/BatchNorm + elementwise
//                          activations/Clamp/BiasAdd) into FusedOp nodes
//                          with per-stage QSchemes baked in, replacing
//                          hand-fused kernel special cases with a rewrite
//                          rule;
//     …plus CompileOptions::extra_passes.
//   Range restriction is not a pass: protect a graph with
//   core::RangerTransform::apply and compile the result.
//   lowering stages (traced like passes)
//     infer_shapes, assign_schemes, select_kernels, reachability,
//     memory_plan (graph/memory_plan.hpp — arena-slot aliasing and
//     peak_arena_bytes).
//
// Determinism contract: every rewrite is exact.  Constant folding
// quantises through the same codec path the executor would have used,
// fusion replays the per-stage quantisation sweeps (ops/fused_op.hpp),
// and DCE only removes values nobody could read.  Compiled output is
// bit-identical to the pass-free scalar reference under the scalar and
// blocked backends, tolerance-judged (fi/equivalence) under simd —
// verified by the passes/zoo test gates.
//
// Observability (Observe) is what makes rewrites safe under fault
// injection: a node where a hook may fire or be replayed (an injection
// site, a profiled activation) must survive compilation untouched.
// Rewrites only ever remove or absorb NON-observable nodes:
//
//  * kAll        — every op node is observable; no rewrite touches an
//                  op node, so the plan's nodes are the graph's.  Every
//                  hook-driven client (RangeProfiler, baselines, one-shot
//                  runs that read arena.outputs()) compiles at this level.
//  * kInjectable — nodes with Node::injectable are observable.  The
//                  default: fault-injection campaigns plan sites by name
//                  on injectable nodes, so those survive; the
//                  non-injectable output head (paper §V-B) may fold/fuse.
//  * kNone       — nothing is observable; full optimisation.  For pure
//                  inference (accuracy sweeps, throughput benches) where
//                  only the graph output is read.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/memory_plan.hpp"
#include "graph/plan.hpp"
#include "ops/backend.hpp"
#include "tensor/dtype.hpp"

namespace rangerpp::graph {

enum class Observe { kAll, kInjectable, kNone };

// --- Mutable op model --------------------------------------------------------

// The IR rewrite passes run on: a Graph unpacked into mutable nodes with
// tombstone erasure.  Ids stay stable while passes run (inputs reference
// positions in `nodes`); to_graph() compacts tombstones away and restores
// the append-only Graph invariants.
struct OpModel {
  struct MNode {
    std::string name;
    ops::OpPtr op;
    std::vector<NodeId> inputs;
    bool injectable = false;
    bool erased = false;
  };

  std::vector<MNode> nodes;
  NodeId output = kInvalidNode;

  static OpModel from_graph(const Graph& g);
  // Throws std::logic_error if a live node (or the output) references an
  // erased one — a pass bug.
  Graph to_graph() const;

  std::size_t live_count() const;
  // Number of live nodes consuming `id` (each consumer counted once per
  // edge).
  std::size_t use_count(NodeId id) const;
};

// Whether hooks may fire at (or be replayed against) this node under the
// given observability level.  Input/Const nodes are never observable —
// the executor's hook only fires on op nodes.
bool observable(const OpModel::MNode& n, Observe level);

// --- Passes ------------------------------------------------------------------

struct CompileOptions;
struct CompileReport;

struct PassContext {
  const CompileOptions* options = nullptr;
  CompileReport* report = nullptr;
  // Appends to the report's warnings (printed to stderr by compile()).
  void warn(std::string message) const;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  virtual void run(OpModel& m, PassContext& ctx) const = 0;
};

using PassPtr = std::shared_ptr<const Pass>;

// Built-in rewrite passes (exposed for tests and custom pipelines).
PassPtr validate_pass();
PassPtr const_fold_pass();
PassPtr dce_pass();
PassPtr fusion_pass();

// --- Options and report ------------------------------------------------------

struct CompileOptions {
  tensor::DType dtype = tensor::DType::kFixed32;
  ops::KernelBackend backend = ops::default_backend();
  std::size_t batch = 1;
  // Per-node int8 calibration (node name -> format), normally built by
  // core::int8_calibration from RangeProfiler bounds.  Only consulted when
  // dtype is kInt8; nodes not in the map inherit their first input's
  // scheme (Const nodes self-calibrate from their own values, and
  // sourceless nodes fall back to the canonical Q4.3 format).  compile()
  // warns about keys that match no node (validate pass).
  std::unordered_map<std::string, tensor::FixedPointFormat> int8_formats;

  // Which nodes rewrites must leave untouched (see Observe above).
  Observe observe = Observe::kInjectable;
  // kArena drops each activation after its last consumer and aliases
  // arena slots (memory_plan.hpp); kRetainAll keeps the golden-snapshot
  // behaviour campaigns need.
  MemoryMode memory = MemoryMode::kRetainAll;

  // Run the static plan verifier (graph/verify.hpp) as the terminal
  // compilation stage and throw std::logic_error on any violated
  // invariant — shapes, schemes, schedule, reachability exactness,
  // arena aliasing, observability.  On by default in debug builds
  // (assert-like cost: one extra pass over a compiled plan); release
  // clients opt in per plan (--verify-plan in the CLIs,
  // CampaignConfig::verify_plan, SchedulerConfig::verify_plans).
#ifdef NDEBUG
  bool verify = false;
#else
  bool verify = true;
#endif

  // Appended after the built-in rewrites, before lowering.
  std::vector<PassPtr> extra_passes;
};

struct PassTrace {
  std::string name;
  double ms = 0.0;
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
};

// What one observable node (or a Const feeding an injectable node — a
// weight-fault target) must still look like after every rewrite ran:
// present under the same name, with its injectable flag and Const
// element count intact.  compile() snapshots these from the *input*
// graph, before the pass pipeline, so the verifier's observability
// check is against ground truth the rewrites never saw.
struct ObservableFact {
  std::string name;
  bool injectable = false;  // op node a hook may fire at / replay against
  bool is_const = false;    // Const feeding an injectable consumer
  std::size_t const_elements = 0;  // single-image identity for Consts
};

struct CompileReport {
  std::vector<PassTrace> passes;
  std::vector<std::string> warnings;
  // Pre-rewrite observability snapshot (see ObservableFact); what
  // graph/verify.cpp proves the compiled graph still honours.
  std::vector<ObservableFact> observables;
  // From the memory-planning pass (regardless of MemoryMode, so benches
  // can report the reduction without compiling twice).
  std::size_t peak_arena_bytes = 0;
  std::size_t unplanned_bytes = 0;
  double total_ms = 0.0;
  // Multi-line human-readable table (--dump-passes output).
  std::string to_string() const;
};

// --- Pass manager ------------------------------------------------------------

class PassManager {
 public:
  PassManager() = default;
  // The standard rewrite pipeline: validate, const_fold, dce, fuse, then
  // options.extra_passes.
  static PassManager standard(const CompileOptions& options);

  void add(PassPtr pass);
  const std::vector<PassPtr>& passes() const { return passes_; }

  // Runs every pass over `g`'s op model, appending one PassTrace per pass
  // to `report`, and returns the rewritten graph.
  Graph run(Graph g, const CompileOptions& options,
            CompileReport& report) const;

 private:
  std::vector<PassPtr> passes_;
};

// Per-node output quantisation schemes for a (possibly fused) graph:
// canonical for every dtype except int8, where Consts self-calibrate,
// named nodes take their calibrated format, everything else inherits its
// first input's scheme — and FusedOp nodes report their baked last-stage
// scheme.  The single source of truth shared by the fusion pass (baking
// stage schemes) and plan lowering.
std::vector<tensor::QScheme> assign_schemes(
    const Graph& g, tensor::DType dtype,
    const std::unordered_map<std::string, tensor::FixedPointFormat>&
        int8_formats);

// The public compiler entry point.  Runs the pass pipeline and lowers the
// result into an immutable ExecutionPlan; plan.report() exposes the
// per-pass trace.  Warnings are also printed to stderr.
ExecutionPlan compile(Graph g, const CompileOptions& options = {});

}  // namespace rangerpp::graph
