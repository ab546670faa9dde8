// ExecutionPlan: a graph compiled once per (graph, datatype, options) into
// the form the executor actually runs.  Compilation precomputes everything
// a fault-injection campaign would otherwise redo on every single trial:
//
//  * the topological schedule and per-node input lists (append order is
//    already topological; the plan validates and freezes it);
//  * every node's output shape (inferred once — under the plan's batch
//    size when batching is enabled, see below);
//  * per-node *downstream reachability* bitsets — for node k, the set of
//    nodes whose value can change when k's output changes.  This is what
//    makes golden-prefix partial re-execution possible: a trial that
//    injects into node k only needs to recompute k's downstream cone and
//    can reuse the cached fault-free ("golden") activations for the rest;
//  * pre-quantized Const tensors: weights are constant across trials, so
//    encoding them through the fixed-point codec per trial is pure waste;
//  * input-feed quantisation caching (in the Arena): a campaign re-runs the
//    same input thousands of times, so the quantised feed is cached keyed
//    by the feed's storage identity;
//  * the compiled kernel per node: CompileOptions::backend picks the kernel
//    backend (see ops/backend.hpp) at compile time — under the blocked
//    backend hot ops run blocked, multi-threaded, quantisation-fused
//    kernels that are bit-identical to the scalar reference.
//
// Plans are built only by graph::compile() (graph/passes.hpp), which runs
// the rewrite passes and then the lowering stages below.
//
// Batched plans: CompileOptions::batch = N compiles the same graph for N
// images per run — every Input shape's leading dimension becomes N and all
// downstream shapes follow (Flatten keeps the batch axis: [N, h, w, c] ->
// [N, h*w*c]).  Because every supported operator treats batch rows
// independently and computes each element in a batch-independent order,
// row b of a batched run is bit-identical to a single-image run of that
// image — the property batched fault-injection trials and the
// batched-golden amortisation in fi/campaign rely on.  Graphs containing
// Reshape (whose target shape is written for one image) refuse to compile
// with batch > 1.
//
// The plan owns its own copy of the graph, so it stays valid independently
// of the graph object it was compiled from.  Under Observe::kAll node ids,
// names and shapes are identical to the source graph's; under the default
// Observe::kInjectable every injectable node keeps its name, which is what
// lets fault sites planned on one graph replay against its plan.
//
// Thread-safety / determinism contract:
//  * An ExecutionPlan is immutable after construction and safe to share
//    across any number of threads without synchronisation.
//  * An Arena is the mutable per-thread counterpart: the activation
//    buffers and caches one executing thread reuses across trials.  Each
//    worker thread must own its own Arena; an Arena must never be used
//    from two threads at once and must not outlive the plan it is bound
//    to.
//  * Executing the same plan with the same feeds (and the same injection
//    hook) yields bit-identical outputs on every run, regardless of
//    backend, batch size, thread count or which arena is used — the
//    backends are bit-identical by construction and kernels assign
//    disjoint output blocks to threads in a fixed reduction order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/incremental.hpp"
#include "graph/memory_plan.hpp"
#include "ops/backend.hpp"
#include "tensor/dtype.hpp"

namespace rangerpp::graph {

// The plan compiler (graph/passes.hpp): the only way to build a plan.
struct CompileOptions;
struct CompileReport;
class ExecutionPlan;
ExecutionPlan compile(Graph g, const CompileOptions& options);

// True when `g` can be compiled with batch > 1: every Input is rank-2/4
// with a leading dimension of 1, and no node is a Reshape.
bool plan_supports_batch(const Graph& g);

// Per-node output shapes under `batch` — exactly the shape-inference the
// plan lowering runs (Graph::infer_shapes for batch 1; otherwise Input
// leading dimensions widen to `batch`, Flatten keeps the batch axis,
// Reshape refuses).  Shared with graph/verify.cpp so the verifier's
// recomputation can never drift from the compiler's.
std::vector<tensor::Shape> infer_plan_shapes(const Graph& g,
                                             std::size_t batch);

class ExecutionPlan {
 public:
  const Graph& graph() const { return graph_; }
  tensor::DType dtype() const { return dtype_; }

  // The quantisation scheme of a node's output: the canonical scheme of
  // the plan dtype for every dtype except int8, where it is the node's
  // calibrated per-tensor format.  Everything that quantises or corrupts
  // a node's value (executor sweeps, injection hooks, weight-fault const
  // patching) must use this, not the bare dtype.
  const tensor::QScheme& qscheme(NodeId id) const;

  ops::KernelBackend backend() const { return backend_; }
  std::size_t batch() const { return batch_; }
  std::size_t size() const { return graph_.size(); }

  // The per-node int8 calibration the plan was compiled with (empty for
  // non-int8 plans); graph/verify.cpp recomputes scheme assignment from
  // it when proving scheme consistency.
  const std::unordered_map<std::string, tensor::FixedPointFormat>&
  int8_formats() const {
    return int8_formats_;
  }

  // Output shape of every node (indexed by NodeId), under the plan's
  // batch size.
  const std::vector<tensor::Shape>& shapes() const { return shapes_; }

  // Elements of one image's slice of a non-Const node's output (equal to
  // shapes()[id].elements() when batch() == 1).  Const outputs are shared
  // across the batch and are not sliced.
  std::size_t per_image_elements(NodeId id) const;

  // The compiled kernel of a node; fn == nullptr means "run the op's own
  // compute and quantise afterwards" (see ops/backend.hpp).
  const ops::CompiledKernel& kernel(NodeId id) const;

  // True when a change to `from`'s output can affect `to`'s output
  // (reflexive: reaches(k, k) is always true).
  bool reaches(NodeId from, NodeId to) const;

  // All nodes reachable from `from` (including `from`), ascending id order
  // — which is topological order, so this is exactly the re-execution
  // schedule for a fault injected at `from`.
  std::vector<NodeId> downstream(NodeId from) const;

  // Number of nodes reachable from `from` (including itself): the cost, in
  // nodes, of a trial injected there.
  std::size_t downstream_count(NodeId from) const;

  // The pre-quantized output of a Const node (throws for non-Const ids).
  const tensor::Tensor& const_output(NodeId id) const;

  bool is_input(NodeId id) const;
  bool is_const(NodeId id) const;

  // Writes the union of the downstream cones of `roots` into `dirty`
  // (resized to size(), true = must be recomputed).  Returns the number of
  // dirty nodes.  Invalid ids throw std::out_of_range.
  std::size_t mark_dirty(std::span<const NodeId> roots,
                         std::vector<bool>& dirty) const;

  // Process-unique compilation id; arenas use it to detect rebinding even
  // when a new plan is allocated at a recycled address.
  std::uint64_t serial() const { return serial_; }

  // How the executor manages activation lifetimes for this plan.  kArena
  // plans drop each activation after its last consumer (memory_plan())
  // and refuse partial re-execution; only CompileOptions::memory produces
  // them.
  MemoryMode memory_mode() const { return memory_mode_; }
  // The lifetime schedule backing kArena mode; empty release_after for
  // retain-all plans.
  const MemoryPlan& memory_plan() const { return memory_plan_; }

  // The compile report (per-pass trace, warnings, arena sizing) of the
  // compilation that produced this plan.  Never null.
  const std::shared_ptr<const CompileReport>& report() const {
    return report_;
  }

 private:
  friend ExecutionPlan compile(Graph g, const CompileOptions& options);

  // Lowers an already-rewritten graph under `options`' dtype, backend,
  // batch and int8 formats.
  ExecutionPlan(Graph g, const CompileOptions& options,
                CompileReport* report);
  // The lowering stages (shape inference, scheme assignment, kernel
  // selection, reachability), traced into `report` when non-null.
  void lower(CompileReport* report);

  std::span<const std::uint64_t> row(NodeId id) const;
  void check_id(NodeId id) const;

  Graph graph_;
  tensor::DType dtype_;
  ops::KernelBackend backend_;
  std::size_t batch_;
  std::unordered_map<std::string, tensor::FixedPointFormat> int8_formats_;
  std::uint64_t serial_ = 0;
  std::vector<tensor::Shape> shapes_;
  // Per-node output quantisation scheme (canonical except under int8).
  std::vector<tensor::QScheme> schemes_;
  std::vector<ops::CompiledKernel> kernels_;
  // Per-node flags, indexed by NodeId.
  std::vector<std::uint8_t> is_input_, is_const_;
  // Pre-quantized Const outputs (empty tensors for non-Const nodes).
  std::vector<tensor::Tensor> consts_;
  // n x words_ downstream-reachability bit matrix.
  std::size_t words_ = 0;
  std::vector<std::uint64_t> reach_;
  MemoryMode memory_mode_ = MemoryMode::kRetainAll;
  MemoryPlan memory_plan_;
  std::shared_ptr<const CompileReport> report_;
};

// --- Const overrides ---------------------------------------------------------

// A per-run replacement for one Const node's pre-quantized output — the
// mechanism persistent weight/parameter faults ride on (fi/weight_fault):
// the plan itself stays immutable and shared, while one trial's corrupted
// parameter tensors are supplied alongside the run.  `value` must have
// the const's element count and already be quantized under the plan's
// dtype (fi::make_const_overrides corrupts the pre-quantized bytes
// through the codec, so this holds by construction).
struct ConstOverride {
  NodeId node = kInvalidNode;
  tensor::Tensor value;
};

// --- Injections --------------------------------------------------------------

// One bit fault on one element of one node's output, applied by the
// executor after the node is computed (Executor::run_from) — the transient
// activation faults of a trial.  On a batched plan `element` addresses
// the batched tensor (fi::make_injections offsets each row).
struct Injection {
  NodeId node = kInvalidNode;
  std::size_t element = 0;
  int bit = 0;
  tensor::BitAction action = tensor::BitAction::kFlip;
};

// --- Batch packing helpers ---------------------------------------------------

// Stacks per-image tensors (identical rank-2/4 shapes with a leading
// dimension of 1 — the batchable-input precondition of
// plan_supports_batch) into one batched tensor whose leading dimension
// is images.size().
tensor::Tensor pack_batch(std::span<const tensor::Tensor> images);

// Extracts image `index`'s slice of a batched tensor as a tensor of
// `single` shape (single.elements() * count == batched.elements()).
tensor::Tensor slice_batch(const tensor::Tensor& batched, std::size_t index,
                           std::size_t count, const tensor::Shape& single);

// Repeats a single-image tensor `count` times into `batched_shape`
// (batched_shape.elements() == count * single.elements()); used to build
// batched golden activations from single-image ones.
tensor::Tensor tile_batch(const tensor::Tensor& single, std::size_t count,
                          const tensor::Shape& batched_shape);

// Reusable per-thread execution state: node-output slots, the
// quantised-feed cache and the dirty-set scratch buffer.  Binding an arena
// to a different plan resets it; steady-state re-binding to the same plan
// is free.  An arena must not outlive the plan it is bound to, and must
// only ever be used by one thread at a time (see the plan's thread-safety
// contract above).
class Arena {
 public:
  Arena() = default;

  // All node outputs of the most recent run through this arena (indexed by
  // NodeId).  Tensors share storage; copying the vector is cheap and gives
  // the caller a stable golden-activation snapshot.  After a partial run
  // the element-sparse nodes still hold golden plus their changes; the
  // first call materialises them (incremental.hpp), so every slot is the
  // node's full value.
  const std::vector<tensor::Tensor>& outputs();

  void bind(const ExecutionPlan& plan);
  const ExecutionPlan* bound_plan() const { return plan_; }

 private:
  friend class Executor;

  struct FeedSlot {
    // Storage identity of the raw feed this slot quantised.  Holding the
    // shared_ptr pins the storage, so the address cannot be recycled and
    // in-place mutation of a still-cached feed is impossible (the tensor's
    // copy-on-write unshares instead).
    std::shared_ptr<const std::vector<float>> key;
    tensor::Tensor quantized;
  };

  std::uint64_t plan_serial_ = 0;  // 0 = unbound
  const ExecutionPlan* plan_ = nullptr;
  std::vector<tensor::Tensor> outputs_;
  std::vector<FeedSlot> feeds_;          // indexed by NodeId (Input nodes)
  std::vector<tensor::Tensor> input_scratch_;
  // run_from scratch: static dirty candidates, injection roots, and the
  // per-node element-level change sets of the current trial.
  std::vector<bool> dirty_, roots_;
  std::vector<NodeId> root_ids_;
  std::vector<ChangeSet> change_;
  std::vector<const ChangeSet*> change_ptrs_;  // per-node-input scratch
};

}  // namespace rangerpp::graph
