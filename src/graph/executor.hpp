// Graph executor.
//
// Evaluates nodes in append (= topological) order.  Two features matter for
// the reproduction:
//  * every operator output is quantised through the active inference
//    datatype codec (float32 / fixed32 / fixed16), so stored values are
//    exactly representable and bit flips act on the true representation;
//  * a post-op hook observes (and may corrupt) each node's output tensor —
//    the fault injector, the range profiler and the detection baselines all
//    attach here.
//
// Execution is plan-based: a graph is compiled once into an ExecutionPlan
// (see plan.hpp) and then run any number of times through a reusable Arena.
// `run_from` resumes from cached golden activations and recomputes only the
// downstream cone of the injected node(s) — the partial re-execution that
// makes fault-injection campaigns cheap.  A one-shot caller compiles its
// graph with Observe::kAll (graph/passes.hpp), so every node's output stays
// in arena.outputs() and every hook fires as on the source graph.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/plan.hpp"
#include "tensor/dtype.hpp"

namespace rangerpp::graph {

// Called after a node's output is computed and quantised.  May mutate the
// tensor in place (mutations are re-quantised by the caller via the hook
// contract: hooks that write values are expected to write representable
// values — the fault injector flips bits of the encoded representation, so
// this holds by construction).
using PostOpHook =
    std::function<void(const Node& node, tensor::Tensor& output)>;

// Stateless: the plan carries the dtype, backend and batch size.
class Executor {
 public:
  // Runs the full plan with `feeds` bound to Input nodes (keyed by node
  // name), reusing `arena`'s buffers and caches.  Returns the designated
  // output node's tensor; every node's output remains available via
  // arena.outputs().  A batched plan takes feeds packed along the leading
  // dimension (pack_batch) and returns the batched output (slice_batch
  // recovers each image's row).
  tensor::Tensor run(const ExecutionPlan& plan,
                     const std::unordered_map<std::string, tensor::Tensor>&
                         feeds,
                     Arena& arena, const PostOpHook& hook = nullptr) const;

  // Partial re-execution from cached golden activations: recomputes only
  // the nodes reachable from `roots` (the fault-injection sites) and
  // copies the golden prefix for everything else.  Within the reachable
  // cone two further prunings apply: a node whose inputs came out
  // bit-identical to the golden run collapses back to golden (the fault
  // was masked by a ReLU, pool or clamp), and a node whose inputs changed
  // in only a few elements recomputes just the affected patch via the
  // element-sparse kernels of incremental.hpp.  `golden` must be the
  // arena.outputs() snapshot of a fault-free run of the same plan with the
  // same feeds.  The hook fires only at the injection roots; provided the
  // hook mutates nothing but the roots' outputs (true for injection hooks
  // whose fault sites are the roots), the result is bit-identical to a
  // full run with the same hook.
  tensor::Tensor run_from(const ExecutionPlan& plan,
                          const std::vector<tensor::Tensor>& golden,
                          std::span<const NodeId> roots, Arena& arena,
                          const PostOpHook& hook = nullptr) const;

  // Single-site convenience overload.
  tensor::Tensor run_from(const ExecutionPlan& plan,
                          const std::vector<tensor::Tensor>& golden,
                          NodeId start, Arena& arena,
                          const PostOpHook& hook = nullptr) const;

  // --- Const-override execution (persistent parameter faults) -----------

  // As the plan-based `run`, with `overrides` replacing the named Const
  // nodes' pre-quantized outputs for this run only (the plan is not
  // touched).  Override values must match the const's element count and
  // be quantized under the plan's dtype (see ConstOverride).
  tensor::Tensor run(const ExecutionPlan& plan,
                     const std::unordered_map<std::string, tensor::Tensor>&
                         feeds,
                     Arena& arena, std::span<const ConstOverride> overrides,
                     const PostOpHook& hook = nullptr) const;

  // Partial re-execution under const overrides: each overridden Const is
  // treated as an injection root — its element-level change set (override
  // vs golden) seeds the same dynamic-masking / element-sparse pruning an
  // activation fault gets, so only the const's downstream-reachability
  // cone recomputes and a no-op override (e.g. a stuck-at cell whose bit
  // already held the stuck value) collapses back to golden outright.
  // Overridden Const ids are added to `roots` automatically; `golden`
  // must come from a fault-free run (its const slots equal the plan's
  // pre-quantized tensors).  Bit-identical to a full `run` with the same
  // overrides.
  tensor::Tensor run_from(const ExecutionPlan& plan,
                          const std::vector<tensor::Tensor>& golden,
                          std::span<const NodeId> roots, Arena& arena,
                          std::span<const ConstOverride> overrides,
                          const PostOpHook& hook = nullptr) const;

 private:
  tensor::Tensor execute(const ExecutionPlan& plan,
                         const std::unordered_map<std::string,
                                                  tensor::Tensor>& feeds,
                         Arena& arena, const PostOpHook& hook,
                         const std::vector<tensor::Tensor>* golden,
                         std::span<const NodeId> roots,
                         std::span<const ConstOverride> overrides = {}) const;
};

// Argmax over the output tensor — predicted class id for classifiers.
int argmax(const tensor::Tensor& t);

// Indices of the k largest values, descending (top-5 metric).
std::vector<int> top_k(const tensor::Tensor& t, int k);

}  // namespace rangerpp::graph
