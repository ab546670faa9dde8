// Graph executor.
//
// Evaluates nodes in append (= topological) order.  Two features matter for
// the reproduction:
//  * every operator output is quantised through the active inference
//    datatype codec (float32 / fixed32 / fixed16), so stored values are
//    exactly representable and bit flips act on the true representation;
//  * a run applies a trial's faults itself, as graph::Injections (plan.hpp):
//    transient activation faults on op outputs and persistent weight
//    faults on Const values alike, on a full run and on a partial one.
//    A full run may instead take a post-op hook that observes (and may
//    corrupt) each op node's output; the range profiler and the detection
//    baselines attach there.
//
// Execution is plan-based: a graph is compiled once into an ExecutionPlan
// (see plan.hpp) and then run any number of times through a reusable Arena.
// `run_from` resumes from cached golden activations, applies the trial's
// injections and recomputes only the downstream cone of the injected
// node(s) — the partial re-execution that makes fault-injection campaigns
// cheap.  A one-shot caller compiles its graph with Observe::kAll
// (graph/passes.hpp), so every node's output stays in arena.outputs() and
// every hook fires as on the source graph.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/plan.hpp"
#include "tensor/dtype.hpp"

namespace rangerpp::graph {

// Called by the hook `run` after each op node's output is computed and
// quantised.  May mutate the tensor in place (mutations are re-quantised by the caller via the hook
// contract: hooks that write values are expected to write representable
// values — fi::make_injection_hook flips bits of the encoded
// representation, so this holds by construction).
using PostOpHook =
    std::function<void(const Node& node, tensor::Tensor& output)>;

// Applies the injections aimed at `node`, in list order, to its full
// value tensor under `scheme` (tensor::q_apply_bit); elements past the
// tensor are skipped.  Tensor::set unshares, so a golden or plan-owned
// tensor that `value` aliases stays untouched.  Both runs' dense paths
// and fi::make_injection_hook inject through this.
void inject(std::span<const Injection> injections, NodeId node,
            const tensor::QScheme& scheme, tensor::Tensor& value);

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

  // The full-run twin of run_from, and its reference: `injections` (a
  // trial's faults: node, element, bit, action) apply to each op node's
  // output after it computes and to each Const's pre-quantized value,
  // for this run only (the plan's tensors stay golden).  An injection on
  // an Input node does nothing; an injection element past its node's
  // output throws std::out_of_range, as in run_from.
  tensor::Tensor run(const ExecutionPlan& plan,
                     const std::unordered_map<std::string, tensor::Tensor>&
                         feeds,
                     Arena& arena,
                     std::span<const Injection> injections) const;

  // Partial re-execution from cached golden activations: applies
  // `injections` as the full run does, and recomputes only the nodes
  // reachable from the injected nodes — copying the golden prefix for
  // everything else.  An injected Const (a persistent weight fault) is a
  // root like an injected op node.  Within the reachable cone two further prunings apply: a node whose
  // inputs came out bit-identical to the golden run collapses back to
  // golden (the fault was masked by a ReLU, pool or clamp), and a node
  // whose inputs changed in only a few elements recomputes just the
  // affected patch via the element-sparse kernels of incremental.hpp.
  // There the injections act on the node's change set, so no tensor is
  // copied or diffed to apply them; the run costs time in proportion to
  // the elements that changed, and builds a full tensor only where one is
  // needed (a dense recompute, the returned output, Arena::outputs()).
  //
  // `golden` must be the arena.outputs() snapshot of a fault-free run of
  // the same plan with the same feeds.  Since the executor applies the
  // injections and nothing else can perturb a node, the result is
  // bit-identical to the injection `run` with the same injections.
  // Injections on Input nodes do nothing; an injection element past its
  // node's output throws std::out_of_range.
  tensor::Tensor run_from(const ExecutionPlan& plan,
                          const std::vector<tensor::Tensor>& golden,
                          std::span<const Injection> injections,
                          Arena& arena) const;

 private:
  tensor::Tensor execute(const ExecutionPlan& plan,
                         const std::unordered_map<std::string,
                                                  tensor::Tensor>& feeds,
                         Arena& arena, const PostOpHook& hook,
                         const std::vector<tensor::Tensor>* golden,
                         std::span<const Injection> injections) const;
};

// Argmax over the output tensor — predicted class id for classifiers.
int argmax(const tensor::Tensor& t);

// Indices of the k largest values, descending (top-5 metric).
std::vector<int> top_k(const tensor::Tensor& t, int k);

}  // namespace rangerpp::graph
