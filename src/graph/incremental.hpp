// Element-sparse incremental recomputation, the second tier of the
// ExecutionPlan's golden-prefix partial re-execution.
//
// Node-level reachability (plan.hpp) prunes everything outside the
// injected fault's downstream cone, but inside the cone a single flipped
// element perturbs only a slowly-dilating patch of each activation: one
// conv input element touches a kernel-window's worth of output positions,
// an elementwise op maps changed elements 1:1, a pool window maps them to
// its one output.  Recomputing just those elements — in exactly the same
// accumulation order as the dense kernels, so results stay bit-identical —
// turns the dominant conv cost of a trial from O(feature map) into
// O(changed patch).
//
// Supported ops: Conv2D, BiasAdd, BatchNorm, MaxPool/AvgPool, LRN,
// Concat, Reshape/Flatten, and every value-only elementwise op (anything
// deriving UnaryElementwiseOp / BinaryElementwiseOp — the base-class
// contract is a per-element function of values alone, which is what makes
// the gather/compute/scatter trick sound).  MatMul is row-sparse: on a
// batched plan it recomputes only the batch rows whose input changed, and
// with every row changed (always so at batch 1) it reports "no sparse
// kernel".  Conv2D also takes a changed filter (see "Const (weight)
// faults" below).  Everything else — Softmax, GlobalAvgPool and unknown
// ops — reports "no sparse kernel" too, and the executor falls back to a
// dense recompute, which is always correct.
//
// Representation and the O(changed) contract: a node the sparse tier
// handled keeps its shared golden tensor as its output, and its ChangeSet
// carries the changed values (`idx` plus `val`).  No tensor is copied or
// diffed in full on this tier: a kernel reads its inputs' changed values
// from their change sets, emits (index, value) pairs for the outputs that
// differ from golden, and costs time proportional to the elements it
// recomputes.  Only a consumer that needs the whole tensor builds golden
// + changes (materialize below): a dense recompute, the run's returned
// output, and Arena::outputs().  A node that was recomputed densely (or
// an overridden Const) already holds its full tensor, so its change set
// stays index-only and kernels read its values from the tensor.
//
// Window reads stay O(1): conv, pool and LRN read an input with a valued
// change set through a per-thread scatter of that set — a slot per
// element, stamped per call, so binding costs O(changed) and a read is one
// stamp compare.  Binding the scatter for one input invalidates the
// previous binding on the same thread; each kernel binds at most one.
//
// The executor runs this tier at injection roots as well, then applies
// the root's injections to the resulting change set (executor.hpp).
//
// Determinism contract: each sparse kernel recomputes an affected element
// with exactly the dense kernels' per-element operation order (which both
// backends of ops/backend.hpp share; row-sparse MatMul runs the blocked
// GEMM core and both conv kernels run ops::blocked::conv_pixel, byte-equal
// to the scalar kernels), so a partial re-execution is bit-identical to a
// full one — under the scalar or the blocked backend, and on batched
// plans, where element indices simply address the batched tensor (every
// supported op treats batch rows independently, so a change set never
// leaks across rows).
//
// Const (weight) faults: a ConstOverride run seeds the overridden
// Const's ChangeSet with the corrupted elements (index-only: the override
// holds its full tensor), so the invalidation is exactly the
// downstream-reachability cone of the const — i.e. of its first
// consumer(s).  Element i of a Conv2D filter [kh, kw, ic, oc] feeds
// output channel i % oc alone.  So while the conv's data input is golden,
// its parameter kernel recomputes just the changed channels at every
// output position, position ascending then channel ascending, in the
// dense kernels' per-element order, and the node stays on this tier with
// a valued change set.  It falls back to dense when the data input
// changed too (a multi-bit fault reaching two layers in series), when
// half the channels or more changed, or when the filter input carries
// values (a computed tensor, not an overridden Const).  A changed BiasAdd
// bias or MatMul weight matrix recomputes dense.  Downstream, the
// element-sparse tracking goes on as usual: the next conv usually
// recomputes dense (one changed channel at every position reaches every
// output pixel), and a fault masked at the consumer (ReLU/pool/clamp)
// still collapses the rest of the cone back to golden.  A
// BinaryElementwiseOp needs no parameter kernel: sparse_binary merges
// both inputs' change sets element by element, so a changed second input
// stays sparse until the merged set reaches the dense threshold.
//
// Thread-safety: incremental_recompute is a function of its arguments
// plus the calling thread's scatter; concurrent calls are safe as long as
// each call owns its `out_change` (the executor calls it from per-arena
// state).
#pragma once

#include <span>
#include <vector>

#include "ops/op.hpp"
#include "tensor/dtype.hpp"

namespace rangerpp::graph {

// Which elements of a node's output differ from the golden run.
struct ChangeSet {
  // true = "assume everything changed" (the change grew past the point
  // where tracking individual indices pays off); idx is empty then.
  bool dense = false;
  std::vector<std::size_t> idx;  // ascending, unique
  // The new values at idx (same length) while the node's output is still
  // its golden tensor; empty once the output holds the full value
  // (index-only: a dense recompute, or after materialize).
  std::vector<float> val;

  bool clean() const { return !dense && idx.empty(); }
  bool valued() const { return !val.empty(); }
  void reset() {
    dense = false;
    idx.clear();
    val.clear();
  }
  void mark_dense() {
    dense = true;
    idx.clear();
    val.clear();
  }
};

// Turns a node's golden output `t` plus its valued change set `ch` into
// the full output tensor (a copy of golden with the changes written in),
// in place; `ch` becomes index-only.  Returns the elements copied.
std::size_t materialize(tensor::Tensor& t, ChangeSet& ch);

// Attempts an element-sparse recompute of one node.
//
//  * `inputs` are the node's current input tensors: golden where
//    `changes[k]` is valued (its values are the changes), the full value
//    where it is index-only.
//  * `changes[k]` describes how inputs[k] differs from golden.  Any dense
//    input change disables the sparse path.
//  * `golden` is the node's fault-free output (quantised under `scheme` —
//    the node's plan.qscheme, canonical except under int8).
//
// On success the node's output is `golden` plus `out_change`, which lists
// (with values) the elements that differ from golden — empty when the
// change was fully masked — and the function returns true.  Returns false,
// leaving `out_change` untouched, when the op has no sparse kernel or the
// affected region is so large that a dense recompute is cheaper; the
// caller handles that case (and it is always correct to do so).
bool incremental_recompute(const ops::Op& op, const tensor::QScheme& scheme,
                           std::span<const tensor::Tensor> inputs,
                           std::span<const ChangeSet* const> changes,
                           const tensor::Tensor& golden,
                           ChangeSet& out_change);

}  // namespace rangerpp::graph
