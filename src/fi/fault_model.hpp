// Fault model (paper §II-C):
//  * transient hardware faults in the processor datapath, manifesting as
//    bit flips in the output value of one operator instance per inference;
//  * memory / caches / register file are ECC-protected, so weights (Const
//    nodes) and program inputs are never corrupted;
//  * single-bit flips by default; the multi-bit mode (§VI-B) flips 2-5 bits
//    in independently chosen values;
//  * the last FC layer (and anything after it) is excluded from injection —
//    model builders mark those nodes non-injectable (§V-B).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "graph/plan.hpp"
#include "tensor/dtype.hpp"
#include "util/rng.hpp"

namespace rangerpp::fi {

// How a fault point perturbs its target bit (tensor::BitAction): a flip
// for transient datapath faults, stuck-at-0/1 for failed parameter-memory
// cells.
using FaultAction = tensor::BitAction;

// One bit fault at one element of one node's output (an operator output
// under the activation fault class, a Const tensor under the weight
// class).  Nodes are addressed by *name* so a fault planned on an
// unprotected graph can be replayed on its Ranger-transformed twin
// (names are preserved by the transform).
struct FaultPoint {
  std::string node_name;
  std::size_t element = 0;
  int bit = 0;
  FaultAction action = FaultAction::kFlip;
};

// The set of flips applied during one inference (size 1 under the default
// single-bit model, 2-5 under the multi-bit model).
using FaultSet = std::vector<FaultPoint>;

// Enumerates the injectable sites of a graph: every element of every
// injectable node's output.  Sampling is uniform over *elements* (matching
// TensorFI), so larger layers absorb proportionally more faults.
class SiteSpace {
 public:
  // Shapes are obtained from Graph::infer_shapes (no execution needed).
  SiteSpace(const graph::Graph& g, tensor::DType dtype);

  // Uniformly samples `n_bits` independent fault points (the paper's
  // default multi-bit model: multiple independent values corrupted).
  FaultSet sample(util::Rng& rng, int n_bits) const;

  // Samples one value and flips `n_bits` *consecutive* bit positions in it
  // (the alternative burst model of §VI-B, after Yang et al. [58]).
  FaultSet sample_consecutive(util::Rng& rng, int n_bits) const;

  std::size_t total_elements() const { return total_; }
  std::size_t injectable_nodes() const { return nodes_.size(); }

  // Element count of a node's output (0 when not injectable); keyed by
  // name, for tests and for baselines that weight coverage by site mass.
  std::size_t elements_of(const std::string& node_name) const;

  // Positional access to the injectable sites, in graph (topological)
  // order — the basis for stratified campaign sampling, which partitions
  // trials over (site, bit-group) strata.
  const std::string& site_name(std::size_t i) const { return nodes_[i].name; }
  std::size_t site_elements(std::size_t i) const { return nodes_[i].elements; }
  // Index of a node's site (SIZE_MAX when not injectable).
  std::size_t site_index(const std::string& node_name) const;

  int dtype_bits() const { return dtype_bits_; }

 private:
  struct Entry {
    std::string name;
    std::size_t elements;
    std::size_t cumulative;  // inclusive upper bound of this node's range
  };
  std::vector<Entry> nodes_;
  std::size_t total_ = 0;
  int dtype_bits_ = 32;
};

// The injections one run of `plan` applies (Executor::run and run_from
// take them), for either fault class: a fault point naming an op node
// corrupts its output, one naming a Const (a weight fault) corrupts the
// Const's value for that run.  `row_faults[b]` is the fault set of the
// trial riding in batch row b (row_faults.size() <= plan.batch(); one row
// at batch 1).  Each fault's single-image element index is offset into
// its row of the batched output (per-image element counts come from
// `plan`), so row b reproduces trial b's single-image injection
// bit-identically and rows stay independent.  Fault points naming nodes
// absent from the plan's graph, or elements past a row, are skipped (they
// cannot occur when the site space came from the same graph; during
// cross-graph replay every original node name still exists by
// construction).
std::vector<graph::Injection> make_injections(
    const graph::ExecutionPlan& plan, std::span<const FaultSet> row_faults);
std::vector<graph::Injection> make_injections(
    const graph::ExecutionPlan& plan, const FaultSet& faults);

// Builds a full-run hook that applies `faults` (resolved against `g` by
// node name) to op outputs by flipping bits of `dtype`'s canonical
// representation, for callers that run their own hook around the fault
// (the detection baselines, the examples).  Unknown names are ignored, as
// make_injections skips them.
graph::PostOpHook make_injection_hook(const graph::Graph& g,
                                      tensor::DType dtype,
                                      const FaultSet& faults);

}  // namespace rangerpp::fi
