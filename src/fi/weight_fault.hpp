// Weight/parameter-memory fault subsystem.
//
// The paper's fault model (§II-C) assumes ECC-protected memory, so the
// classic campaigns inject only transient flips into operator *outputs*.
// This module relaxes that assumption into a first-class scenario axis:
// persistent corruption of the network's parameters (Const tensors),
// optionally filtered through an explicit ECC model.
//
//  * WeightSiteSpace enumerates the elements of every injectable Const
//    (weight/bias) tensor.  A Const is injectable when at least one of
//    its consumers is an injectable op node — the §V-B last-FC exclusion
//    the model builders already mark propagates to the layer's
//    parameters automatically.
//  * WeightFaultModel picks how a sampled fault perturbs the tensor:
//    single/multi independent bit flips, a consecutive-bit burst within
//    one value (after Yang et al.), stuck-at-0/1 cells, or a row burst —
//    the same bit flipped in consecutive elements along the tensor's
//    innermost dimension (a spatially-correlated DRAM-row failure).
//  * EccModel filters sampled faults before application: SEC-DED
//    corrects any word (= stored value) with exactly one faulty bit and
//    detects-but-passes multi-bit words; a coverage fraction p protects
//    each word with SEC-DED independently with probability p.
//  * The surviving fault set runs as an activation fault set does:
//    fi::make_injections turns it into graph::Injections on Const nodes,
//    which the executor applies to the pre-quantized const values for
//    one run (the plan stays golden and shared) — no per-trial plan
//    recompilation, and no tensor copy on a partial run (a full run
//    corrupts its own copy).  Resolution is by node *name*
//    (via the plan's graph), so a fault stream planned on the
//    unprotected graph replays on its Ranger-protected twin; names
//    absent from the executing graph are ignored, the same cross-graph
//    tolerance contract as for activation faults.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fi/fault_model.hpp"
#include "graph/graph.hpp"
#include "tensor/dtype.hpp"
#include "util/rng.hpp"

namespace rangerpp::fi {

// Which site population a campaign draws faults from: transient operator-
// output flips (the paper's model) or persistent Const corruption.
enum class FaultClass { kActivation, kWeight };

std::string_view fault_class_token(FaultClass c);
std::optional<FaultClass> fault_class_from_token(std::string_view s);

enum class WeightFaultKind {
  kSingleBit,         // one element, one flipped bit
  kMultiBit,          // n_bits independent (element, bit) flips
  kConsecutiveBurst,  // one element, n_bits adjacent flipped bits
  kStuckAt0,          // one element, one bit stuck at 0
  kStuckAt1,          // one element, one bit stuck at 1
  kRowBurst,          // same bit flipped in n_bits consecutive elements
                      // of one innermost-dimension row
};

std::string_view weight_fault_kind_token(WeightFaultKind k);
std::optional<WeightFaultKind> weight_fault_kind_from_token(
    std::string_view s);

struct WeightFaultModel {
  WeightFaultKind kind = WeightFaultKind::kSingleBit;
  // kMultiBit: independent flips; kConsecutiveBurst: adjacent bits;
  // kRowBurst: consecutive elements.  Ignored by the other kinds.
  int n_bits = 1;
};

// ECC filtering applied to parameter words (one stored value = one ECC
// word) before a sampled fault corrupts memory.
enum class EccKind { kNone, kSecDed, kCoverage };

struct EccModel {
  EccKind kind = EccKind::kNone;
  // kCoverage: fraction of words protected by SEC-DED (0 = none,
  // 1 = full SEC-DED); the per-word decision is drawn from the trial's
  // deterministic stream.
  double coverage = 0.0;
};

// "none" | "secded" | "cov<FRACTION>" (e.g. "cov0.5").
std::string ecc_token(const EccModel& ecc);
std::optional<EccModel> ecc_from_token(std::string_view s);

// Filters a sampled weight-fault set through `ecc`.  Fault points are
// grouped into words by (node, element), in first-occurrence order; a
// SEC-DED-protected word with exactly one fault point is corrected (its
// point is dropped), one with two or more is detected but passes
// uncorrected.  Under kCoverage one bernoulli(coverage) is drawn from
// `rng` per word (in that same deterministic order), so the filtered set
// is a pure function of (sampled set, ecc, rng state).
FaultSet apply_ecc(const FaultSet& faults, const EccModel& ecc,
                   util::Rng& rng);

// Enumerates the injectable weight sites of a graph: every element of
// every Const tensor with at least one injectable consumer.  Sampling is
// uniform over elements, mirroring SiteSpace.
class WeightSiteSpace {
 public:
  // Throws std::invalid_argument when the graph has no injectable
  // Const sites.
  WeightSiteSpace(const graph::Graph& g, tensor::DType dtype);

  // Samples one fault set under `model` (deterministic given the rng
  // state).  Stuck-at points carry FaultAction::kStuck0/kStuck1; all
  // other kinds produce kFlip points.
  FaultSet sample(util::Rng& rng, const WeightFaultModel& model) const;

  std::size_t total_elements() const { return total_; }
  std::size_t injectable_tensors() const { return nodes_.size(); }

  // Element count of a const tensor (0 when not an injectable site).
  std::size_t elements_of(const std::string& node_name) const;

  // Positional access, in graph (topological) order — the basis for the
  // per-(tensor, bit-group) post-stratification of campaign records.
  const std::string& site_name(std::size_t i) const { return nodes_[i].name; }
  std::size_t site_elements(std::size_t i) const {
    return nodes_[i].elements;
  }
  // Innermost-dimension length of a site's tensor (the row of kRowBurst).
  std::size_t site_row_length(std::size_t i) const { return nodes_[i].row; }
  // Index of a const's site (SIZE_MAX when not injectable).
  std::size_t site_index(const std::string& node_name) const;

  int dtype_bits() const { return dtype_bits_; }

 private:
  struct Entry {
    std::string name;
    std::size_t elements;
    std::size_t cumulative;  // inclusive upper bound of this site's range
    std::size_t row;         // innermost-dimension length
  };
  // Uniform element pick resolved to (site, offset).
  std::pair<std::size_t, std::size_t> pick(util::Rng& rng) const;

  std::vector<Entry> nodes_;
  std::size_t total_ = 0;
  int dtype_bits_ = 32;
};

}  // namespace rangerpp::fi
