// Static plan verification — graph::verify_plan(plan) proves, without
// executing a single trial, that a compiled ExecutionPlan is internally
// consistent:
//
//  * schedule    — the execution order is a permutation of the nodes in
//                  which every node runs after all of its inputs (the
//                  topological contract partial re-execution, memory
//                  planning and reachability all lean on);
//  * shapes      — every node's planned output shape equals a fresh
//                  shape inference under the plan's batch size;
//  * schemes     — every node's planned QScheme (dtype + fixed-point
//                  format) equals a fresh assign_schemes run over the
//                  plan's graph and calibration table;
//  * reachability— the plan's downstream bitsets are *exactly* the
//                  transitive closure of the graph's edges: a stale bit
//                  (missing reachable pair) breaks golden-prefix
//                  re-execution silently, an excess bit wastes work and
//                  betrays a corrupted matrix;
//  * arena       — under MemoryMode::kArena, laying the aliasing slots
//                  back to back gives each a disjoint byte range, so
//                  two activations share bytes iff they share a slot;
//                  the verifier recomputes every [def, last_use]
//                  lifetime and proves no same-slot pair overlaps, no
//                  activation outgrows its slot, no retained resident
//                  (Input/Const/graph output) was aliased, and the
//                  release_after schedule frees exactly the recomputed
//                  deaths.  kArena plans are also flagged as
//                  run_from-incompatible (informational, not an error).
//
// The checks run over PlanFacts, a plain data snapshot of everything
// the plan claims.  facts_of(plan) extracts the claims; verify_facts()
// judges a (possibly hand-corrupted) snapshot — which is how
// tests/verify_test.cpp drives every negative diagnostic without
// needing a way to build a broken plan through the real compiler; and
// verify_plan() is the composition the compiler's terminal stage and
// the --verify-plan CLI flags call.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/memory_plan.hpp"
#include "graph/plan.hpp"
#include "tensor/dtype.hpp"

namespace rangerpp::graph {

enum class VerifyDiag {
  kScheduleOrder,       // not a permutation / a node runs before an input
  kShapeMismatch,       // planned shape != recomputed shape
  kSchemeMismatch,      // planned QScheme (dtype/format) != recomputed
  kReachabilityStale,   // closure pair missing from the plan's bitset
  kReachabilityExcess,  // bitset claims a pair the closure refutes
  kArenaOverlap,        // same slot, overlapping lifetimes (shared bytes)
  kArenaResidentAliased,  // Input/Const/output placed in an aliased slot
  kArenaSlotBounds,     // activation missing a slot or larger than it
  kArenaReleaseBad,     // release_after disagrees with lifetimes
};

std::string_view verify_diag_token(VerifyDiag d);

struct VerifyFinding {
  VerifyDiag diag;
  std::string detail;  // human-readable: node names/ids and the values
};

struct VerifyReport {
  std::vector<VerifyFinding> findings;
  // Informational, not a finding: false for kArena plans, whose
  // executor refuses Executor::run_from (golden-prefix re-execution
  // needs the full retained activation set).
  bool run_from_compatible = true;

  bool ok() const { return findings.empty(); }
  // One line per finding ("diag: detail"), plus the run_from note.
  std::string to_string() const;
};

// Every claim the verifier judges, as plain corruptible data.  The
// graph pointer must outlive the snapshot; all vectors are indexed by
// NodeId.  For a real plan, `schedule` is the identity permutation
// (plans execute in append order) — tests permute it to forge broken
// schedules.
struct PlanFacts {
  const Graph* graph = nullptr;
  tensor::DType dtype = tensor::DType::kFixed32;
  std::size_t batch = 1;
  std::unordered_map<std::string, tensor::FixedPointFormat> int8_formats;
  std::vector<std::size_t> schedule;
  std::vector<tensor::Shape> shapes;
  std::vector<tensor::QScheme> schemes;
  // reach[i][j]: the plan claims a change at node i can affect node j.
  std::vector<std::vector<bool>> reach;
  MemoryMode memory_mode = MemoryMode::kRetainAll;
  MemoryPlan memory;
};

// Extracts every claim verify_facts() judges from a compiled plan.
PlanFacts facts_of(const ExecutionPlan& plan);

// Judges a snapshot.  Never throws on a bad plan — every violated
// invariant becomes a finding (internally inconsistent snapshots, e.g.
// wrongly-sized vectors, are themselves findings, not errors).
VerifyReport verify_facts(const PlanFacts& facts);

// verify_facts(facts_of(plan)) — the compiler's terminal verification
// stage (CompileOptions::verify) and the --verify-plan entry point.
VerifyReport verify_plan(const ExecutionPlan& plan);

}  // namespace rangerpp::graph
