// The plan compiler: graph::compile() — the single public entry point
// that turns a Graph into an ExecutionPlan.
//
// compile() lowers the graph it is given and never rewrites it: a plan's
// graph is its source graph node for node (ids, names, op objects, inputs,
// injectable flags), under every option.  Range restriction is not a
// compiler stage either: protect a graph with core::RangerTransform::apply
// and compile the result.  The stages, each timed into the CompileReport:
//
//   infer_shapes, assign_schemes, select_kernels, reachability
//                  — the lowering in graph/plan.cpp;
//   memory_plan    — arena-slot aliasing and peak_arena_bytes
//                    (graph/memory_plan.hpp);
//   verify_plan    — the static verifier (graph/verify.hpp), when
//                    CompileOptions::verify is set.
//
// Before lowering, compile() warns about int8_formats keys that name no
// node of the graph (a silent mismatch used to hide calibration bugs).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/memory_plan.hpp"
#include "graph/plan.hpp"
#include "ops/backend.hpp"
#include "tensor/dtype.hpp"

namespace rangerpp::graph {

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
  // warns about keys that match no node.
  std::unordered_map<std::string, tensor::FixedPointFormat> int8_formats;

  // kArena drops each activation after its last consumer and aliases
  // arena slots (memory_plan.hpp); kRetainAll keeps the golden-snapshot
  // behaviour campaigns need.
  MemoryMode memory = MemoryMode::kRetainAll;

  // Run the static plan verifier (graph/verify.hpp) as the terminal
  // compilation stage and throw std::logic_error on any violated
  // invariant — shapes, schemes, schedule, reachability exactness, arena
  // aliasing.  On by default in debug builds (assert-like cost: one extra
  // pass over a compiled plan); release clients opt in per plan
  // (--verify-plan in the CLIs, CampaignConfig::verify_plan,
  // SchedulerConfig::verify_plans).
#ifdef NDEBUG
  bool verify = false;
#else
  bool verify = true;
#endif
};

struct StageTrace {
  std::string name;
  double ms = 0.0;
};

struct CompileReport {
  std::vector<StageTrace> stages;
  std::vector<std::string> warnings;
  // From the memory-planning stage (regardless of MemoryMode, so benches
  // can report the reduction without compiling twice).
  std::size_t peak_arena_bytes = 0;
  std::size_t unplanned_bytes = 0;
  double total_ms = 0.0;
  // Multi-line human-readable table (--dump-passes output).
  std::string to_string() const;
};

// The public compiler entry point: lowers `g` into an immutable
// ExecutionPlan; plan.report() exposes the per-stage trace.  Warnings are
// also printed to stderr.
ExecutionPlan compile(Graph g, const CompileOptions& options = {});

}  // namespace rangerpp::graph
