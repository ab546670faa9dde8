// Static plan verification (graph/verify.hpp): every compiled plan must
// verify clean across the dtype/batch/memory/backend matrix, and each
// corruption class — broken schedule, stale/excess reachability bits,
// overlapping arena slots, dtype mismatch — must produce its own distinct
// diagnostic.  Corruptions are forged by editing a PlanFacts snapshot
// (verify_facts judges claims, not plans).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "graph/passes.hpp"
#include "graph/verify.hpp"
#include "models/workload.hpp"
#include "ops/activation_ops.hpp"
#include "ops/basic_ops.hpp"
#include "ops/elementwise_ops.hpp"

namespace rangerpp::graph {
namespace {

bool has_diag(const VerifyReport& r, VerifyDiag d) {
  for (const VerifyFinding& f : r.findings)
    if (f.diag == d) return true;
  return false;
}

// in -> a(add) -> r(relu) -> m(mul) -> out(add), all fed by one Const:
// three droppable intermediates (a, r, m) and a non-injectable output
// head.  Under kArena the greedy allocator aliases a and m onto one slot
// (a dies after r runs).
Graph small_graph() {
  Graph g;
  const NodeId in =
      g.add("in", std::make_shared<ops::InputOp>(tensor::Shape{1, 8}), {});
  const NodeId c = g.add(
      "c",
      std::make_shared<ops::ConstOp>(tensor::Tensor(
          tensor::Shape{1, 8},
          {0.5f, -1.0f, 2.0f, 0.25f, 1.0f, -0.5f, 0.75f, -2.0f})),
      {});
  const NodeId a = g.add("a", std::make_shared<ops::AddOp>(), {in, c});
  const NodeId r = g.add("r", std::make_shared<ops::ReluOp>(), {a});
  const NodeId m = g.add("m", std::make_shared<ops::MulOp>(), {r, c});
  const NodeId out = g.add("out", std::make_shared<ops::AddOp>(), {m, c},
                           /*injectable=*/false);
  g.set_output(out);
  return g;
}

// in -> a -> b -> c -> out, all unary: batchable (no Const feeds a
// binary op, so every shape widens uniformly with the batch).
Graph chain_graph() {
  Graph g;
  const NodeId in =
      g.add("in", std::make_shared<ops::InputOp>(tensor::Shape{1, 8}), {});
  const NodeId a = g.add("a", std::make_shared<ops::ReluOp>(), {in});
  const NodeId b = g.add("b", std::make_shared<ops::TanhOp>(), {a});
  const NodeId c = g.add("c", std::make_shared<ops::ReluOp>(), {b});
  const NodeId out = g.add("out", std::make_shared<ops::TanhOp>(), {c},
                           /*injectable=*/false);
  g.set_output(out);
  return g;
}

CompileOptions base_options() {
  CompileOptions o;
  o.verify = false;  // tests call verify_plan explicitly
  return o;
}

// --- Positive matrix ---------------------------------------------------------

TEST(Verify, CleanAcrossDtypeBatchAndMemoryMatrix) {
  for (const tensor::DType dtype :
       {tensor::DType::kFixed32, tensor::DType::kFixed16,
        tensor::DType::kFloat32, tensor::DType::kInt8}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
      for (const MemoryMode memory :
           {MemoryMode::kRetainAll, MemoryMode::kArena}) {
        CompileOptions o = base_options();
        o.dtype = dtype;
        o.batch = batch;
        o.memory = memory;
        // small_graph's Const feeds binary ops, which cannot widen with
        // the batch — batched cells run the unary chain instead.
        const ExecutionPlan plan =
            compile(batch == 1 ? small_graph() : chain_graph(), o);
        const VerifyReport report = verify_plan(plan);
        EXPECT_TRUE(report.ok()) << report.to_string();
        EXPECT_EQ(report.run_from_compatible, memory != MemoryMode::kArena);
      }
    }
  }
}

TEST(Verify, CleanOnRealWorkloadPlan) {
  models::WorkloadOptions opt;
  opt.trained = false;  // graph structure is what the verifier exercises
  opt.profile_samples = 4;
  opt.eval_inputs = 2;
  opt.validation_samples = 4;
  const models::Workload w =
      models::make_workload(models::ModelId::kLeNet, opt);
  const VerifyReport report =
      verify_plan(compile(w.graph.clone(), base_options()));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- Corruption class 1: schedule --------------------------------------------

TEST(Verify, CycleForgedIntoScheduleIsCaught) {
  const ExecutionPlan plan = compile(small_graph(), base_options());
  PlanFacts facts = facts_of(plan);
  // Rotating a chain's schedule makes every node run before its input
  // along the rotated edge — the order a cyclic graph would need.
  std::rotate(facts.schedule.begin(), facts.schedule.begin() + 1,
              facts.schedule.end());
  const VerifyReport report = verify_facts(facts);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_diag(report, VerifyDiag::kScheduleOrder))
      << report.to_string();
}

TEST(Verify, DuplicateScheduleEntryIsCaught) {
  const ExecutionPlan plan = compile(small_graph(), base_options());
  PlanFacts facts = facts_of(plan);
  facts.schedule.back() = facts.schedule.front();
  EXPECT_TRUE(has_diag(verify_facts(facts), VerifyDiag::kScheduleOrder));
}

// --- Corruption class 2: reachability ----------------------------------------

TEST(Verify, StaleReachabilityBitIsCaught) {
  const ExecutionPlan plan = compile(small_graph(), base_options());
  PlanFacts facts = facts_of(plan);
  const auto in = static_cast<std::size_t>(facts.graph->find("in"));
  const auto out = static_cast<std::size_t>(facts.graph->output());
  ASSERT_TRUE(facts.reach[in][out]);
  facts.reach[in][out] = false;  // a fault at `in` would skip `out`
  const VerifyReport report = verify_facts(facts);
  EXPECT_TRUE(has_diag(report, VerifyDiag::kReachabilityStale))
      << report.to_string();
  EXPECT_FALSE(has_diag(report, VerifyDiag::kReachabilityExcess));
}

TEST(Verify, ExcessReachabilityBitIsCaught) {
  const ExecutionPlan plan = compile(small_graph(), base_options());
  PlanFacts facts = facts_of(plan);
  const auto in = static_cast<std::size_t>(facts.graph->find("in"));
  const auto out = static_cast<std::size_t>(facts.graph->output());
  facts.reach[out][in] = true;  // no path runs backwards
  const VerifyReport report = verify_facts(facts);
  EXPECT_TRUE(has_diag(report, VerifyDiag::kReachabilityExcess))
      << report.to_string();
  EXPECT_FALSE(has_diag(report, VerifyDiag::kReachabilityStale));
}

// --- Corruption class 3: arena aliasing --------------------------------------

TEST(Verify, OverlappingArenaSlotsAreCaught) {
  CompileOptions o = base_options();
  o.memory = MemoryMode::kArena;
  const ExecutionPlan plan = compile(small_graph(), o);
  PlanFacts facts = facts_of(plan);
  const auto a = static_cast<std::size_t>(facts.graph->find("a"));
  const auto r = static_cast<std::size_t>(facts.graph->find("r"));
  // a is live until r executes, so placing r in a's slot overwrites a
  // live activation.
  ASSERT_NE(facts.memory.slot_of[a], facts.memory.slot_of[r]);
  facts.memory.slot_of[r] = facts.memory.slot_of[a];
  const VerifyReport report = verify_facts(facts);
  EXPECT_TRUE(has_diag(report, VerifyDiag::kArenaOverlap))
      << report.to_string();
}

TEST(Verify, AliasedConstIsCaught) {
  CompileOptions o = base_options();
  o.memory = MemoryMode::kArena;
  const ExecutionPlan plan = compile(small_graph(), o);
  PlanFacts facts = facts_of(plan);
  const auto c = static_cast<std::size_t>(facts.graph->find("c"));
  facts.memory.slot_of[c] = 0;  // weights must never share arena bytes
  EXPECT_TRUE(
      has_diag(verify_facts(facts), VerifyDiag::kArenaResidentAliased));
}

TEST(Verify, MissingSlotAndBrokenReleaseScheduleAreCaught) {
  CompileOptions o = base_options();
  o.memory = MemoryMode::kArena;
  const ExecutionPlan plan = compile(small_graph(), o);
  {
    PlanFacts facts = facts_of(plan);
    const auto a = static_cast<std::size_t>(facts.graph->find("a"));
    facts.memory.slot_of[a] = MemoryPlan::kNoSlot;
    EXPECT_TRUE(
        has_diag(verify_facts(facts), VerifyDiag::kArenaSlotBounds));
  }
  {
    PlanFacts facts = facts_of(plan);
    for (auto& deaths : facts.memory.release_after) deaths.clear();
    EXPECT_TRUE(
        has_diag(verify_facts(facts), VerifyDiag::kArenaReleaseBad));
  }
}

TEST(Verify, RetainAllPlansSkipArenaChecks) {
  const ExecutionPlan plan = compile(small_graph(), base_options());
  PlanFacts facts = facts_of(plan);
  facts.memory.slot_of.clear();  // nonsense, but irrelevant off-arena
  const VerifyReport report = verify_facts(facts);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- Corruption class 4: dtype / shape / scheme ------------------------------

TEST(Verify, DtypeMismatchIsCaught) {
  CompileOptions o = base_options();
  o.dtype = tensor::DType::kFixed32;
  const ExecutionPlan plan = compile(small_graph(), o);
  PlanFacts facts = facts_of(plan);
  // The plan's schemes were assigned under fixed32; claiming fixed16
  // makes every recomputed scheme disagree.
  facts.dtype = tensor::DType::kFixed16;
  const VerifyReport report = verify_facts(facts);
  EXPECT_TRUE(has_diag(report, VerifyDiag::kSchemeMismatch))
      << report.to_string();
}

TEST(Verify, ShapeMismatchIsCaught) {
  const ExecutionPlan plan = compile(small_graph(), base_options());
  PlanFacts facts = facts_of(plan);
  facts.shapes.back() = tensor::Shape{1, 4};
  EXPECT_TRUE(has_diag(verify_facts(facts), VerifyDiag::kShapeMismatch));
}

TEST(Verify, WrongBatchClaimIsCaught) {
  CompileOptions o = base_options();
  o.batch = 4;
  const ExecutionPlan plan = compile(chain_graph(), o);
  PlanFacts facts = facts_of(plan);
  facts.batch = 1;  // shapes were inferred under batch 4
  EXPECT_TRUE(has_diag(verify_facts(facts), VerifyDiag::kShapeMismatch));
}

// --- End to end: the compiler's terminal verify stage ------------------------

TEST(Verify, CompileWithVerifyOnPassesCleanAndTracesTheStage) {
  CompileOptions o;
  o.verify = true;
  o.memory = MemoryMode::kArena;
  const ExecutionPlan plan = compile(small_graph(), o);
  bool traced = false;
  for (const StageTrace& t : plan.report()->stages)
    traced = traced || t.name == "verify_plan";
  EXPECT_TRUE(traced) << "verify stage missing from the compile report";
}

}  // namespace
}  // namespace rangerpp::graph
