#include "graph/passes.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "graph/verify.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace rangerpp::graph {

// --- Report formatting -------------------------------------------------------

std::string CompileReport::to_string() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-16s %9s\n", "stage", "ms");
  out += line;
  for (const StageTrace& t : stages) {
    std::snprintf(line, sizeof(line), "%-16s %9.3f\n", t.name.c_str(),
                  t.ms);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total %.3f ms   peak_arena_bytes %zu (retain-all %zu)\n",
                total_ms, peak_arena_bytes, unplanned_bytes);
  out += line;
  for (const std::string& w : warnings) out += "warning: " + w + "\n";
  return out;
}

// --- compile -----------------------------------------------------------------

ExecutionPlan compile(Graph g, const CompileOptions& options) {
  if (g.size() == 0)
    throw std::invalid_argument("graph::compile: empty graph");
  if (options.batch == 0)
    throw std::invalid_argument("graph::compile: batch == 0");
  auto report = std::make_shared<CompileReport>();
  util::Timer total;
  for (const auto& entry : options.int8_formats)
    if (g.find(entry.first) == kInvalidNode)
      report->warnings.push_back(
          "int8_formats key '" + entry.first +
          "' matches no node in the graph (calibration/model mismatch?)");

  ExecutionPlan plan(std::move(g), options, report.get());

  {
    util::trace::Span span("compile.memory_plan");
    util::Timer timer;
    MemoryPlan mp = plan_memory(plan.graph(), plan.shapes());
    util::metrics::gauge_max("arena.peak_bytes", mp.peak_arena_bytes);
    report->peak_arena_bytes = mp.peak_arena_bytes;
    report->unplanned_bytes = mp.unplanned_bytes;
    report->stages.push_back(StageTrace{"memory_plan", timer.elapsed_ms()});
    if (options.memory == MemoryMode::kArena) {
      plan.memory_plan_ = std::move(mp);
      plan.memory_mode_ = MemoryMode::kArena;
    }
  }

  // `report` stays a mutable handle to the plan's report for the verify
  // trace and the total below.
  plan.report_ = report;

  if (options.verify) {
    // Terminal verification stage: prove the compiled plan's invariants
    // (graph/verify.hpp) before anything can execute it.  A violation
    // is a compiler bug, never a user error — hence logic_error.
    util::trace::Span span("compile.verify_plan");
    util::Timer timer;
    const VerifyReport vr = verify_plan(plan);
    report->stages.push_back(StageTrace{"verify_plan", timer.elapsed_ms()});
    if (!vr.ok())
      throw std::logic_error(
          "graph::compile: plan failed static verification\n" +
          vr.to_string());
  }

  report->total_ms = total.elapsed_ms();
  for (const std::string& w : report->warnings)
    std::fprintf(stderr, "rangerpp: compile: %s\n", w.c_str());
  return plan;
}

}  // namespace rangerpp::graph
