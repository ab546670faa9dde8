#include "graph/verify.hpp"

#include <algorithm>
#include <sstream>

#include "ops/op.hpp"

namespace rangerpp::graph {
namespace {

// "name#id" — stable across renumbering discussions, greppable in logs.
std::string label(const Graph& g, std::size_t i) {
  std::string out = g.node(static_cast<NodeId>(i)).name;
  out += '#';
  out += std::to_string(i);
  return out;
}

std::string fmt_string(const tensor::FixedPointFormat& f) {
  std::ostringstream os;
  os << "Q" << (f.total_bits - f.frac_bits - 1) << "." << f.frac_bits
     << (f.zero_point != 0 ? "/zp" + std::to_string(f.zero_point) : "");
  return os.str();
}

std::string scheme_string(const tensor::QScheme& s) {
  std::string out(tensor::dtype_name(s.dtype));
  out += "(";
  out += fmt_string(s.fmt);
  out += ")";
  return out;
}

class Findings {
 public:
  explicit Findings(VerifyReport& report) : report_(report) {}

  template <typename... Parts>
  void add(VerifyDiag diag, Parts&&... parts) {
    std::ostringstream os;
    (os << ... << std::forward<Parts>(parts));
    report_.findings.push_back(VerifyFinding{diag, os.str()});
  }

 private:
  VerifyReport& report_;
};

// --- schedule ---------------------------------------------------------------

void check_schedule(const PlanFacts& f, Findings& out) {
  const Graph& g = *f.graph;
  const std::size_t n = g.size();
  if (f.schedule.size() != n) {
    out.add(VerifyDiag::kScheduleOrder, "schedule has ", f.schedule.size(),
            " entries for a ", n, "-node graph");
    return;
  }
  // Permutation check: every id exactly once.
  std::vector<std::size_t> position(n, n);
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t id = f.schedule[step];
    if (id >= n) {
      out.add(VerifyDiag::kScheduleOrder, "schedule step ", step,
              " names node ", id, ", out of range for ", n, " nodes");
      return;
    }
    if (position[id] != n) {
      out.add(VerifyDiag::kScheduleOrder, "node ", label(g, id),
              " is scheduled twice (steps ", position[id], " and ", step,
              "); the schedule is not a permutation");
      return;
    }
    position[id] = step;
  }
  // Topological check: every input runs strictly before its consumer.  A
  // cycle forged into the schedule necessarily violates this for at least
  // one edge.
  for (const Node& node : g.nodes()) {
    const auto i = static_cast<std::size_t>(node.id);
    for (const NodeId in : node.inputs) {
      const auto j = static_cast<std::size_t>(in);
      if (position[j] >= position[i])
        out.add(VerifyDiag::kScheduleOrder, "node ", label(g, i), " (step ",
                position[i], ") runs before its input ", label(g, j),
                " (step ", position[j], ")");
    }
  }
}

// --- shapes and schemes -----------------------------------------------------

void check_shapes(const PlanFacts& f, const std::vector<tensor::Shape>& want,
                  Findings& out) {
  const Graph& g = *f.graph;
  if (f.shapes.size() != want.size()) {
    out.add(VerifyDiag::kShapeMismatch, "plan records ", f.shapes.size(),
            " shapes for a ", want.size(), "-node graph");
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!(f.shapes[i] == want[i]))
      out.add(VerifyDiag::kShapeMismatch, "node ", label(g, i), ": plan says ",
              f.shapes[i].to_string(), ", inference under batch ", f.batch,
              " says ", want[i].to_string());
}

void check_schemes(const PlanFacts& f, Findings& out) {
  const Graph& g = *f.graph;
  std::vector<tensor::QScheme> want;
  try {
    want = assign_schemes(g, f.dtype, f.int8_formats);
  } catch (const std::exception& e) {
    out.add(VerifyDiag::kSchemeMismatch,
            "scheme recomputation failed: ", e.what());
    return;
  }
  if (f.schemes.size() != want.size()) {
    out.add(VerifyDiag::kSchemeMismatch, "plan records ", f.schemes.size(),
            " schemes for a ", want.size(), "-node graph");
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!(f.schemes[i] == want[i]))
      out.add(VerifyDiag::kSchemeMismatch, "node ", label(g, i),
              ": plan says ", scheme_string(f.schemes[i]),
              ", scheme assignment under ", tensor::dtype_name(f.dtype),
              " says ", scheme_string(want[i]));
}

// --- reachability -----------------------------------------------------------

void check_reachability(const PlanFacts& f, Findings& out) {
  const Graph& g = *f.graph;
  const std::size_t n = g.size();
  if (f.reach.size() != n) {
    out.add(VerifyDiag::kReachabilityStale, "plan records ", f.reach.size(),
            " reachability rows for a ", n, "-node graph");
    return;
  }
  // Exact transitive closure, recomputed the only correct way: descending
  // id order, so every consumer's row is complete before it is folded
  // into its inputs' rows.
  std::vector<std::vector<bool>> closure(n, std::vector<bool>(n, false));
  for (std::size_t k = n; k-- > 0;) {
    closure[k][k] = true;  // reflexive by contract
    for (const NodeId in : g.node(static_cast<NodeId>(k)).inputs) {
      const auto i = static_cast<std::size_t>(in);
      for (std::size_t j = 0; j < n; ++j)
        if (closure[k][j]) closure[i][j] = true;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (f.reach[i].size() != n) {
      out.add(VerifyDiag::kReachabilityStale, "reachability row of node ",
              label(g, i), " has ", f.reach[i].size(), " entries, expected ",
              n);
      continue;
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (closure[i][j] && !f.reach[i][j])
        out.add(VerifyDiag::kReachabilityStale, "stale bit: ", label(g, j),
                " is downstream of ", label(g, i),
                " but the plan's bitset says it is not — a fault there "
                "would be silently skipped by partial re-execution");
      else if (!closure[i][j] && f.reach[i][j])
        out.add(VerifyDiag::kReachabilityExcess, "excess bit: the plan says ",
                label(g, j), " is downstream of ", label(g, i),
                ", but no path exists");
    }
  }
}

// --- arena aliasing ---------------------------------------------------------

void check_arena(const PlanFacts& f, const std::vector<tensor::Shape>& shapes,
                 Findings& out) {
  if (f.memory_mode != MemoryMode::kArena) return;
  const Graph& g = *f.graph;
  const std::size_t n = g.size();
  const MemoryPlan& mp = f.memory;
  constexpr std::size_t kNoSlot = MemoryPlan::kNoSlot;

  if (mp.slot_of.size() != n || mp.release_after.size() != n) {
    out.add(VerifyDiag::kArenaSlotBounds, "memory plan covers ",
            mp.slot_of.size(), " slot entries / ", mp.release_after.size(),
            " release steps for a ", n, "-node graph");
    return;
  }

  // Recompute ground truth exactly as plan_memory does: lifetime
  // [i, last_use[i]] over the (identity) topological schedule, residency
  // for Inputs, Consts and the graph output.
  const NodeId output = g.output();
  std::vector<std::size_t> last_use(n, 0);
  std::vector<std::uint8_t> droppable(n, 1);
  for (const Node& node : g.nodes()) {
    const auto i = static_cast<std::size_t>(node.id);
    const ops::OpKind k = node.op->kind();
    if (k == ops::OpKind::kInput || k == ops::OpKind::kConst ||
        node.id == output)
      droppable[i] = 0;
    last_use[i] = i;
    for (const NodeId in : node.inputs)
      last_use[static_cast<std::size_t>(in)] =
          std::max(last_use[static_cast<std::size_t>(in)], i);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = mp.slot_of[i];
    if (!droppable[i]) {
      // Residents must never share arena bytes with anything: an aliased
      // Const would let a later activation overwrite weights, an aliased
      // Input/output would corrupt the values campaigns read back.
      if (slot != kNoSlot)
        out.add(VerifyDiag::kArenaResidentAliased, "retained resident ",
                label(g, i), " (",
                g.node(static_cast<NodeId>(i)).op->kind_name(),
                i == static_cast<std::size_t>(output) ? ", graph output" : "",
                ") is placed in aliased slot ", slot);
      continue;
    }
    if (slot == kNoSlot) {
      out.add(VerifyDiag::kArenaSlotBounds, "droppable activation ",
              label(g, i), " has no arena slot");
      continue;
    }
    if (slot >= mp.slot_bytes.size()) {
      out.add(VerifyDiag::kArenaSlotBounds, "node ", label(g, i),
              " is placed in slot ", slot, ", but only ",
              mp.slot_bytes.size(), " slots exist");
      continue;
    }
    const std::size_t need = shapes[i].elements() * sizeof(float);
    if (need > mp.slot_bytes[slot])
      out.add(VerifyDiag::kArenaSlotBounds, "node ", label(g, i), " needs ",
              need, " bytes but its slot ", slot, " holds only ",
              mp.slot_bytes[slot]);
  }

  // Aliasing soundness: slots are laid out back to back, so two
  // activations share bytes iff they share a slot — and then their
  // lifetimes must be disjoint.  For i < j (both droppable, same slot),
  // disjointness is exactly last_use[i] < j.
  for (std::size_t i = 0; i < n; ++i) {
    if (!droppable[i] || mp.slot_of[i] == kNoSlot) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!droppable[j] || mp.slot_of[j] != mp.slot_of[i]) continue;
      if (last_use[i] >= j)
        out.add(VerifyDiag::kArenaOverlap, "nodes ", label(g, i), " and ",
                label(g, j), " share slot ", mp.slot_of[i],
                " but their lifetimes overlap ([", i, ", ", last_use[i],
                "] vs [", j, ", ", last_use[j],
                "]) — executing the plan would overwrite a live activation");
    }
  }

  // Release schedule: after step i, exactly the droppable activations
  // whose last use was i must be freed.  Releasing early reads freed
  // memory later; releasing late silently defeats the aliasing the slot
  // assignment assumed.
  std::vector<std::vector<NodeId>> want(n);
  for (std::size_t i = 0; i < n; ++i)
    if (droppable[i]) want[last_use[i]].push_back(static_cast<NodeId>(i));
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<NodeId> got = mp.release_after[i];
    std::sort(got.begin(), got.end());
    if (got == want[i]) continue;
    std::ostringstream ws, gs;
    for (const NodeId d : want[i]) ws << ' ' << label(g, d);
    for (const NodeId d : got) gs << ' ' << label(g, d);
    out.add(VerifyDiag::kArenaReleaseBad, "after step ", label(g, i),
            " the plan releases {", gs.str(), " }, lifetimes say {", ws.str(),
            " }");
  }
}

}  // namespace

std::string_view verify_diag_token(VerifyDiag d) {
  switch (d) {
    case VerifyDiag::kScheduleOrder:
      return "schedule-order";
    case VerifyDiag::kShapeMismatch:
      return "shape-mismatch";
    case VerifyDiag::kSchemeMismatch:
      return "scheme-mismatch";
    case VerifyDiag::kReachabilityStale:
      return "reachability-stale";
    case VerifyDiag::kReachabilityExcess:
      return "reachability-excess";
    case VerifyDiag::kArenaOverlap:
      return "arena-overlap";
    case VerifyDiag::kArenaResidentAliased:
      return "arena-resident-aliased";
    case VerifyDiag::kArenaSlotBounds:
      return "arena-slot-bounds";
    case VerifyDiag::kArenaReleaseBad:
      return "arena-release-bad";
  }
  return "unknown";
}

std::string VerifyReport::to_string() const {
  std::ostringstream os;
  if (findings.empty())
    os << "plan verified: all invariants hold\n";
  else
    for (const VerifyFinding& f : findings)
      os << verify_diag_token(f.diag) << ": " << f.detail << "\n";
  os << (run_from_compatible
             ? "run_from: compatible\n"
             : "run_from: incompatible (arena memory mode drops the golden "
               "activations partial re-execution needs)\n");
  return os.str();
}

PlanFacts facts_of(const ExecutionPlan& plan) {
  PlanFacts f;
  f.graph = &plan.graph();
  f.dtype = plan.dtype();
  f.batch = plan.batch();
  f.int8_formats = plan.int8_formats();
  const std::size_t n = plan.size();
  // Plans execute in append order, which Graph guarantees topological —
  // the identity permutation is the plan's (implicit) schedule claim.
  f.schedule.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.schedule[i] = i;
  f.shapes = plan.shapes();
  f.schemes.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    f.schemes.push_back(plan.qscheme(static_cast<NodeId>(i)));
  f.reach.assign(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      f.reach[i][j] =
          plan.reaches(static_cast<NodeId>(i), static_cast<NodeId>(j));
  f.memory_mode = plan.memory_mode();
  f.memory = plan.memory_plan();
  return f;
}

VerifyReport verify_facts(const PlanFacts& f) {
  VerifyReport report;
  if (f.graph == nullptr) {
    report.findings.push_back(
        VerifyFinding{VerifyDiag::kScheduleOrder, "no graph to verify"});
    return report;
  }
  Findings out(report);
  report.run_from_compatible = f.memory_mode != MemoryMode::kArena;

  check_schedule(f, out);

  // Ground-truth shapes drive the shape check and the arena byte bounds;
  // if even recomputation fails the plan's graph is structurally
  // unshapeable and everything downstream would be noise.
  std::vector<tensor::Shape> want_shapes;
  try {
    want_shapes = infer_plan_shapes(*f.graph, f.batch);
  } catch (const std::exception& e) {
    out.add(VerifyDiag::kShapeMismatch,
            "shape recomputation failed: ", e.what());
    return report;
  }

  check_shapes(f, want_shapes, out);
  check_schemes(f, out);
  check_reachability(f, out);
  check_arena(f, want_shapes, out);
  return report;
}

VerifyReport verify_plan(const ExecutionPlan& plan) {
  return verify_facts(facts_of(plan));
}

}  // namespace rangerpp::graph
