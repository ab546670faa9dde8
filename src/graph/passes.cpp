#include "graph/passes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "graph/verify.hpp"
#include "ops/basic_ops.hpp"
#include "ops/fused_op.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace rangerpp::graph {

// --- OpModel -----------------------------------------------------------------

OpModel OpModel::from_graph(const Graph& g) {
  OpModel m;
  m.nodes.reserve(g.size());
  for (const Node& n : g.nodes())
    m.nodes.push_back(MNode{n.name, n.op, n.inputs, n.injectable, false});
  m.output = g.size() == 0 ? kInvalidNode : g.output();
  return m;
}

Graph OpModel::to_graph() const {
  Graph g;
  std::vector<NodeId> remap(nodes.size(), kInvalidNode);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const MNode& n = nodes[i];
    if (n.erased) continue;
    std::vector<NodeId> inputs;
    inputs.reserve(n.inputs.size());
    for (const NodeId in : n.inputs) {
      const NodeId mapped = remap[static_cast<std::size_t>(in)];
      if (mapped == kInvalidNode)
        throw std::logic_error("OpModel::to_graph: node '" + n.name +
                               "' references an erased node");
      inputs.push_back(mapped);
    }
    remap[i] = g.add(n.name, n.op, std::move(inputs), n.injectable);
  }
  if (output != kInvalidNode) {
    const NodeId mapped = remap[static_cast<std::size_t>(output)];
    if (mapped == kInvalidNode)
      throw std::logic_error("OpModel::to_graph: output node was erased");
    g.set_output(mapped);
  }
  return g;
}

std::size_t OpModel::live_count() const {
  std::size_t n = 0;
  for (const MNode& node : nodes)
    if (!node.erased) ++n;
  return n;
}

std::size_t OpModel::use_count(NodeId id) const {
  std::size_t uses = 0;
  for (const MNode& node : nodes) {
    if (node.erased) continue;
    for (const NodeId in : node.inputs)
      if (in == id) ++uses;
  }
  return uses;
}

bool observable(const OpModel::MNode& n, Observe level) {
  const ops::OpKind k = n.op->kind();
  if (k == ops::OpKind::kInput || k == ops::OpKind::kConst) return false;
  switch (level) {
    case Observe::kAll:
      return true;
    case Observe::kInjectable:
      return n.injectable;
    case Observe::kNone:
      return false;
  }
  return true;
}

void PassContext::warn(std::string message) const {
  if (report) report->warnings.push_back(std::move(message));
}

// --- Scheme assignment -------------------------------------------------------

namespace {

// A Const's calibration bound is its own value range — the weights are
// right there, no profiling needed.  (Shared with plan lowering; this is
// the one definition.)
tensor::FixedPointFormat const_int8_format(const tensor::Tensor& t) {
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const float v : t.values()) {
    if (std::isnan(v)) continue;
    if (first || v < lo) lo = v;
    if (first || v > hi) hi = v;
    first = false;
  }
  return tensor::int8_format_for_range(lo, hi);
}

using FormatMap =
    std::unordered_map<std::string, tensor::FixedPointFormat>;

// One node's scheme under the assignment rules; `inherited` is the first
// input's (already final, the walk is topological).
tensor::QScheme scheme_for(const ops::Op& op, const std::string& name,
                           const tensor::QScheme* inherited,
                           tensor::DType dtype, const FormatMap& formats) {
  const bool int8 = dtype == tensor::DType::kInt8;
  tensor::QScheme scheme(dtype);
  switch (op.kind()) {
    case ops::OpKind::kInput:
      if (int8)
        if (const auto it = formats.find(name); it != formats.end())
          scheme = {dtype, it->second};
      break;
    case ops::OpKind::kConst:
      if (int8) scheme = {dtype, const_int8_format(op.compute({}))};
      break;
    case ops::OpKind::kFused:
      // The baked last-stage scheme — fusion must not change the scheme
      // the node's output is stored under, whatever the name-map says.
      scheme = static_cast<const ops::FusedOp&>(op).output_scheme();
      break;
    default:
      if (int8) {
        if (const auto it = formats.find(name); it != formats.end())
          scheme = {dtype, it->second};
        else if (inherited)
          scheme = *inherited;
      }
      break;
  }
  return scheme;
}

// Model-side twin of assign_schemes (same rules, tombstone-aware);
// erased nodes keep the canonical scheme and are never read because live
// nodes cannot reference them.
std::vector<tensor::QScheme> assign_model_schemes(const OpModel& m,
                                                  tensor::DType dtype,
                                                  const FormatMap& formats) {
  std::vector<tensor::QScheme> schemes(m.nodes.size(),
                                       tensor::QScheme(dtype));
  for (std::size_t i = 0; i < m.nodes.size(); ++i) {
    const OpModel::MNode& n = m.nodes[i];
    if (n.erased) continue;
    const tensor::QScheme* inherited =
        n.inputs.empty()
            ? nullptr
            : &schemes[static_cast<std::size_t>(n.inputs[0])];
    schemes[i] = scheme_for(*n.op, n.name, inherited, dtype, formats);
  }
  return schemes;
}

}  // namespace

std::vector<tensor::QScheme> assign_schemes(const Graph& g,
                                            tensor::DType dtype,
                                            const FormatMap& formats) {
  std::vector<tensor::QScheme> schemes(g.size(), tensor::QScheme(dtype));
  for (const Node& n : g.nodes()) {
    const auto i = static_cast<std::size_t>(n.id);
    const tensor::QScheme* inherited =
        n.inputs.empty()
            ? nullptr
            : &schemes[static_cast<std::size_t>(n.inputs[0])];
    schemes[i] = scheme_for(*n.op, n.name, inherited, dtype, formats);
  }
  return schemes;
}

// --- Built-in rewrite passes -------------------------------------------------

namespace {

class ValidatePass final : public Pass {
 public:
  std::string_view name() const override { return "validate"; }
  void run(OpModel& m, PassContext& ctx) const override {
    if (!ctx.options || ctx.options->int8_formats.empty()) return;
    for (const auto& [key, fmt] : ctx.options->int8_formats) {
      bool found = false;
      for (const OpModel::MNode& n : m.nodes)
        if (!n.erased && n.name == key) {
          found = true;
          break;
        }
      if (!found)
        ctx.warn("int8_formats key '" + key +
                 "' matches no node in the graph (calibration/model "
                 "mismatch?)");
    }
  }
};

class ConstFoldPass final : public Pass {
 public:
  std::string_view name() const override { return "const_fold"; }
  void run(OpModel& m, PassContext& ctx) const override {
    const tensor::DType dtype =
        ctx.options ? ctx.options->dtype : tensor::DType::kFixed32;
    // Under int8 a folded node would become a self-calibrating Const with
    // a different scheme than the original node's calibrated/inherited
    // one — not bit-identical.  Folding is a float/fixed32/fixed16
    // optimisation only.
    if (dtype == tensor::DType::kInt8) return;
    const Observe level =
        ctx.options ? ctx.options->observe : Observe::kAll;
    const tensor::QScheme scheme{dtype};

    bool changed = true;
    while (changed) {
      changed = false;
      for (OpModel::MNode& n : m.nodes) {
        if (n.erased || n.inputs.empty()) continue;
        const ops::OpKind k = n.op->kind();
        if (k == ops::OpKind::kInput || k == ops::OpKind::kConst) continue;
        if (observable(n, level)) continue;
        bool all_const = true;
        for (const NodeId in : n.inputs)
          if (m.nodes[static_cast<std::size_t>(in)].op->kind() !=
              ops::OpKind::kConst) {
            all_const = false;
            break;
          }
        if (!all_const) continue;
        // Replicate the executor exactly: inputs are the pre-quantized
        // Const outputs, the result is left raw — plan lowering
        // quantises the folded Const under the canonical scheme, which
        // is precisely the sweep the executor would have applied to the
        // original node's output.
        std::vector<tensor::Tensor> inputs;
        inputs.reserve(n.inputs.size());
        for (const NodeId in : n.inputs) {
          tensor::Tensor v =
              m.nodes[static_cast<std::size_t>(in)].op->compute({}).clone();
          if (dtype != tensor::DType::kFloat32)
            tensor::q_quantize_span(scheme, v.mutable_values());
          inputs.push_back(std::move(v));
        }
        tensor::Tensor value = n.op->compute(inputs);
        n.op = std::make_shared<ops::ConstOp>(std::move(value));
        n.inputs.clear();
        n.injectable = false;  // Graph::add would force this anyway
        changed = true;
      }
    }
  }
};

class DcePass final : public Pass {
 public:
  std::string_view name() const override { return "dce"; }
  void run(OpModel& m, PassContext& ctx) const override {
    const Observe level =
        ctx.options ? ctx.options->observe : Observe::kAll;
    // Keep set: the output, every observable node, every Input (they are
    // the model's signature), and the transitive inputs of all of those.
    std::vector<std::uint8_t> keep(m.nodes.size(), 0);
    std::vector<NodeId> worklist;
    const auto push = [&](NodeId id) {
      if (!keep[static_cast<std::size_t>(id)]) {
        keep[static_cast<std::size_t>(id)] = 1;
        worklist.push_back(id);
      }
    };
    if (m.output != kInvalidNode) push(m.output);
    for (std::size_t i = 0; i < m.nodes.size(); ++i) {
      const OpModel::MNode& n = m.nodes[i];
      if (n.erased) continue;
      if (n.op->kind() == ops::OpKind::kInput ||
          observable(n, level))
        push(static_cast<NodeId>(i));
    }
    while (!worklist.empty()) {
      const NodeId id = worklist.back();
      worklist.pop_back();
      for (const NodeId in : m.nodes[static_cast<std::size_t>(id)].inputs)
        push(in);
    }
    for (std::size_t i = 0; i < m.nodes.size(); ++i)
      if (!m.nodes[i].erased && !keep[i]) m.nodes[i].erased = true;
  }
};

// Operators a chain may *end* with at each fused step: elementwise,
// shape-preserving w.r.t. their first input, and free of the batched-plan
// special cases (Input/Flatten/Reshape stay visible to shape inference).
// BiasAdd/BatchNorm ride along with their parameters as extra fused
// inputs.
bool fusable_consumer(ops::OpKind k) {
  switch (k) {
    case ops::OpKind::kRelu:
    case ops::OpKind::kRelu6:
    case ops::OpKind::kTanh:
    case ops::OpKind::kSigmoid:
    case ops::OpKind::kElu:
    case ops::OpKind::kAtan:
    case ops::OpKind::kScale:
    case ops::OpKind::kClamp:  // incl. the restriction-policy variants
    case ops::OpKind::kBatchNorm:
    case ops::OpKind::kBiasAdd:
      return true;
    default:
      return false;
  }
}

// Operators a chain may start from (or continue through, for kFused).
bool fusable_producer(ops::OpKind k) {
  switch (k) {
    case ops::OpKind::kConv2D:
    case ops::OpKind::kMatMul:
    case ops::OpKind::kFused:
      return true;
    default:
      return fusable_consumer(k);
  }
}

class FusionPass final : public Pass {
 public:
  std::string_view name() const override { return "fuse"; }
  void run(OpModel& m, PassContext& ctx) const override {
    const tensor::DType dtype =
        ctx.options ? ctx.options->dtype : tensor::DType::kFixed32;
    const Observe level =
        ctx.options ? ctx.options->observe : Observe::kAll;
    const FormatMap empty;
    const FormatMap& formats =
        ctx.options ? ctx.options->int8_formats : empty;
    // Schemes of the *current* (pre-fusion) model; stable across rewrites
    // because a fused node keeps its last stage's output scheme and no
    // other node's scheme depends on erased producers.
    std::vector<tensor::QScheme> sch =
        assign_model_schemes(m, dtype, formats);

    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t bi = 0; bi < m.nodes.size(); ++bi) {
        OpModel::MNode& b = m.nodes[bi];
        if (b.erased || b.inputs.empty()) continue;
        if (!fusable_consumer(b.op->kind())) continue;
        const NodeId ai = b.inputs[0];
        OpModel::MNode& a = m.nodes[static_cast<std::size_t>(ai)];
        if (!fusable_producer(a.op->kind())) continue;
        if (observable(a, level)) continue;
        if (m.output == ai) continue;
        if (m.use_count(ai) != 1) continue;
        // (use_count == 1 also rules out b consuming a twice.)

        std::vector<ops::FusedOp::Stage> stages;
        if (a.op->kind() == ops::OpKind::kFused) {
          stages = static_cast<const ops::FusedOp&>(*a.op).stages();
        } else {
          stages.push_back(ops::FusedOp::Stage{
              a.op, a.name, sch[static_cast<std::size_t>(ai)],
              a.inputs.size()});
        }
        stages.push_back(ops::FusedOp::Stage{
            b.op, b.name, sch[bi], b.inputs.size() - 1});

        // The fused node takes the consumer's slot: its name, its
        // injectable flag, its consumers — only the producer disappears.
        std::vector<NodeId> inputs = a.inputs;
        inputs.insert(inputs.end(), b.inputs.begin() + 1, b.inputs.end());
        b.op = std::make_shared<ops::FusedOp>(std::move(stages));
        b.inputs = std::move(inputs);
        a.erased = true;
        changed = true;
      }
    }
  }
};

}  // namespace

PassPtr validate_pass() { return std::make_shared<ValidatePass>(); }
PassPtr const_fold_pass() { return std::make_shared<ConstFoldPass>(); }
PassPtr dce_pass() { return std::make_shared<DcePass>(); }
PassPtr fusion_pass() { return std::make_shared<FusionPass>(); }

// --- PassManager -------------------------------------------------------------

PassManager PassManager::standard(const CompileOptions& options) {
  PassManager pm;
  pm.add(validate_pass());
  pm.add(const_fold_pass());
  pm.add(dce_pass());
  pm.add(fusion_pass());
  for (const PassPtr& p : options.extra_passes) pm.add(p);
  return pm;
}

void PassManager::add(PassPtr pass) {
  if (!pass) throw std::invalid_argument("PassManager::add: null pass");
  passes_.push_back(std::move(pass));
}

Graph PassManager::run(Graph g, const CompileOptions& options,
                       CompileReport& report) const {
  OpModel m = OpModel::from_graph(g);
  PassContext ctx{&options, &report};
  for (const PassPtr& pass : passes_) {
    util::trace::Span span("compile." + std::string(pass->name()));
    util::Timer timer;
    const std::size_t before = m.live_count();
    pass->run(m, ctx);
    span.arg("nodes_before", before);
    span.arg("nodes_after", m.live_count());
    report.passes.push_back(PassTrace{std::string(pass->name()),
                                      timer.elapsed_ms(), before,
                                      m.live_count()});
  }
  return m.to_graph();
}

// --- Report formatting -------------------------------------------------------

std::string CompileReport::to_string() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-16s %9s %8s %s\n", "pass", "ms",
                "nodes", "");
  out += line;
  for (const PassTrace& t : passes) {
    if (t.nodes_before == t.nodes_after)
      std::snprintf(line, sizeof(line), "%-16s %9.3f %8zu\n",
                    t.name.c_str(), t.ms, t.nodes_after);
    else
      std::snprintf(line, sizeof(line), "%-16s %9.3f %8zu -> %zu\n",
                    t.name.c_str(), t.ms, t.nodes_before, t.nodes_after);
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

namespace {

// Pre-rewrite observability snapshot: every op node a hook may fire at
// under `observe`, plus every Const feeding an injectable node (the
// weight-fault targets).  Taken from the input graph before any pass
// runs, so the verifier's survival check is against ground truth no
// rewrite has touched.
std::vector<ObservableFact> snapshot_observables(const Graph& g,
                                                 Observe observe) {
  std::vector<ObservableFact> facts;
  if (observe == Observe::kNone) return facts;
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  std::vector<std::uint8_t> feeds_injectable(g.size(), 0);
  for (const Node& n : g.nodes()) {
    const ops::OpKind k = n.op->kind();
    if (k == ops::OpKind::kInput || k == ops::OpKind::kConst) continue;
    if (n.injectable)
      for (const NodeId in : n.inputs)
        feeds_injectable[static_cast<std::size_t>(in)] = 1;
    if (observe == Observe::kAll || n.injectable)
      facts.push_back(ObservableFact{n.name, n.injectable, false, 0});
  }
  for (const Node& n : g.nodes())
    if (n.op->kind() == ops::OpKind::kConst &&
        feeds_injectable[static_cast<std::size_t>(n.id)])
      facts.push_back(ObservableFact{
          n.name, false, true,
          shapes[static_cast<std::size_t>(n.id)].elements()});
  return facts;
}

}  // namespace

ExecutionPlan compile(Graph g, const CompileOptions& options) {
  if (g.size() == 0)
    throw std::invalid_argument("graph::compile: empty graph");
  if (options.batch == 0)
    throw std::invalid_argument("graph::compile: batch == 0");
  auto report = std::make_shared<CompileReport>();
  util::Timer total;
  report->observables = snapshot_observables(g, options.observe);

  const PassManager pm = PassManager::standard(options);
  Graph lowered = pm.run(std::move(g), options, *report);

  ExecutionPlan plan(std::move(lowered), options, report.get());

  {
    util::trace::Span span("compile.memory_plan");
    util::Timer timer;
    MemoryPlan mp = plan_memory(plan.graph(), plan.shapes());
    util::metrics::gauge_max("arena.peak_bytes", mp.peak_arena_bytes);
    report->peak_arena_bytes = mp.peak_arena_bytes;
    report->unplanned_bytes = mp.unplanned_bytes;
    const std::size_t n = plan.size();
    report->passes.push_back(
        PassTrace{"memory_plan", timer.elapsed_ms(), n, n});
    if (options.memory == MemoryMode::kArena) {
      plan.memory_plan_ = std::move(mp);
      plan.memory_mode_ = MemoryMode::kArena;
    }
  }

  // The plan needs its report attached before the verifier runs (the
  // observability check reads report()->observables); `report` stays a
  // mutable handle to the same object for the trace/total below.
  plan.report_ = report;

  if (options.verify) {
    // Terminal verification stage: prove the compiled plan's invariants
    // (graph/verify.hpp) before anything can execute it.  A violation
    // is a compiler bug or a corrupted pipeline, never a user error —
    // hence logic_error.
    util::trace::Span span("compile.verify_plan");
    util::Timer timer;
    const VerifyReport vr = verify_plan(plan);
    const std::size_t n = plan.size();
    report->passes.push_back(
        PassTrace{"verify_plan", timer.elapsed_ms(), n, n});
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
