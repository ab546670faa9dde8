#include "graph/executor.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "ops/backend.hpp"
#include "ops/cpu_features.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rangerpp::graph {

namespace {

void quantize_tensor(const tensor::QScheme& s, tensor::Tensor& t) {
  if (s.dtype == tensor::DType::kFloat32) return;
  tensor::q_quantize_span(s, t.mutable_values());
}

// Runs a node's compiled kernel (or its scalar compute + quantisation
// fallback) and coerces the result onto the plan's shape — Flatten under a
// batched plan computes a rank-1 tensor that the plan knows as [B, k]; the
// reshape is a view, not a copy.
tensor::Tensor compute_node(const ExecutionPlan& plan, const Node& n,
                            std::span<const tensor::Tensor> inputs) {
  const ops::CompiledKernel& kern = plan.kernel(n.id);
  tensor::Tensor value = kern.fn ? kern.fn(inputs) : n.op->compute(inputs);
  if (!kern.fused_quantize) quantize_tensor(plan.qscheme(n.id), value);
  const tensor::Shape& planned =
      plan.shapes()[static_cast<std::size_t>(n.id)];
  if (value.shape() != planned) value = value.reshaped(planned);
  return value;
}

// Bitwise diff of a freshly computed tensor against its golden value:
// fills `ch` with the differing element indices, degrading to a dense
// marker once more than half the elements changed (past that point
// element-level tracking stops paying for itself downstream).  A value
// still sharing golden's storage is clean without a look, and equal
// 64-float blocks are skipped with one memcmp each — a byte compare, so
// "changed" keeps the per-element test's bitwise, NaN-safe meaning.
void diff_against_golden(const tensor::Tensor& value,
                         const tensor::Tensor& golden, ChangeSet& ch) {
  const auto va = value.values();
  const auto vg = golden.values();
  if (va.data() == vg.data()) return;
  constexpr std::size_t kBlock = 64;
  const std::size_t cap = va.size() / 2;
  for (std::size_t lo = 0; lo < va.size(); lo += kBlock) {
    const std::size_t hi = std::min(va.size(), lo + kBlock);
    if (std::memcmp(va.data() + lo, vg.data() + lo,
                    (hi - lo) * sizeof(float)) == 0)
      continue;
    for (std::size_t i = lo; i < hi; ++i) {
      if (std::bit_cast<std::uint32_t>(va[i]) ==
          std::bit_cast<std::uint32_t>(vg[i]))
        continue;
      if (ch.idx.size() >= cap) {
        ch.mark_dense();
        return;
      }
      ch.idx.push_back(i);
    }
  }
}

// Applies a root's injections to its change set on the sparse tier (the
// node's output is still golden): each reads the element's current value
// — changed, else golden — applies its bit action and keeps the result in
// index order; an element a later action restored to golden (two flips
// of one bit, a stuck-at matching the stored bit) leaves the set.  No
// tensor is touched.
void inject_sparse(std::span<const Injection> injections, NodeId node,
                   const tensor::QScheme& scheme, const tensor::Tensor& golden,
                   ChangeSet& ch) {
  const std::span<const float> gv = golden.values();
  for (const Injection& x : injections) {
    if (x.node != node) continue;
    const auto it = std::lower_bound(ch.idx.begin(), ch.idx.end(), x.element);
    const auto j = it - ch.idx.begin();
    if (it == ch.idx.end() || *it != x.element) {
      ch.idx.insert(it, x.element);
      ch.val.insert(ch.val.begin() + j, gv[x.element]);
    }
    float& v = ch.val[static_cast<std::size_t>(j)];
    v = tensor::q_apply_bit(scheme, v, x.bit, x.action);
  }
  std::size_t kept = 0;
  for (std::size_t j = 0; j < ch.idx.size(); ++j) {
    if (std::bit_cast<std::uint32_t>(ch.val[j]) ==
        std::bit_cast<std::uint32_t>(gv[ch.idx[j]]))
      continue;
    ch.idx[kept] = ch.idx[j];
    ch.val[kept++] = ch.val[j];
  }
  ch.idx.resize(kept);
  ch.val.resize(kept);
}

}  // namespace

void inject(std::span<const Injection> injections, NodeId node,
            const tensor::QScheme& scheme, tensor::Tensor& value) {
  for (const Injection& x : injections)
    if (x.node == node && x.element < value.elements())
      value.set(x.element, tensor::q_apply_bit(scheme, value.at(x.element),
                                               x.bit, x.action));
}

tensor::Tensor Executor::execute(
    const ExecutionPlan& plan,
    const std::unordered_map<std::string, tensor::Tensor>& feeds,
    Arena& arena, const PostOpHook& hook,
    const std::vector<tensor::Tensor>* golden,
    std::span<const Injection> injections) const {
  arena.bind(plan);
  const Graph& g = plan.graph();
  std::vector<tensor::Tensor>& out = arena.outputs_;

  const bool partial = golden != nullptr;
  if (partial && plan.memory_mode() == MemoryMode::kArena)
    throw std::invalid_argument(
        "Executor::run_from: plan was compiled with MemoryMode::kArena, "
        "which drops the activations partial re-execution reuses; compile "
        "with MemoryMode::kRetainAll");
  // outputs() materialises whatever change sets a run leaves valued.
  for (ChangeSet& c : arena.change_) c.reset();
  // Either run refuses an injection it could not apply (a bad node id
  // throws from at()), so a fault never goes missing silently.
  for (const Injection& x : injections)
    if (x.element >= plan.shapes().at(static_cast<std::size_t>(x.node))
                         .elements())
      throw std::out_of_range(
          std::string(partial ? "Executor::run_from" : "Executor::run") +
          ": injection element past the output of '" + g.node(x.node).name +
          "'");
  if (partial) {
    if (golden->size() != plan.size())
      throw std::invalid_argument(
          "Executor::run_from: golden activations do not match plan");
    // The injected nodes, op and Const alike, are the roots.
    std::vector<NodeId>& roots = arena.root_ids_;
    roots.clear();
    for (const Injection& x : injections) roots.push_back(x.node);
    plan.mark_dirty(roots, arena.dirty_);
    std::fill(arena.roots_.begin(), arena.roots_.end(), false);
    for (const NodeId r : roots)
      arena.roots_[static_cast<std::size_t>(r)] = true;
  }
  // The element-sparse incremental kernels mirror the *scalar*
  // accumulation order.  Under an AVX2 simd plan the dense GEMM
  // reassociates, so the sparse tier would diverge from the full run —
  // disable it and let cone nodes recompute densely with the plan's own
  // kernels, which keeps partial == full bit-identical under every
  // backend.  (Without AVX2 the simd kernels delegate to blocked, whose
  // element order is scalar's, so the sparse tier stays exact.)
  const bool element_sparse =
      plan.backend() != ops::KernelBackend::kSimd ||
      ops::simd_level() != ops::SimdLevel::kAvx2;

  // Telemetry accumulates locally (one increment per node) and flushes a
  // handful of counter_adds after the node walk — the registry mutex is
  // never touched inside the hot loop, and nothing below branches on any
  // of these values (pure-observer contract).
  util::trace::Span span(partial ? "exec.run_from" : "exec.run");
  // Dense dispatches split by what ran: the plan backend's compiled
  // kernel, or (no kernel) the op's own scalar compute.
  std::size_t t_kernels = 0, t_fallbacks = 0;
  std::size_t t_pruned = 0, t_sparse = 0, t_elements = 0;
  std::size_t t_materialized = 0;
  std::size_t t_feed_hits = 0, t_feed_builds = 0;

  for (const Node& n : g.nodes()) {
    const auto i = static_cast<std::size_t>(n.id);
    if (partial) {
      // Three tiers of pruning, each falling back to the next:
      //  1. static — outside the roots' downstream cones the golden value
      //     is reused outright;
      //  2. dynamic node-level — inside the cone, a node none of whose
      //     inputs actually changed collapses back to golden (the fault
      //     was masked upstream by a ReLU, pool or clamp);
      //  3. element-sparse — a node whose inputs changed in few elements
      //     recomputes only the affected output patch (incremental.hpp),
      //     bit-identically mirroring the dense kernels, and keeps golden
      //     plus a valued change set.  Injection roots take this tier
      //     too: their injections act on the change set.  An injected
      //     Const has no inputs, so it always does.
      const bool is_root = arena.roots_[i];
      bool inputs_changed = false;
      if (arena.dirty_[i])
        for (const NodeId in : n.inputs)
          if (!arena.change_[static_cast<std::size_t>(in)].clean()) {
            inputs_changed = true;
            break;
          }
      if (!arena.dirty_[i] || (!is_root && !inputs_changed) ||
          plan.is_input(n.id)) {
        // Feeds are fixed for the lifetime of a golden snapshot, so even
        // a root naming an Input node reproduces the golden value.
        out[i] = (*golden)[i];
        ++t_pruned;
        continue;
      }
      ChangeSet& ch = arena.change_[i];
      const tensor::Tensor& gold = (*golden)[i];
      const tensor::QScheme& scheme = plan.qscheme(n.id);
      auto& scratch = arena.input_scratch_;
      // A root whose inputs are golden recomputes to golden bit-for-bit:
      // its injections alone make its change set.
      bool sparse = !inputs_changed;
      if (inputs_changed) {
        scratch.clear();
        auto& in_changes = arena.change_ptrs_;
        in_changes.clear();
        for (const NodeId in : n.inputs) {
          scratch.push_back(out[static_cast<std::size_t>(in)]);
          in_changes.push_back(&arena.change_[static_cast<std::size_t>(in)]);
        }
        sparse = element_sparse &&
                 incremental_recompute(*n.op, scheme, scratch, in_changes,
                                       gold, ch);
        if (sparse) {
          ++t_sparse;
          t_elements += ch.idx.size();
        }
      }
      if (sparse) {
        out[i] = gold;
        if (is_root) inject_sparse(injections, n.id, scheme, gold, ch);
        // Past the tier thresholds (a root keeps the dense diff's cap) the
        // change tracks as dense, and dense needs the full tensor.
        const std::size_t elems = gold.elements();
        if (is_root ? ch.idx.size() > elems / 2
                    : 2 * ch.idx.size() >= elems) {
          t_materialized += materialize(out[i], ch);
          ch.mark_dense();
        }
        continue;
      }
      // Dense recompute: valued inputs become full tensors first.
      for (std::size_t k = 0; k < n.inputs.size(); ++k) {
        const auto in = static_cast<std::size_t>(n.inputs[k]);
        if (arena.change_[in].valued())
          t_materialized += materialize(out[in], arena.change_[in]);
        scratch[k] = out[in];
      }
      tensor::Tensor value = compute_node(plan, n, scratch);
      ++(plan.kernel(n.id).fn ? t_kernels : t_fallbacks);
      if (is_root) inject(injections, n.id, scheme, value);
      diff_against_golden(value, gold, ch);
      out[i] = ch.clean() ? gold : std::move(value);
      continue;
    }
    if (plan.is_input(n.id)) {
      // The quantised feed is cached keyed by the feed's storage identity:
      // a campaign re-runs the same input tensor thousands of times, and
      // re-quantising it each trial is pure overhead.
      const auto it = feeds.find(n.name);
      if (it == feeds.end())
        throw std::invalid_argument("Executor: missing feed for input '" +
                                    n.name + "'");
      // Feeds are validated against the *plan's* shape, which is the
      // InputOp shape widened to the plan's batch size.
      if (it->second.shape() != plan.shapes()[i])
        throw std::invalid_argument("Executor: feed shape mismatch for '" +
                                    n.name + "' (want " +
                                    plan.shapes()[i].to_string() + ", got " +
                                    it->second.shape().to_string() + ")");
      Arena::FeedSlot& slot = arena.feeds_[i];
      auto key = it->second.storage();
      if (slot.key == key) {
        ++t_feed_hits;
      } else {
        ++t_feed_builds;
        slot.key = std::move(key);
        if (plan.dtype() == tensor::DType::kFloat32) {
          slot.quantized = it->second;  // shares storage, no copy
        } else {
          slot.quantized = it->second.clone();
          quantize_tensor(plan.qscheme(n.id), slot.quantized);
        }
      }
      out[i] = slot.quantized;
    } else if (plan.is_const(n.id)) {
      out[i] = plan.const_output(n.id);  // pre-quantized at compile time
      inject(injections, n.id, plan.qscheme(n.id), out[i]);
    } else {
      auto& scratch = arena.input_scratch_;
      scratch.clear();
      scratch.reserve(n.inputs.size());
      for (const NodeId in : n.inputs)
        scratch.push_back(out[static_cast<std::size_t>(in)]);
      tensor::Tensor value = compute_node(plan, n, scratch);
      ++(plan.kernel(n.id).fn ? t_kernels : t_fallbacks);
      if (hook) hook(n, value);
      inject(injections, n.id, plan.qscheme(n.id), value);
      out[i] = std::move(value);
    }
    // Arena-planned full runs drop each activation right after its last
    // consumer (the lifetime schedule from plan_memory); partial runs
    // never reach here, and the graph output/Inputs/Consts are never in
    // release_after.
    if (plan.memory_mode() == MemoryMode::kArena)
      for (const NodeId dead : plan.memory_plan().release_after[i])
        out[static_cast<std::size_t>(dead)] = tensor::Tensor{};
  }

  // The returned output is always a full tensor.
  const auto o = static_cast<std::size_t>(g.output());
  if (partial && arena.change_[o].valued())
    t_materialized += materialize(out[o], arena.change_[o]);

  span.arg("kernels", t_kernels + t_fallbacks);
  if (partial) {
    span.arg("nodes_pruned", t_pruned);
    span.arg("elements_touched", t_elements);
  }
  if (util::metrics::enabled()) {
    namespace m = util::metrics;
    m::counter_add(partial ? "exec.partial_runs" : "exec.full_runs");
    if (t_kernels)
      m::counter_add(
          "kernel." + std::string(ops::backend_name(plan.backend())),
          t_kernels);
    if (t_fallbacks) m::counter_add("kernel.scalar", t_fallbacks);
    if (t_pruned) m::counter_add("exec.nodes_pruned", t_pruned);
    if (t_sparse) m::counter_add("exec.sparse_nodes", t_sparse);
    if (t_elements) m::counter_add("exec.elements_touched", t_elements);
    if (t_materialized)
      m::counter_add("exec.materialized_elements", t_materialized);
    if (t_feed_hits) m::counter_add("cache.feed.hit", t_feed_hits);
    if (t_feed_builds) m::counter_add("cache.feed.build", t_feed_builds);
  }
  return out[o];
}

tensor::Tensor Executor::run(
    const ExecutionPlan& plan,
    const std::unordered_map<std::string, tensor::Tensor>& feeds,
    Arena& arena, const PostOpHook& hook) const {
  return execute(plan, feeds, arena, hook, nullptr, {});
}

tensor::Tensor Executor::run(
    const ExecutionPlan& plan,
    const std::unordered_map<std::string, tensor::Tensor>& feeds,
    Arena& arena, std::span<const Injection> injections) const {
  return execute(plan, feeds, arena, nullptr, nullptr, injections);
}

tensor::Tensor Executor::run_from(const ExecutionPlan& plan,
                                  const std::vector<tensor::Tensor>& golden,
                                  std::span<const Injection> injections,
                                  Arena& arena) const {
  return execute(plan, {}, arena, nullptr, &golden, injections);
}

int argmax(const tensor::Tensor& t) {
  const auto v = t.values();
  if (v.empty()) throw std::invalid_argument("argmax: empty tensor");
  return static_cast<int>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

std::vector<int> top_k(const tensor::Tensor& t, int k) {
  const auto v = t.values();
  std::vector<int> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  const int kk = std::min<int>(k, static_cast<int>(idx.size()));
  std::partial_sort(idx.begin(), idx.begin() + kk, idx.end(),
                    [&](int a, int b) { return v[a] > v[b]; });
  idx.resize(static_cast<std::size_t>(kk));
  return idx;
}

}  // namespace rangerpp::graph
