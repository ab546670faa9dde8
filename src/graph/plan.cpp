#include "graph/plan.hpp"

#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "graph/passes.hpp"
#include "ops/basic_ops.hpp"
#include "util/timer.hpp"

namespace rangerpp::graph {

namespace {

void quantize_all(const tensor::QScheme& s, tensor::Tensor& t) {
  tensor::q_quantize_span(s, t.mutable_values());
}

// `shape` with its leading dimension replaced by `batch`.
tensor::Shape with_batch_dim(const tensor::Shape& shape, int batch) {
  switch (shape.rank()) {
    case 2:
      return tensor::Shape{batch, shape.dim(1)};
    case 4:
      return tensor::Shape{batch, shape.dim(1), shape.dim(2), shape.dim(3)};
    default:
      throw std::invalid_argument(
          "ExecutionPlan: batched input must be rank 2 or 4, got " +
          shape.to_string());
  }
}

bool batchable_input_shape(const tensor::Shape& s) {
  return (s.rank() == 2 || s.rank() == 4) && s.dim(0) == 1;
}

// Shape inference under a batch size: Input shapes get their leading
// dimension widened, Flatten keeps the batch axis, everything else runs
// its own infer_shape (all supported ops carry the leading dimension
// through).
std::vector<tensor::Shape> infer_batched_shapes(const Graph& g,
                                                std::size_t batch) {
  std::vector<tensor::Shape> shapes(g.size());
  std::vector<tensor::Shape> scratch;
  for (const Node& n : g.nodes()) {
    const auto i = static_cast<std::size_t>(n.id);
    switch (n.op->kind()) {
      case ops::OpKind::kInput: {
        const auto* input = static_cast<const ops::InputOp*>(n.op.get());
        if (!batchable_input_shape(input->shape()))
          throw std::invalid_argument(
              "ExecutionPlan: input '" + n.name +
              "' is not batchable: " + input->shape().to_string());
        shapes[i] = with_batch_dim(input->shape(), static_cast<int>(batch));
        break;
      }
      case ops::OpKind::kFlatten: {
        const tensor::Shape& s =
            shapes[static_cast<std::size_t>(n.inputs.at(0))];
        if (s.rank() < 2)
          throw std::invalid_argument(
              "ExecutionPlan: cannot batch Flatten of " + s.to_string());
        shapes[i] = tensor::Shape{
            s.dim(0), static_cast<int>(s.elements()) / s.dim(0)};
        break;
      }
      case ops::OpKind::kReshape:
        throw std::invalid_argument(
            "ExecutionPlan: Reshape targets are single-image; graph cannot "
            "be compiled with batch > 1");
      default: {
        scratch.clear();
        scratch.reserve(n.inputs.size());
        for (const NodeId in : n.inputs)
          scratch.push_back(shapes[static_cast<std::size_t>(in)]);
        shapes[i] = n.op->infer_shape(scratch);
        break;
      }
    }
  }
  return shapes;
}

}  // namespace

std::vector<tensor::Shape> infer_plan_shapes(const Graph& g,
                                             std::size_t batch) {
  return batch == 1 ? g.infer_shapes() : infer_batched_shapes(g, batch);
}

bool plan_supports_batch(const Graph& g) {
  for (const Node& n : g.nodes()) {
    if (n.op->kind() == ops::OpKind::kReshape) return false;
    if (n.op->kind() == ops::OpKind::kInput &&
        !batchable_input_shape(
            static_cast<const ops::InputOp*>(n.op.get())->shape()))
      return false;
  }
  return true;
}

ExecutionPlan::ExecutionPlan(Graph g, const CompileOptions& options,
                             CompileReport* report)
    : graph_(std::move(g)),
      dtype_(options.dtype),
      backend_(options.backend),
      batch_(options.batch),
      int8_formats_(options.int8_formats) {
  static std::atomic<std::uint64_t> next_serial{1};
  serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
  if (graph_.size() == 0)
    throw std::invalid_argument("ExecutionPlan: empty graph");
  lower(report);
}

void ExecutionPlan::lower(CompileReport* report) {
  const std::size_t n = graph_.size();
  const auto trace = [&](const char* name, const util::Timer& timer) {
    if (report)
      report->passes.push_back(PassTrace{name, timer.elapsed_ms(), n, n});
  };

  {
    util::Timer timer;
    shapes_ = infer_plan_shapes(graph_, batch_);
    trace("infer_shapes", timer);
  }

  {
    // Scheme rules live in graph/passes.cpp (assign_schemes), shared with
    // the fusion pass so baked stage schemes always match the plan's.
    util::Timer timer;
    schemes_ = assign_schemes(graph_, dtype_, int8_formats_);
    trace("assign_schemes", timer);
  }

  {
    util::Timer timer;
    is_input_.assign(n, 0);
    is_const_.assign(n, 0);
    consts_.assign(n, tensor::Tensor{});
    kernels_.assign(n, ops::CompiledKernel{});
    for (const Node& node : graph_.nodes()) {
      const auto i = static_cast<std::size_t>(node.id);
      switch (node.op->kind()) {
        case ops::OpKind::kInput:
          is_input_[i] = 1;
          break;
        case ops::OpKind::kConst:
          is_const_[i] = 1;
          consts_[i] = node.op->compute({});
          quantize_all(schemes_[i], consts_[i]);
          break;
        default:
          kernels_[i] =
              ops::select_kernel(*node.op, schemes_[i], backend_);
          break;
      }
    }
    trace("select_kernels", timer);
  }

  // Downstream reachability.  Nodes are in topological (append) order, so
  // walking ids downwards visits every consumer before its producers: when
  // node j is visited its row is final and can be ORed into each input's.
  {
    util::Timer timer;
    words_ = (n + 63) / 64;
    reach_.assign(n * words_, 0);
    for (std::size_t j = n; j-- > 0;) {
      std::uint64_t* rj = reach_.data() + j * words_;
      rj[j / 64] |= std::uint64_t{1} << (j % 64);
      for (const NodeId in : graph_.node(static_cast<NodeId>(j)).inputs) {
        std::uint64_t* ri =
            reach_.data() + static_cast<std::size_t>(in) * words_;
        for (std::size_t w = 0; w < words_; ++w) ri[w] |= rj[w];
      }
    }
    trace("reachability", timer);
  }
}

void ExecutionPlan::check_id(NodeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= size())
    throw std::out_of_range("ExecutionPlan: bad node id");
}

std::size_t ExecutionPlan::per_image_elements(NodeId id) const {
  check_id(id);
  const std::size_t elems = shapes_[static_cast<std::size_t>(id)].elements();
  return is_const_[static_cast<std::size_t>(id)] ? elems
                                                 : elems / batch_;
}

const ops::CompiledKernel& ExecutionPlan::kernel(NodeId id) const {
  check_id(id);
  return kernels_[static_cast<std::size_t>(id)];
}

const tensor::QScheme& ExecutionPlan::qscheme(NodeId id) const {
  check_id(id);
  return schemes_[static_cast<std::size_t>(id)];
}

std::span<const std::uint64_t> ExecutionPlan::row(NodeId id) const {
  check_id(id);
  return {reach_.data() + static_cast<std::size_t>(id) * words_, words_};
}

bool ExecutionPlan::reaches(NodeId from, NodeId to) const {
  const auto r = row(from);
  check_id(to);
  const auto t = static_cast<std::size_t>(to);
  return (r[t / 64] >> (t % 64)) & 1;
}

std::vector<NodeId> ExecutionPlan::downstream(NodeId from) const {
  const auto r = row(from);
  std::vector<NodeId> out;
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t bits = r[w];
    while (bits) {
      const int b = std::countr_zero(bits);
      out.push_back(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
      bits &= bits - 1;
    }
  }
  return out;
}

std::size_t ExecutionPlan::downstream_count(NodeId from) const {
  const auto r = row(from);
  std::size_t count = 0;
  for (const std::uint64_t w : r) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

const tensor::Tensor& ExecutionPlan::const_output(NodeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= size() ||
      !is_const_[static_cast<std::size_t>(id)])
    throw std::out_of_range("ExecutionPlan::const_output: not a Const node");
  return consts_[static_cast<std::size_t>(id)];
}

bool ExecutionPlan::is_input(NodeId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < size() &&
         is_input_[static_cast<std::size_t>(id)] != 0;
}

bool ExecutionPlan::is_const(NodeId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < size() &&
         is_const_[static_cast<std::size_t>(id)] != 0;
}

std::size_t ExecutionPlan::mark_dirty(std::span<const NodeId> roots,
                                      std::vector<bool>& dirty) const {
  const std::size_t n = size();
  dirty.assign(n, false);
  std::vector<std::span<const std::uint64_t>> rows;
  rows.reserve(roots.size());
  for (const NodeId root : roots) rows.push_back(row(root));  // validates
  std::size_t count = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t bits = 0;
    for (const auto& r : rows) bits |= r[w];
    while (bits) {
      const int b = std::countr_zero(bits);
      dirty[w * 64 + static_cast<std::size_t>(b)] = true;
      ++count;
      bits &= bits - 1;
    }
  }
  return count;
}

// --- Batch packing helpers ---------------------------------------------------

tensor::Tensor pack_batch(std::span<const tensor::Tensor> images) {
  if (images.empty())
    throw std::invalid_argument("pack_batch: no images");
  const tensor::Shape& s = images[0].shape();
  if (!((s.rank() == 2 || s.rank() == 4) && s.dim(0) == 1))
    throw std::invalid_argument("pack_batch: image shape " + s.to_string() +
                                " is not batchable");
  const std::size_t per = images[0].elements();
  tensor::Tensor batched(
      with_batch_dim(s, static_cast<int>(images.size())));
  const std::span<float> out = batched.mutable_values();
  for (std::size_t b = 0; b < images.size(); ++b) {
    if (images[b].shape() != s)
      throw std::invalid_argument("pack_batch: image shape mismatch");
    std::memcpy(out.data() + b * per, images[b].values().data(),
                per * sizeof(float));
  }
  return batched;
}

tensor::Tensor slice_batch(const tensor::Tensor& batched, std::size_t index,
                           std::size_t count, const tensor::Shape& single) {
  if (count == 0 || index >= count)
    throw std::invalid_argument("slice_batch: bad index/count");
  if (batched.elements() != count * single.elements())
    throw std::invalid_argument("slice_batch: element count mismatch");
  const std::size_t per = single.elements();
  tensor::Tensor out(single);
  std::memcpy(out.mutable_values().data(),
              batched.values().data() + index * per, per * sizeof(float));
  return out;
}

tensor::Tensor tile_batch(const tensor::Tensor& single, std::size_t count,
                          const tensor::Shape& batched_shape) {
  if (batched_shape.elements() != count * single.elements())
    throw std::invalid_argument("tile_batch: element count mismatch");
  tensor::Tensor out(batched_shape);
  const std::size_t per = single.elements();
  const std::span<float> ov = out.mutable_values();
  for (std::size_t b = 0; b < count; ++b)
    std::memcpy(ov.data() + b * per, single.values().data(),
                per * sizeof(float));
  return out;
}

void Arena::bind(const ExecutionPlan& plan) {
  if (plan_serial_ == plan.serial()) return;
  plan_serial_ = plan.serial();
  plan_ = &plan;
  outputs_.assign(plan.size(), tensor::Tensor{});
  feeds_.assign(plan.size(), FeedSlot{});
  input_scratch_.clear();
  dirty_.assign(plan.size(), false);
  roots_.assign(plan.size(), false);
  change_.assign(plan.size(), ChangeSet{});
  change_ptrs_.clear();
}

const std::vector<tensor::Tensor>& Arena::outputs() {
  for (std::size_t i = 0; i < change_.size(); ++i)
    if (change_[i].valued()) materialize(outputs_[i], change_[i]);
  return outputs_;
}

}  // namespace rangerpp::graph
