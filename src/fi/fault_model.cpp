#include "fi/fault_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace rangerpp::fi {

SiteSpace::SiteSpace(const graph::Graph& g, tensor::DType dtype)
    : dtype_bits_(tensor::dtype_bits(dtype)) {
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  for (const graph::Node& n : g.nodes()) {
    if (!n.injectable) continue;
    const std::size_t elems =
        shapes[static_cast<std::size_t>(n.id)].elements();
    if (elems == 0) continue;
    total_ += elems;
    nodes_.push_back(Entry{n.name, elems, total_});
  }
  if (total_ == 0)
    throw std::invalid_argument("SiteSpace: graph has no injectable sites");
}

FaultSet SiteSpace::sample(util::Rng& rng, int n_bits) const {
  if (n_bits < 1) throw std::invalid_argument("SiteSpace::sample: n_bits");
  FaultSet faults;
  faults.reserve(static_cast<std::size_t>(n_bits));
  for (int i = 0; i < n_bits; ++i) {
    const std::size_t pick = rng.uniform_index(total_);
    // Binary search the cumulative ranges.
    const auto it = std::lower_bound(
        nodes_.begin(), nodes_.end(), pick,
        [](const Entry& e, std::size_t v) { return e.cumulative <= v; });
    const Entry& e = *it;
    const std::size_t offset = pick - (e.cumulative - e.elements);
    faults.push_back(FaultPoint{
        e.name, offset,
        static_cast<int>(rng.uniform_index(
            static_cast<std::uint64_t>(dtype_bits_)))});
  }
  return faults;
}

FaultSet SiteSpace::sample_consecutive(util::Rng& rng, int n_bits) const {
  if (n_bits < 1 || n_bits > dtype_bits_)
    throw std::invalid_argument("SiteSpace::sample_consecutive: n_bits");
  // One value, a run of adjacent bits.
  FaultSet one = sample(rng, 1);
  const int start = static_cast<int>(rng.uniform_index(
      static_cast<std::uint64_t>(dtype_bits_ - n_bits + 1)));
  FaultSet faults;
  faults.reserve(static_cast<std::size_t>(n_bits));
  for (int i = 0; i < n_bits; ++i)
    faults.push_back(
        FaultPoint{one[0].node_name, one[0].element, start + i});
  return faults;
}

std::size_t SiteSpace::elements_of(const std::string& node_name) const {
  for (const Entry& e : nodes_)
    if (e.name == node_name) return e.elements;
  return 0;
}

std::size_t SiteSpace::site_index(const std::string& node_name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].name == node_name) return i;
  return SIZE_MAX;
}

std::vector<graph::Injection> make_injections(
    const graph::ExecutionPlan& plan, std::span<const FaultSet> row_faults) {
  std::vector<graph::Injection> out;
  const graph::Graph& g = plan.graph();
  for (std::size_t b = 0; b < row_faults.size(); ++b) {
    for (const FaultPoint& f : row_faults[b]) {
      const graph::NodeId id = g.find(f.node_name);
      if (id == graph::kInvalidNode) continue;
      const std::size_t per = plan.per_image_elements(id);
      if (f.element >= per) continue;  // cross-graph tolerance
      out.push_back({id, b * per + f.element, f.bit, f.action});
    }
  }
  return out;
}

std::vector<graph::Injection> make_injections(
    const graph::ExecutionPlan& plan, const FaultSet& faults) {
  return make_injections(plan, std::span<const FaultSet>(&faults, 1));
}

graph::PostOpHook make_injection_hook(const graph::Graph& g,
                                      tensor::DType dtype,
                                      const FaultSet& faults) {
  std::vector<graph::Injection> injections;
  for (const FaultPoint& f : faults) {
    const graph::NodeId id = g.find(f.node_name);
    if (id != graph::kInvalidNode)
      injections.push_back({id, f.element, f.bit, f.action});
  }
  return [injections = std::move(injections), scheme = tensor::QScheme(dtype)](
             const graph::Node& node, tensor::Tensor& out) {
    graph::inject(injections, node.id, scheme, out);
  };
}

}  // namespace rangerpp::fi
