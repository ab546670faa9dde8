#include "fi/weight_fault.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/parse.hpp"

namespace rangerpp::fi {

std::string_view fault_class_token(FaultClass c) {
  switch (c) {
    case FaultClass::kActivation: return "activation";
    case FaultClass::kWeight: return "weight";
  }
  return "?";
}

std::optional<FaultClass> fault_class_from_token(std::string_view s) {
  if (s == "activation") return FaultClass::kActivation;
  if (s == "weight") return FaultClass::kWeight;
  return std::nullopt;
}

std::string_view weight_fault_kind_token(WeightFaultKind k) {
  switch (k) {
    case WeightFaultKind::kSingleBit: return "single";
    case WeightFaultKind::kMultiBit: return "multi";
    case WeightFaultKind::kConsecutiveBurst: return "burst";
    case WeightFaultKind::kStuckAt0: return "stuck0";
    case WeightFaultKind::kStuckAt1: return "stuck1";
    case WeightFaultKind::kRowBurst: return "row";
  }
  return "?";
}

std::optional<WeightFaultKind> weight_fault_kind_from_token(
    std::string_view s) {
  if (s == "single") return WeightFaultKind::kSingleBit;
  if (s == "multi") return WeightFaultKind::kMultiBit;
  if (s == "burst") return WeightFaultKind::kConsecutiveBurst;
  if (s == "stuck0") return WeightFaultKind::kStuckAt0;
  if (s == "stuck1") return WeightFaultKind::kStuckAt1;
  if (s == "row") return WeightFaultKind::kRowBurst;
  return std::nullopt;
}

std::string ecc_token(const EccModel& ecc) {
  switch (ecc.kind) {
    case EccKind::kNone: return "none";
    case EccKind::kSecDed: return "secded";
    case EccKind::kCoverage: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "cov%.9g", ecc.coverage);
      return buf;
    }
  }
  return "?";
}

std::optional<EccModel> ecc_from_token(std::string_view s) {
  if (s == "none") return EccModel{};
  if (s == "secded") return EccModel{EccKind::kSecDed, 0.0};
  if (s.starts_with("cov")) {
    double p = 0.0;
    if (!util::parse_f64(std::string(s.substr(3)).c_str(), p) || p < 0.0 ||
        p > 1.0)
      return std::nullopt;
    return EccModel{EccKind::kCoverage, p};
  }
  return std::nullopt;
}

FaultSet apply_ecc(const FaultSet& faults, const EccModel& ecc,
                   util::Rng& rng) {
  if (ecc.kind == EccKind::kNone) return faults;
  // Words in first-occurrence order, so the per-word coverage draws are a
  // deterministic function of the sampled set.
  struct Word {
    const FaultPoint* first;
    std::size_t count = 0;
    bool keep = true;
  };
  std::vector<Word> words;
  const auto word_of = [&words](const FaultPoint& f) -> Word& {
    for (Word& w : words)
      if (w.first->node_name == f.node_name && w.first->element == f.element)
        return w;
    words.push_back(Word{&f, 0, true});
    return words.back();
  };
  for (const FaultPoint& f : faults) ++word_of(f).count;
  for (Word& w : words) {
    const bool protected_word =
        ecc.kind == EccKind::kSecDed || rng.bernoulli(ecc.coverage);
    // SEC: a single faulty bit in a protected word is corrected.  DED:
    // two or more are detected but the corrupted word passes through.
    if (protected_word && w.count == 1) w.keep = false;
  }
  FaultSet out;
  out.reserve(faults.size());
  for (const FaultPoint& f : faults)
    if (word_of(f).keep) out.push_back(f);
  return out;
}

WeightSiteSpace::WeightSiteSpace(const graph::Graph& g, tensor::DType dtype)
    : dtype_bits_(tensor::dtype_bits(dtype)) {
  const std::vector<tensor::Shape> shapes = g.infer_shapes();
  for (const graph::Node& n : g.nodes()) {
    if (n.op->kind() != ops::OpKind::kConst) continue;
    bool consumer_injectable = false;
    for (const graph::NodeId c : g.consumers(n.id))
      if (g.node(c).injectable) {
        consumer_injectable = true;
        break;
      }
    if (!consumer_injectable) continue;  // §V-B exclusion, via the layer op
    const tensor::Shape& s = shapes[static_cast<std::size_t>(n.id)];
    const std::size_t elems = s.elements();
    if (elems == 0) continue;
    const std::size_t row =
        s.rank() > 0 ? static_cast<std::size_t>(s.dim(s.rank() - 1)) : elems;
    total_ += elems;
    nodes_.push_back(Entry{n.name, elems, total_, std::max<std::size_t>(
                                                      row, 1)});
  }
  if (total_ == 0)
    throw std::invalid_argument(
        "WeightSiteSpace: graph has no injectable Const sites");
}

std::pair<std::size_t, std::size_t> WeightSiteSpace::pick(
    util::Rng& rng) const {
  const std::size_t p = rng.uniform_index(total_);
  const auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), p,
      [](const Entry& e, std::size_t v) { return e.cumulative <= v; });
  const std::size_t site = static_cast<std::size_t>(it - nodes_.begin());
  return {site, p - (it->cumulative - it->elements)};
}

FaultSet WeightSiteSpace::sample(util::Rng& rng,
                                 const WeightFaultModel& model) const {
  if (model.n_bits < 1)
    throw std::invalid_argument("WeightSiteSpace::sample: n_bits < 1");
  const auto bit = [&] {
    return static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(dtype_bits_)));
  };
  FaultSet faults;
  switch (model.kind) {
    case WeightFaultKind::kSingleBit: {
      const auto [site, off] = pick(rng);
      faults.push_back(FaultPoint{nodes_[site].name, off, bit()});
      break;
    }
    case WeightFaultKind::kMultiBit: {
      faults.reserve(static_cast<std::size_t>(model.n_bits));
      for (int i = 0; i < model.n_bits; ++i) {
        const auto [site, off] = pick(rng);
        faults.push_back(FaultPoint{nodes_[site].name, off, bit()});
      }
      break;
    }
    case WeightFaultKind::kConsecutiveBurst: {
      if (model.n_bits > dtype_bits_)
        throw std::invalid_argument(
            "WeightSiteSpace::sample: burst wider than the datatype");
      const auto [site, off] = pick(rng);
      const int start = static_cast<int>(rng.uniform_index(
          static_cast<std::uint64_t>(dtype_bits_ - model.n_bits + 1)));
      faults.reserve(static_cast<std::size_t>(model.n_bits));
      for (int i = 0; i < model.n_bits; ++i)
        faults.push_back(FaultPoint{nodes_[site].name, off, start + i});
      break;
    }
    case WeightFaultKind::kStuckAt0:
    case WeightFaultKind::kStuckAt1: {
      const auto [site, off] = pick(rng);
      faults.push_back(
          FaultPoint{nodes_[site].name, off, bit(),
                     model.kind == WeightFaultKind::kStuckAt0
                         ? FaultAction::kStuck0
                         : FaultAction::kStuck1});
      break;
    }
    case WeightFaultKind::kRowBurst: {
      // Same bit in up to n_bits consecutive elements, clipped at the end
      // of the innermost-dimension row it starts in.
      const auto [site, off] = pick(rng);
      const Entry& e = nodes_[site];
      const std::size_t row_end = (off / e.row + 1) * e.row;
      const std::size_t burst = std::min<std::size_t>(
          static_cast<std::size_t>(model.n_bits),
          std::min(row_end, e.elements) - off);
      const int b = bit();
      faults.reserve(burst);
      for (std::size_t i = 0; i < burst; ++i)
        faults.push_back(FaultPoint{e.name, off + i, b});
      break;
    }
  }
  return faults;
}

std::size_t WeightSiteSpace::elements_of(const std::string& node_name) const {
  for (const Entry& e : nodes_)
    if (e.name == node_name) return e.elements;
  return 0;
}

std::size_t WeightSiteSpace::site_index(const std::string& node_name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].name == node_name) return i;
  return SIZE_MAX;
}

}  // namespace rangerpp::fi
