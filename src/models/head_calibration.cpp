#include "models/head_calibration.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::models {

CalibratedHead calibrate_softmax_head(const graph::Graph& g,
                                      const std::string& input_name,
                                      const std::string& feature_node,
                                      int classes,
                                      const data::Dataset& train_set,
                                      const HeadCalibrationOptions& options) {
  if (train_set.samples.empty())
    throw std::invalid_argument("calibrate_softmax_head: empty training set");
  const graph::NodeId feat_id = g.find(feature_node);
  if (feat_id == graph::kInvalidNode)
    throw std::invalid_argument("calibrate_softmax_head: unknown node '" +
                                feature_node + "'");

  // Extract frozen features once, in parallel over samples; one compiled
  // plan shared by all workers, one arena each.
  const std::size_t n = train_set.samples.size();
  std::vector<std::vector<float>> features(n);
  std::vector<int> labels(n);
  const graph::Executor exec;
  const graph::ExecutionPlan plan = graph::compile(
      g, {.dtype = tensor::DType::kFloat32, .observe = graph::Observe::kAll});
  std::vector<graph::Arena> arenas(util::worker_count(n));
  util::parallel_for_workers(n, [&](unsigned worker, std::size_t i) {
    const data::Sample& s = train_set.samples[i];
    graph::Arena& arena = arenas[worker];
    exec.run(plan, {{input_name, s.image}}, arena);
    const tensor::Tensor& feat =
        arena.outputs()[static_cast<std::size_t>(feat_id)];
    if (options.gap_features && feat.shape().rank() == 4) {
      const tensor::Shape& fs = feat.shape();
      std::vector<float> means(static_cast<std::size_t>(fs.c()), 0.0f);
      for (int h = 0; h < fs.h(); ++h)
        for (int w = 0; w < fs.w(); ++w)
          for (int c = 0; c < fs.c(); ++c)
            means[static_cast<std::size_t>(c)] += feat.at4(0, h, w, c);
      const float inv = 1.0f / static_cast<float>(fs.h() * fs.w());
      for (float& m : means) m *= inv;
      features[i] = std::move(means);
    } else {
      const auto v = feat.values();
      features[i].assign(v.begin(), v.end());
    }
    labels[i] = s.label;
  });
  const int dim = static_cast<int>(features[0].size());

  // Constant feature scaling: keeps the regression well conditioned and
  // folds back into the returned weights (logits = (W/s) . x).
  double norm_sum = 0.0;
  for (const auto& x : features) {
    double sq = 0.0;
    for (float v : x) sq += static_cast<double>(v) * v;
    norm_sum += std::sqrt(sq);
  }
  const float scale =
      static_cast<float>(norm_sum / static_cast<double>(n));
  const float inv_scale = scale > 0.0f ? 1.0f / scale : 1.0f;
  for (auto& x : features)
    for (float& v : x) v *= inv_scale;

  // Softmax regression with momentum SGD, single pass structure kept
  // simple: the head is tiny relative to feature extraction.
  std::vector<float> w(static_cast<std::size_t>(dim) * classes, 0.0f);
  std::vector<float> b(static_cast<std::size_t>(classes), 0.0f);
  std::vector<float> vw(w.size(), 0.0f), vb(b.size(), 0.0f);
  std::vector<double> logits(static_cast<std::size_t>(classes));

  util::Rng rng(options.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (const std::size_t idx : order) {
      const std::vector<float>& x = features[idx];
      // Forward.
      for (int c = 0; c < classes; ++c) logits[c] = b[c];
      for (int d = 0; d < dim; ++d) {
        const float xv = x[static_cast<std::size_t>(d)];
        if (xv == 0.0f) continue;
        const float* wrow = &w[static_cast<std::size_t>(d) * classes];
        for (int c = 0; c < classes; ++c) logits[c] += xv * wrow[c];
      }
      const double max =
          *std::max_element(logits.begin(), logits.end());
      double sum = 0.0;
      for (double& l : logits) {
        l = std::exp(l - max);
        sum += l;
      }
      // Gradient step: dL/dlogit_c = p_c - [c == label].
      const double lr = options.learning_rate;
      const double mom = options.momentum;
      for (int c = 0; c < classes; ++c) {
        const double p = logits[static_cast<std::size_t>(c)] / sum;
        const double grad = p - (c == labels[idx] ? 1.0 : 0.0);
        vb[c] = static_cast<float>(mom * vb[c] - lr * grad);
        b[c] += vb[c];
        logits[static_cast<std::size_t>(c)] = grad;  // reuse as grad buffer
      }
      for (int d = 0; d < dim; ++d) {
        const float xv = x[static_cast<std::size_t>(d)];
        if (xv == 0.0f) continue;
        float* wrow = &w[static_cast<std::size_t>(d) * classes];
        float* vrow = &vw[static_cast<std::size_t>(d) * classes];
        for (int c = 0; c < classes; ++c) {
          vrow[c] = static_cast<float>(
              mom * vrow[c] -
              lr * xv * logits[static_cast<std::size_t>(c)]);
          wrow[c] += vrow[c];
        }
      }
    }
  }

  // Fold the feature scaling into the weights.
  for (float& v : w) v *= inv_scale;

  CalibratedHead head;
  head.weights = tensor::Tensor(tensor::Shape{dim, classes}, std::move(w));
  head.bias = tensor::Tensor(tensor::Shape{classes}, std::move(b));
  return head;
}

}  // namespace rangerpp::models
