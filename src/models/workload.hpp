// Workload = model graph + datasets + evaluation metadata, the unit every
// bench binary iterates over.  make_workload() assembles the synthetic
// datasets, obtains pretrained weights (training the trainable models once
// and caching them on disk), and builds the unprotected inference graph.
#pragma once

#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "fi/sdc.hpp"
#include "models/zoo.hpp"
#include "util/once_cache.hpp"

namespace rangerpp::models {

struct WorkloadOptions {
  // Activation override; kInput (sentinel) = the model's published one.
  ops::OpKind act = ops::OpKind::kInput;
  std::size_t profile_samples = 200;  // bound-derivation sample count
  std::size_t eval_inputs = 10;       // FI inputs (paper: 10 per model)
  std::size_t validation_samples = 200;
  bool trained = true;                // train (or load cached) weights
  std::uint64_t seed = 2021;
};

struct Workload {
  ModelId id{};
  ops::OpKind act{};
  graph::Graph graph;  // unprotected
  std::string input_name;

  // 20%-of-training-stream sample used to derive restriction bounds.
  std::vector<fi::Feeds> profile_feeds;
  // Inputs used for fault injection (fault-free-correct where possible).
  std::vector<fi::Feeds> eval_feeds;
  // Held-out validation set for the accuracy experiments.
  data::Dataset validation;

  Weights weights;  // the graph's parameters (for rebuilt variants)
};

Workload make_workload(ModelId id, const WorkloadOptions& options = {});

// Builds each (model, activation-variant) workload at most once and hands
// out stable references — the construction (training or loading weights,
// synthesising datasets) dominates small campaigns, and a suite of many
// cells over the same models must not pay it per cell.  Options other
// than `act` are fixed at cache construction so every cached workload is
// comparable.
//
// Thread-safe: get() may be called concurrently from any number of
// threads (the scheduler daemon shares one cache across concurrent
// requests).  It is a util::OnceCache (once_cache.hpp): two threads
// requesting the same key build it exactly once, requests for different
// keys build in parallel, and a returned Workload is immutable and stays
// valid for the cache's lifetime.  Lookups run under a
// cache.workload.get span and builds under cache.workload.build.
class WorkloadCache {
 public:
  explicit WorkloadCache(WorkloadOptions base = {}) : base_(base) {}

  // `act` uses the WorkloadOptions convention (kInput sentinel = the
  // model's published activation).
  const Workload& get(ModelId id, ops::OpKind act = ops::OpKind::kInput);

  const WorkloadOptions& options() const { return base_; }
  std::size_t size() const { return cache_.size(); }

 private:
  WorkloadOptions base_;
  util::OnceCache<std::pair<int, int>, Workload> cache_{
      {"cache.workload.get", "cache.workload.build", "cache.workload.hit"}};
};

// The shared trial-count rule for campaign suites and benches: the
// ImageNet-scale models are ~10x the inference cost, so they run a
// quarter of the small-model trial count (the paper likewise reduces
// their campaigns, 3000 vs 5000), floored at 100 trials.
std::size_t scaled_trials(ModelId id, std::size_t trials_small);

// SDC judges appropriate for a model: {top1} for small classifiers,
// {top1, top5} for the ImageNet-scale ones, or the four steering-deviation
// thresholds {15, 30, 60, 120} degrees.
std::vector<fi::JudgePtr> default_judges(ModelId id);
std::vector<std::string> judge_labels(ModelId id);

// Fault-free top-1 accuracy of classifier `g` on `validation`, in [0, 1]
// (steering models: use steering_metrics instead).
double top1_accuracy(const graph::Graph& g, const std::string& input_name,
                     const data::Dataset& validation);

struct SteeringMetrics {
  double rmse = 0.0;
  double avg_deviation = 0.0;  // mean |pred - target| per frame, degrees
};
SteeringMetrics steering_metrics(const graph::Graph& g,
                                 const std::string& input_name,
                                 const data::Dataset& validation,
                                 bool outputs_radians);

}  // namespace rangerpp::models
