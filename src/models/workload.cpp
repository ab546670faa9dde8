#include "models/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "models/head_calibration.hpp"
#include "models/weights.hpp"
#include "train/trainer.hpp"
#include "util/stats.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::models {

namespace {

std::string act_tag(ops::OpKind act) {
  switch (act) {
    case ops::OpKind::kRelu: return "relu";
    case ops::OpKind::kTanh: return "tanh";
    case ops::OpKind::kSigmoid: return "sigmoid";
    case ops::OpKind::kElu: return "elu";
    default: return "act";
  }
}

// The synthetic dataset a model trains/evaluates on; sized to cover
// training + profiling + validation + eval inputs.
data::Dataset make_dataset(ModelId id, std::size_t n, std::uint64_t seed) {
  switch (id) {
    case ModelId::kLeNet:
      return data::synthetic_digits(n, seed);
    case ModelId::kAlexNet:
      return data::synthetic_objects(n, 10, 32, 32, seed);
    case ModelId::kVgg11:
      return data::synthetic_objects(n, 43, 32, 32, seed);
    case ModelId::kVgg16:
    case ModelId::kResNet18:
    case ModelId::kSqueezeNet:
      return data::synthetic_objects(n, 1000, 32, 32, seed);
    case ModelId::kDave:
    case ModelId::kDaveDegrees:
      return data::synthetic_driving(n, 66, 100, seed);
    case ModelId::kComma:
      return data::synthetic_driving(n, 33, 80, seed);
  }
  throw std::invalid_argument("make_dataset: bad model id");
}

std::size_t train_set_size(ModelId id) {
  switch (id) {
    case ModelId::kLeNet: return 3000;
    case ModelId::kVgg11: return 800;
    case ModelId::kDave:
    case ModelId::kDaveDegrees: return 700;
    case ModelId::kComma: return 1200;
    case ModelId::kAlexNet: return 600;  // 10 classes: 600 is plenty
    default:
      // 1000-class head calibration needs several shots per class.
      return 5000;
  }
}

train::FitOptions fit_options(ModelId id) {
  train::FitOptions o;
  switch (id) {
    case ModelId::kLeNet:
      o.epochs = 3;
      o.batch_size = 32;
      o.learning_rate = 0.02;
      break;
    case ModelId::kVgg11:
      o.epochs = 3;
      o.batch_size = 32;
      o.learning_rate = 0.02;
      break;
    case ModelId::kDave:
      o.epochs = 4;
      o.batch_size = 16;
      o.learning_rate = 0.01;
      o.regression = true;
      o.targets_in_radians = true;
      break;
    case ModelId::kDaveDegrees:
      o.epochs = 4;
      o.batch_size = 16;
      o.learning_rate = 0.01;
      o.regression = true;
      o.output_scale = 60.0;
      break;
    case ModelId::kComma:
      o.epochs = 4;
      o.batch_size = 16;
      o.learning_rate = 0.01;
      o.regression = true;
      o.output_scale = 60.0;
      break;
    default:
      throw std::logic_error("fit_options: model is not trainable");
  }
  return o;
}

// Pure float32 inference (only the graph output is read): arena memory
// drops each activation after its last consumer.
graph::CompileOptions inference_compile_options() {
  graph::CompileOptions opts;
  opts.dtype = tensor::DType::kFloat32;
  opts.memory = graph::MemoryMode::kArena;
  return opts;
}

}  // namespace

Workload make_workload(ModelId id, const WorkloadOptions& options) {
  Workload w;
  w.id = id;
  w.act = options.act == ops::OpKind::kInput ? default_act(id) : options.act;
  w.input_name = "input";

  const std::size_t train_n = train_set_size(id);
  const std::size_t total = train_n + options.validation_samples;
  data::Split split = data::split(
      make_dataset(id, total, options.seed), train_n);

  // --- Weights: init, then train-or-load for the trainable models. -------
  w.weights = init_weights(id, w.act, options.seed ^ 0xabcdef);
  if (options.trained && is_trainable(id)) {
    const std::string cache = weight_cache_dir() + "/" + model_name(id) +
                              "_" + act_tag(w.act) + ".bin";
    if (!load_weights(w.weights, cache)) {
      train::fit(make_arch(id, w.act), w.weights, split.train,
                 fit_options(id));
      save_weights(w.weights, cache);
    }
  }
  w.graph = build_model(id, w.act, w.weights);

  // --- Head calibration for the models not trained end-to-end (restores
  // realistic classifier-confidence margins; DESIGN.md §3). --------------
  if (options.trained && has_calibrated_head(id)) {
    const HeadSpec spec = head_spec(id);
    const std::string cache = weight_cache_dir() + "/" + model_name(id) +
                              "_" + act_tag(w.act) + "_head.bin";
    Weights head_w;
    if (!load_weights(head_w, cache)) {
      HeadCalibrationOptions ho;
      ho.gap_features = spec.conv_head;
      ho.seed = options.seed ^ 0x4ead;
      const CalibratedHead head = calibrate_softmax_head(
          w.graph, w.input_name, spec.feature_node, num_classes(id),
          split.train, ho);
      if (spec.conv_head) {
        // Fold [dim, classes] into a 1x1 conv filter [1,1,dim,classes]
        // (identical memory layout).
        const int dim = head.weights.shape().dim(0);
        const int classes = head.weights.shape().dim(1);
        head_w.emplace(spec.weights_key,
                       head.weights.reshaped(
                           tensor::Shape{1, 1, dim, classes}));
      } else {
        head_w.emplace(spec.weights_key, head.weights);
      }
      head_w.emplace(spec.bias_key, head.bias);
      save_weights(head_w, cache);
    }
    for (const auto& [key, value] : head_w) w.weights[key] = value;
    w.graph = build_model(id, w.act, w.weights);
  }

  // --- Profiling stream: a random subset (~20%) of the training data. ----
  const std::size_t n_prof =
      std::min(options.profile_samples, split.train.samples.size());
  w.profile_feeds = split.train.feeds(w.input_name, n_prof);

  // --- Validation + eval inputs. ------------------------------------------
  w.validation = std::move(split.validation);

  // The paper injects into inputs the model classifies *correctly* in the
  // fault-free run — in a trained network those are the confident inputs.
  // For trained classifiers, filter the validation set by correctness.
  // For the models whose hidden layers stay He-initialised (the 1000-class
  // ImageNet stand-ins), correctness is unattainable, so the faithful
  // analogue is confidence: pick the validation inputs with the largest
  // fault-free top-1 logit margin.  Steering models use any frames.
  const graph::Executor exec;
  // Pure inference (only the graph output is read): compile with every
  // rewrite enabled and arena memory — exact by the compiler's
  // determinism contract, so selection is unchanged.
  const graph::ExecutionPlan plan =
      graph::compile(w.graph, inference_compile_options());
  const std::vector<data::Sample>& val = w.validation.samples;
  std::vector<graph::Arena> arenas(util::worker_count(val.size()));
  // Fault-free outputs of validation samples [begin, end), run across
  // workers with one arena each.
  const auto outputs = [&](std::size_t begin, std::size_t end) {
    std::vector<tensor::Tensor> out(end - begin);
    util::parallel_for_workers(end - begin, [&](unsigned worker,
                                                std::size_t i) {
      out[i] = exec.run(plan, fi::Feeds{{w.input_name, val[begin + i].image}},
                        arenas[worker]);
    });
    return out;
  };
  std::vector<fi::Feeds> eval;
  if (!is_steering(id) && options.trained && !is_trainable(id)) {
    struct Scored {
      double margin;
      std::size_t index;
    };
    std::vector<Scored> scored;
    const std::size_t pool =
        std::min<std::size_t>(val.size(), std::max<std::size_t>(
                                              4 * options.eval_inputs, 40));
    const std::vector<tensor::Tensor> outs = outputs(0, pool);
    for (std::size_t i = 0; i < pool; ++i) {
      const tensor::Tensor& out = outs[i];
      const std::vector<int> top2 = graph::top_k(out, 2);
      const double margin =
          top2.size() > 1 ? out.at(static_cast<std::size_t>(top2[0])) -
                                out.at(static_cast<std::size_t>(top2[1]))
                          : 1.0;
      scored.push_back({margin, i});
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                return a.margin > b.margin;
              });
    for (std::size_t k = 0;
         k < scored.size() && eval.size() < options.eval_inputs; ++k)
      eval.push_back(fi::Feeds{{w.input_name, val[scored[k].index].image}});
  } else if (options.trained && is_trainable(id) && !is_steering(id)) {
    // The first correctly classified inputs in validation order, scored
    // a chunk at a time (at least what is still missing).
    for (std::size_t begin = 0;
         begin < val.size() && eval.size() < options.eval_inputs;) {
      const std::size_t end = std::min(
          val.size(), begin + std::max<std::size_t>(
                                  options.eval_inputs - eval.size(),
                                  arenas.size()));
      const std::vector<tensor::Tensor> outs = outputs(begin, end);
      for (std::size_t i = begin;
           i < end && eval.size() < options.eval_inputs; ++i)
        if (graph::argmax(outs[i - begin]) == val[i].label)
          eval.push_back(fi::Feeds{{w.input_name, val[i].image}});
      begin = end;
    }
  } else {
    for (const data::Sample& s : val) {
      if (eval.size() >= options.eval_inputs) break;
      eval.push_back(fi::Feeds{{w.input_name, s.image}});
    }
  }
  if (eval.empty())
    throw std::runtime_error("make_workload: no usable eval inputs for " +
                             model_name(id));
  w.eval_feeds = std::move(eval);
  return w;
}

std::vector<fi::JudgePtr> default_judges(ModelId id) {
  std::vector<fi::JudgePtr> judges;
  if (is_steering(id)) {
    for (const double thr : {15.0, 30.0, 60.0, 120.0})
      judges.push_back(
          std::make_shared<fi::SteeringJudge>(thr, outputs_radians(id)));
  } else {
    judges.push_back(std::make_shared<fi::Top1Judge>());
    if (reports_top5(id)) judges.push_back(std::make_shared<fi::Top5Judge>());
  }
  return judges;
}

std::vector<std::string> judge_labels(ModelId id) {
  if (is_steering(id))
    return {model_name(id) + "-15", model_name(id) + "-30",
            model_name(id) + "-60", model_name(id) + "-120"};
  if (reports_top5(id))
    return {model_name(id) + " (top-1)", model_name(id) + " (top-5)"};
  return {model_name(id)};
}

double top1_accuracy(const graph::Graph& g, const std::string& input_name,
                     const data::Dataset& validation) {
  const graph::Executor exec;
  const graph::ExecutionPlan plan =
      graph::compile(g, inference_compile_options());
  graph::Arena arena;
  std::size_t correct = 0;
  for (const data::Sample& s : validation.samples) {
    const tensor::Tensor out =
        exec.run(plan, fi::Feeds{{input_name, s.image}}, arena);
    if (graph::argmax(out) == s.label) ++correct;
  }
  return validation.samples.empty()
             ? 0.0
             : static_cast<double>(correct) / validation.samples.size();
}

SteeringMetrics steering_metrics(const graph::Graph& g,
                                 const std::string& input_name,
                                 const data::Dataset& validation,
                                 bool radians) {
  const graph::Executor exec;
  const graph::ExecutionPlan plan =
      graph::compile(g, inference_compile_options());
  graph::Arena arena;
  std::vector<double> pred, target;
  for (const data::Sample& s : validation.samples) {
    const tensor::Tensor out =
        exec.run(plan, fi::Feeds{{input_name, s.image}}, arena);
    double y = out.at(0);
    if (radians) y *= 180.0 / std::numbers::pi;
    pred.push_back(y);
    target.push_back(s.angle);
  }
  return SteeringMetrics{util::rmse(pred, target),
                         util::avg_abs_deviation(pred, target)};
}

const Workload& WorkloadCache::get(ModelId id, ops::OpKind act) {
  return cache_.get({static_cast<int>(id), static_cast<int>(act)}, [&] {
    WorkloadOptions wo = base_;
    wo.act = act;
    return make_workload(id, wo);
  });
}

std::size_t scaled_trials(ModelId id, std::size_t trials_small) {
  switch (id) {
    case ModelId::kVgg16:
    case ModelId::kResNet18:
    case ModelId::kSqueezeNet:
      return std::max<std::size_t>(100, trials_small / 4);
    default:
      return trials_small;
  }
}

}  // namespace rangerpp::models
