// Record identity on real zoo graphs: the default campaign path (blocked
// kernels, 8 trials per batched plan run, partial re-execution) must write
// byte-for-byte the records of the reference path (scalar kernels, one
// trial per run, full re-execution).  AlexNet and LeNet carry untrained
// He-initialised weights, so no weight files are needed; batched partial
// runs there routinely put one row's injection root downstream of another
// row's fault, the case the element-sparse tier handles at roots.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/report.hpp"
#include "fi/runner.hpp"
#include "models/zoo.hpp"
#include "util/rng.hpp"

namespace rangerpp {
namespace {

using models::ModelId;

// Flags any output that differs from golden in a single bit, so the
// records pin every trial's exact output, not just its argmax.
class BitExactJudge final : public fi::SdcJudge {
 public:
  bool is_sdc(const tensor::Tensor& golden,
              const tensor::Tensor& faulty) const override {
    const auto g = golden.values();
    const auto f = faulty.values();
    for (std::size_t i = 0; i < g.size(); ++i)
      if (std::bit_cast<std::uint32_t>(g[i]) !=
          std::bit_cast<std::uint32_t>(f[i]))
        return true;
    return false;
  }
};

std::vector<fi::Feeds> random_inputs(ModelId id, std::size_t count,
                                     std::uint64_t seed) {
  const tensor::Shape shape = id == ModelId::kLeNet
                                  ? tensor::Shape{1, 28, 28, 1}
                                  : tensor::Shape{1, 32, 32, 3};
  util::Rng rng(seed);
  std::vector<fi::Feeds> inputs;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<float> v(shape.elements());
    for (float& x : v) x = static_cast<float>(rng.uniform(0.0, 1.0));
    inputs.push_back({{"input", tensor::Tensor(shape, std::move(v))}});
  }
  return inputs;
}

std::string records_of(const graph::Graph& g,
                       const std::vector<fi::Feeds>& inputs,
                       ops::KernelBackend backend, std::size_t batch,
                       bool partial) {
  fi::RunnerConfig rc;
  rc.campaign.dtype = tensor::DType::kFixed32;
  rc.campaign.trials_per_input = 64;
  rc.campaign.seed = 2021;
  rc.campaign.threads = 2;
  rc.campaign.backend = backend;
  rc.campaign.batch = batch;
  rc.campaign.partial_reexecution = partial;
  const std::vector<fi::JudgePtr> judges = {
      std::make_shared<fi::Top1Judge>(), std::make_shared<BitExactJudge>()};
  const fi::CampaignReport report =
      fi::CampaignRunner(rc).run(g, inputs, judges);
  std::string lines;
  for (const fi::TrialRecord& r : report.records)
    lines += fi::trial_record_line(r);
  return lines;
}

class RecordIdentityTest : public ::testing::TestWithParam<ModelId> {};

TEST_P(RecordIdentityTest, DefaultPathMatchesScalarFullReference) {
  const ModelId id = GetParam();
  const graph::Graph g = models::build_model(
      id, models::default_act(id),
      models::init_weights(id, models::default_act(id), 99));
  const std::vector<fi::Feeds> inputs = random_inputs(id, 2, 7);
  const core::Bounds bounds = core::RangeProfiler{}.derive_bounds(
      g, random_inputs(id, 8, 11));
  const graph::Graph protected_g = core::RangerTransform{}.apply(g, bounds);

  for (const graph::Graph* graph : {&g, &protected_g}) {
    const std::string what = models::model_name(id) +
                             (graph == &g ? " unprotected" : " ranger");
    const std::string reference = records_of(
        *graph, inputs, ops::KernelBackend::kScalar, 1, /*partial=*/false);
    const std::string fast = records_of(
        *graph, inputs, ops::KernelBackend::kBlocked, 8, /*partial=*/true);
    ASSERT_FALSE(reference.empty()) << what;
    EXPECT_EQ(fast, reference) << what;
    // The bit-exact judge saw faults that reached the output, so the
    // comparison covers real output values, not only golden ones.
    EXPECT_TRUE(reference.find("\"sdc\":2") != std::string::npos ||
                reference.find("\"sdc\":3") != std::string::npos)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, RecordIdentityTest,
                         ::testing::Values(ModelId::kLeNet,
                                           ModelId::kAlexNet),
                         [](const auto& info) {
                           return models::model_token(info.param);
                         });

}  // namespace
}  // namespace rangerpp
