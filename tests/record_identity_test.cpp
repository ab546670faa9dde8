// Record identity on real zoo graphs: the default campaign path (blocked
// kernels, 8 trials per batched plan run, partial re-execution) must write
// byte-for-byte the records of the reference path (scalar kernels, one
// trial per run, full re-execution with the injection hook).  The models
// carry untrained He-initialised weights, so no weight files are needed;
// batched partial runs there routinely put one row's injection root
// downstream of another row's fault, the case the element-sparse tier
// handles at roots.  The cells beyond the single-bit fixed32 ones cover
// what the partial path's injections must get right: several injections
// on one element (3-bit bursts), several roots per trial (3 independent
// bits), the fixed16 codec, and ResNet-18 — residual Adds whose two
// inputs both changed, BatchNorm, and a GlobalAvgPool that recomputes
// densely (through its blocked kernel) from a sparse input.
//
// The weight cells corrupt parameters instead: a faulted Conv2D filter
// recomputes only the output channels the corrupted elements feed, and a
// faulted bias or MatMul weight matrix (AlexNet's fc1/fc2) recomputes
// densely.  Float32 is what makes a cell sensitive to accumulation order —
// the fixed-point codecs round most reorderings away — so the float32
// cells pin the conv parameter kernel and, on activation faults, the
// element-sparse conv's pixel kernel to the dense kernels' order.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/range_profiler.hpp"
#include "core/ranger_transform.hpp"
#include "fi/report.hpp"
#include "fi/runner.hpp"
#include "fi/weight_fault.hpp"
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

struct IdentityCell {
  std::string name;
  ModelId model;
  tensor::DType dtype = tensor::DType::kFixed32;
  int n_bits = 1;
  bool consecutive = false;
  fi::FaultClass fault_class = fi::FaultClass::kActivation;
  fi::WeightFaultKind weight_kind = fi::WeightFaultKind::kSingleBit;
};

void PrintTo(const IdentityCell& cell, std::ostream* os) { *os << cell.name; }

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
                       const IdentityCell& cell, ops::KernelBackend backend,
                       std::size_t batch, bool partial) {
  fi::RunnerConfig rc;
  rc.campaign.dtype = cell.dtype;
  rc.campaign.n_bits = cell.n_bits;
  rc.campaign.consecutive_bits = cell.consecutive;
  rc.campaign.fault_class = cell.fault_class;
  rc.campaign.weight_fault = {cell.weight_kind, cell.n_bits};
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

class RecordIdentityTest : public ::testing::TestWithParam<IdentityCell> {};

TEST_P(RecordIdentityTest, DefaultPathMatchesScalarFullReference) {
  const IdentityCell& cell = GetParam();
  const ModelId id = cell.model;
  const graph::Graph g = models::build_model(
      id, models::default_act(id),
      models::init_weights(id, models::default_act(id), 99));
  const std::vector<fi::Feeds> inputs = random_inputs(id, 2, 7);
  const core::Bounds bounds = core::RangeProfiler{}.derive_bounds(
      g, random_inputs(id, 8, 11));
  const graph::Graph protected_g = core::RangerTransform{}.apply(g, bounds);

  for (const graph::Graph* graph : {&g, &protected_g}) {
    const std::string what =
        cell.name + (graph == &g ? " unprotected" : " ranger");
    const std::string reference =
        records_of(*graph, inputs, cell, ops::KernelBackend::kScalar, 1,
                   /*partial=*/false);
    const std::string fast =
        records_of(*graph, inputs, cell, ops::KernelBackend::kBlocked, 8,
                   /*partial=*/true);
    ASSERT_FALSE(reference.empty()) << what;
    EXPECT_EQ(fast, reference) << what;
    // The bit-exact judge saw faults that reached the output, so the
    // comparison covers real output values, not only golden ones.
    EXPECT_TRUE(reference.find("\"sdc\":2") != std::string::npos ||
                reference.find("\"sdc\":3") != std::string::npos)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, RecordIdentityTest,
    ::testing::Values(
        IdentityCell{"lenet", ModelId::kLeNet},
        IdentityCell{"alexnet", ModelId::kAlexNet},
        IdentityCell{"alexnet_burst3", ModelId::kAlexNet,
                     tensor::DType::kFixed32, 3, /*consecutive=*/true},
        IdentityCell{"alexnet_multi3", ModelId::kAlexNet,
                     tensor::DType::kFixed32, 3},
        IdentityCell{"lenet_fixed16", ModelId::kLeNet,
                     tensor::DType::kFixed16},
        IdentityCell{"resnet18", ModelId::kResNet18},
        IdentityCell{"alexnet_f32", ModelId::kAlexNet,
                     tensor::DType::kFloat32},
        IdentityCell{"resnet18_weight", ModelId::kResNet18,
                     tensor::DType::kFixed16, 1, false,
                     fi::FaultClass::kWeight},
        IdentityCell{"resnet18_weight_f32", ModelId::kResNet18,
                     tensor::DType::kFloat32, 1, false,
                     fi::FaultClass::kWeight},
        IdentityCell{"alexnet_weight_f32", ModelId::kAlexNet,
                     tensor::DType::kFloat32, 1, false,
                     fi::FaultClass::kWeight}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace rangerpp
