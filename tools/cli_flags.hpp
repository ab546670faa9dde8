// Flag helpers shared by suite_cli and scheduler_cli.  Checked numeric
// parsing is one copy of the "malformed value exits with the tool's
// usage message" policy, built on the strict full-string parsers in
// util/parse.hpp: `--nbits foo` or `--trials 10x` must never silently
// coerce to 0/10 and corrupt a campaign config.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "fi/suite.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/timer.hpp"

namespace rangerpp::cli {

// Each tool passes its own [[noreturn]] usage printer.
using UsageFn = void (*)(const char*);

inline std::size_t size_flag(UsageFn usage, const std::string& flag,
                             const std::string& v) {
  std::uint64_t out = 0;
  if (!util::parse_u64(v.c_str(), out))
    usage((flag + " wants a non-negative integer, got '" + v + "'").c_str());
  return static_cast<std::size_t>(out);
}

inline int int_flag(UsageFn usage, const std::string& flag,
                    const std::string& v, int min_value, int max_value) {
  std::int64_t out = 0;
  if (!util::parse_i64(v.c_str(), out) || out < min_value ||
      out > max_value)
    usage((flag + " wants an integer in [" + std::to_string(min_value) +
           ", " + std::to_string(max_value) + "], got '" + v + "'")
              .c_str());
  return static_cast<int>(out);
}

inline double double_flag(UsageFn usage, const std::string& flag,
                          const std::string& v) {
  double out = 0.0;
  if (!util::parse_f64(v.c_str(), out) || out < 0.0)
    usage((flag + " wants a non-negative number, got '" + v + "'").c_str());
  return out;
}

// suite_cli --progress: a 1 Hz stderr heartbeat read entirely off the
// metrics registry — the counters the suite/runner layers already
// publish are the single source of truth, so the reporter never reaches
// into run internals (and can't perturb the records).  `planned` is the
// CLI-side estimate of trials this process will execute.
class ProgressReporter {
 public:
  ProgressReporter(const char* label, std::size_t planned) {
    th_ = std::thread([this, label, planned] {
      const util::Timer t;
      while (!done_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
        const std::uint64_t trials =
            util::metrics::counter_value("campaign.trials");
        const double secs = t.elapsed_seconds();
        const double rate =
            secs > 0.0 ? static_cast<double>(trials) / secs : 0.0;
        const double eta = rate > 0.0 && planned > trials
                               ? static_cast<double>(planned - trials) / rate
                               : 0.0;
        std::fprintf(
            stderr,
            "\r%s: %llu/%llu cells  %llu/%zu trials  %.0f trials/s  "
            "eta %.0fs   ",
            label,
            static_cast<unsigned long long>(
                util::metrics::counter_value("suite.cells_done")),
            static_cast<unsigned long long>(
                util::metrics::gauge_value("suite.cells_total")),
            static_cast<unsigned long long>(trials), planned, rate, eta);
      }
      std::fprintf(stderr, "\n");
    });
  }
  ~ProgressReporter() {
    done_.store(true, std::memory_order_relaxed);
    if (th_.joinable()) th_.join();
  }
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

 private:
  std::atomic<bool> done_{false};
  std::thread th_;
};

// `--list` discovery output shared by suite_cli and scheduler_cli: every
// grid-axis token a flag accepts, printed from the same token tables the
// parsers use, so the listing can never drift from what actually parses.
inline void print_axes(std::FILE* f) {
  std::fprintf(f, "models:");
  for (const models::ModelId id :
       {models::ModelId::kLeNet, models::ModelId::kAlexNet,
        models::ModelId::kVgg11, models::ModelId::kVgg16,
        models::ModelId::kResNet18, models::ModelId::kSqueezeNet,
        models::ModelId::kDave, models::ModelId::kDaveDegrees,
        models::ModelId::kComma})
    std::fprintf(f, " %s", models::model_token(id).c_str());
  std::fprintf(f, "\nactivations:");
  for (const ops::OpKind act :
       {ops::OpKind::kInput, ops::OpKind::kRelu, ops::OpKind::kTanh,
        ops::OpKind::kSigmoid, ops::OpKind::kElu})
    std::fprintf(f, " %s", std::string(fi::act_token(act)).c_str());
  std::fprintf(f, "\ndtypes:");
  for (const tensor::DType d :
       {tensor::DType::kFixed32, tensor::DType::kFixed16,
        tensor::DType::kInt8, tensor::DType::kFloat32})
    std::fprintf(f, " %s", std::string(fi::dtype_token(d)).c_str());
  std::fprintf(f, "\nbackends (RANGERPP_BACKEND):");
  for (const ops::KernelBackend b :
       {ops::KernelBackend::kScalar, ops::KernelBackend::kBlocked,
        ops::KernelBackend::kSimd})
    std::fprintf(f, " %s", std::string(ops::backend_name(b)).c_str());
  std::fprintf(f, "\nfault classes:");
  for (const fi::FaultClass c :
       {fi::FaultClass::kActivation, fi::FaultClass::kWeight})
    std::fprintf(f, " %s", std::string(fi::fault_class_token(c)).c_str());
  std::fprintf(f,
               "\nactivation fault models: single-bit (--nbits 1), "
               "multi-bit (--nbits K), burst (--nbits K --consecutive)");
  std::fprintf(f, "\nweight fault kinds:");
  for (const fi::WeightFaultKind k :
       {fi::WeightFaultKind::kSingleBit, fi::WeightFaultKind::kMultiBit,
        fi::WeightFaultKind::kConsecutiveBurst,
        fi::WeightFaultKind::kStuckAt0, fi::WeightFaultKind::kStuckAt1,
        fi::WeightFaultKind::kRowBurst})
    std::fprintf(f, " %s",
                 std::string(fi::weight_fault_kind_token(k)).c_str());
  std::fprintf(f, "\necc models: none secded cov<FRACTION> (e.g. cov0.5)");
  std::fprintf(f, "\ntechniques:");
  for (const fi::Technique t :
       {fi::Technique::kUnprotected, fi::Technique::kRanger,
        fi::Technique::kRangerPaired})
    std::fprintf(f, " %s", std::string(fi::technique_token(t)).c_str());
  std::fprintf(f,
               "\nscheduler modes (scheduler_cli): serve submit status "
               "stats cancel shutdown");
  std::fprintf(f, "\n");
}

}  // namespace rangerpp::cli
