#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/env.hpp"
#include "util/function_ref.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace rangerpp::util {
namespace {

TEST(Parse, U64RequiresTheWholeString) {
  std::uint64_t v = 99;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("1234", v));
  EXPECT_EQ(v, 1234u);

  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64(nullptr, v));
  EXPECT_FALSE(parse_u64("10x", v));   // trailing junk must not become 10
  EXPECT_FALSE(parse_u64("abc", v));   // must not become 0
  EXPECT_FALSE(parse_u64(" 12", v));
  EXPECT_FALSE(parse_u64("-3", v));    // must not wrap into a huge value
  EXPECT_FALSE(parse_u64("+3", v));
  EXPECT_FALSE(parse_u64("99999999999999999999999", v));  // overflow
}

TEST(Parse, I64AndF64) {
  std::int64_t i = 0;
  EXPECT_TRUE(parse_i64("-42", i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(parse_i64("42.5", i));
  EXPECT_FALSE(parse_i64("", i));

  double d = 0.0;
  EXPECT_TRUE(parse_f64("2.5", d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_TRUE(parse_f64("-1e3", d));
  EXPECT_DOUBLE_EQ(d, -1000.0);
  EXPECT_FALSE(parse_f64("2.5pct", d));
  EXPECT_FALSE(parse_f64("", d));
}

TEST(Env, EnvSizeWarnsAndKeepsDefaultOnMalformedValues) {
  const char* name = "RANGERPP_ENV_SIZE_TEST";
  unsetenv(name);
  EXPECT_EQ(env_size(name, 7), 7u);

  setenv(name, "12", 1);
  EXPECT_EQ(env_size(name, 7), 12u);
  setenv(name, "0", 1);
  EXPECT_EQ(env_size(name, 7), 0u);

  // Malformed values fall back to the default instead of silently
  // running a different trial count ("10x" used to become 10).
  setenv(name, "10x", 1);
  EXPECT_EQ(env_size(name, 7), 7u);
  setenv(name, "abc", 1);
  EXPECT_EQ(env_size(name, 7), 7u);
  setenv(name, "-5", 1);
  EXPECT_EQ(env_size(name, 7), 7u);
  unsetenv(name);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(variance(xs), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
}

TEST(Stats, Rmse) {
  const std::vector<double> p{1.0, 2.0, 3.0};
  const std::vector<double> t{1.0, 4.0, 3.0};
  EXPECT_NEAR(rmse(p, t), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_THROW(rmse(p, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Stats, AvgAbsDeviation) {
  const std::vector<double> p{0.0, 2.0};
  const std::vector<double> t{1.0, 0.0};
  EXPECT_DOUBLE_EQ(avg_abs_deviation(p, t), 1.5);
}

TEST(Stats, Ci95ProportionMatchesClosedForm) {
  // p = 0.5, n = 100: 1.96 * sqrt(0.25/100) ~ 0.098.
  EXPECT_NEAR(ci95_proportion(50, 100), 0.098, 1e-3);
  EXPECT_DOUBLE_EQ(ci95_proportion(0, 0), 0.0);
}

TEST(Stats, Wilson95BetterBehavedNearZero) {
  const Interval i = wilson95(0, 1000);
  EXPECT_GT(i.center, 0.0);
  EXPECT_LT(i.center + i.half_width, 0.01);
}

TEST(Stats, IntervalEndpoints) {
  const Interval i{0.5, 0.1};
  EXPECT_DOUBLE_EQ(i.lo(), 0.4);
  EXPECT_DOUBLE_EQ(i.hi(), 0.6);
  EXPECT_TRUE(i.contains(0.45));
  EXPECT_FALSE(i.contains(0.61));
}

TEST(Stats, Stratified95CollapsesToWilsonlikeSingleStratum) {
  // One stratum with weight 1: centre is the raw proportion, half-width
  // the normal-approximation one.
  const double w[] = {1.0};
  const std::size_t k[] = {150}, n[] = {1000};
  const Interval i = stratified95(w, k, n);
  EXPECT_DOUBLE_EQ(i.center, 0.15);
  EXPECT_NEAR(i.half_width, ci95_proportion(150, 1000), 1e-12);
}

TEST(Stats, Stratified95WeightsAndRenormalises) {
  // Two strata, one unobserved: weights renormalise over the observed.
  const double w[] = {0.25, 0.25, 0.5};
  const std::size_t k[] = {10, 40, 0}, n[] = {100, 100, 0};
  const Interval i = stratified95(w, k, n);
  EXPECT_NEAR(i.center, 0.25, 1e-12);  // (0.1 + 0.4) / 2
  EXPECT_GT(i.half_width, 0.0);
  EXPECT_THROW(stratified95({}, k, n), std::invalid_argument);
}

TEST(Stats, TrialsForCi95) {
  // Classic n ≈ 384 for p=0.5, ±5%.
  EXPECT_NEAR(static_cast<double>(trials_for_ci95(0.5, 0.05)), 384.0, 1.0);
  // Tighter targets need quadratically more trials.
  EXPECT_GT(trials_for_ci95(0.5, 0.01), 9000u);
  EXPECT_THROW(trials_for_ci95(0.5, 0.0), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<float> xs{4.0f, 1.0f, 3.0f, 2.0f};
  EXPECT_FLOAT_EQ(percentile(xs, 0.0), 1.0f);
  EXPECT_FLOAT_EQ(percentile(xs, 100.0), 4.0f);
  EXPECT_FLOAT_EQ(percentile(xs, 50.0), 2.5f);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(Stats, RunningRangeObservesAndMerges) {
  RunningRange a;
  a.observe(3.0f);
  a.observe(-1.0f);
  EXPECT_FLOAT_EQ(a.min_value, -1.0f);
  EXPECT_FLOAT_EQ(a.max_value, 3.0f);
  EXPECT_EQ(a.count, 2u);

  RunningRange b;
  b.observe(10.0f);
  a.merge(b);
  EXPECT_FLOAT_EQ(a.max_value, 10.0f);
  EXPECT_EQ(a.count, 3u);

  RunningRange empty;
  a.merge(empty);
  EXPECT_EQ(a.count, 3u);
}

TEST(Stats, ReservoirKeepsAllWhenUnderCapacity) {
  Reservoir r(10, 1);
  for (int i = 0; i < 5; ++i) r.observe(static_cast<float>(i));
  EXPECT_EQ(r.values().size(), 5u);
  EXPECT_EQ(r.seen(), 5u);
}

TEST(Stats, ReservoirSamplesUniformly) {
  // With capacity 100 over 10000 observations of 0..9999, the sample mean
  // should be near the population mean.
  Reservoir r(100, 42);
  for (int i = 0; i < 10000; ++i) r.observe(static_cast<float>(i));
  EXPECT_EQ(r.values().size(), 100u);
  double m = 0.0;
  for (float v : r.values()) m += v;
  m /= 100.0;
  EXPECT_NEAR(m, 5000.0, 1500.0);
}

TEST(Rng, DeterministicStreams) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform_index(1000), b.uniform_index(1000));
}

TEST(Rng, DerivedSeedsDiffer) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(5, 9), derive_seed(5, 9));
}

TEST(Rng, UniformIndexInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.uniform_index(17), 17u);
}

int add_one(int x) { return x + 1; }

TEST(FunctionRef, BindsLambdasFunctionPointersAndMutableState) {
  // Capturing lambda: FunctionRef must see the live capture, not a copy.
  // (The lambda is named — a FunctionRef must not outlive its callable,
  // so initialising one from a temporary would dangle.)
  int hits = 0;
  auto bump_fn = [&](int by) { hits += by; };
  FunctionRef<void(int)> bump = bump_fn;
  bump(2);
  bump(3);
  EXPECT_EQ(hits, 5);

  // Function pointer (the pointer object is the referenced callable, so
  // it must outlive the ref — same contract as a lambda).
  int (*fp)(int) = add_one;
  FunctionRef<int(int)> f = fp;
  EXPECT_EQ(f(41), 42);

  // Return values and reference arguments pass through the trampoline.
  std::vector<int> sink;
  auto push_fn = [](std::vector<int>& v) { v.push_back(7); };
  FunctionRef<void(std::vector<int>&)> push = push_fn;
  push(sink);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink[0], 7);

  // Two words, never allocates: the whole point of replacing
  // std::function on the parallel_for hot path.
  static_assert(sizeof(FunctionRef<void(std::size_t)>) <=
                2 * sizeof(void*));
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> counts(n);
  parallel_for(n, [&](std::size_t i) { counts[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, HandlesZeroAndSingleThread) {
  std::atomic<int> sum{0};
  parallel_for(0, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 0);
  parallel_for(5, [&](std::size_t) { sum.fetch_add(1); }, 1);
  EXPECT_EQ(sum.load(), 5);
}

TEST(ThreadPool, OneThreadCapKeepsNestedLoopsInline) {
  // A --threads 1 campaign caps its trial loop at one worker; the blocked
  // kernels nested in each trial must then stay on the calling thread
  // instead of spawning hardware_concurrency threads per call.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  parallel_for(
      3,
      [&](std::size_t) {
        parallel_for(64, [&](std::size_t) {
          if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
        });
      },
      1);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPool, RethrowsWorkerExceptionToCaller) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(
                   1000,
                   [&](std::size_t i) {
                     ran.fetch_add(1);
                     if (i == 37) throw std::runtime_error("task 37");
                   },
                   4),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // The pool is reusable afterwards.
  std::atomic<int> sum{0};
  parallel_for(10, [&](std::size_t) { sum.fetch_add(1); }, 4);
  EXPECT_EQ(sum.load(), 10);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"model", "sdc"});
  t.add_row({"LeNet", "19.65%"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("19.65%"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(12.3456, 2), "12.35%");
}

}  // namespace
}  // namespace rangerpp::util
