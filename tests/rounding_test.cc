#include "core/rounding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::Figure1Preprocessed;
using testing_fixtures::SmallSyntheticLog;

DpConstraintSystem MakeSystem(const SearchLog& log, double e_eps = 2.0,
                              double delta = 0.5) {
  return DpConstraintSystem::Build(log,
                                   PrivacyParams::FromEEpsilon(e_eps, delta))
      .value();
}

uint64_t Total(const std::vector<uint64_t>& x) {
  return std::accumulate(x.begin(), x.end(), static_cast<uint64_t>(0));
}

TEST(RoundingTest, PlainFloorWhenStagesDisabled) {
  SearchLog log = Figure1Preprocessed();
  DpConstraintSystem system = MakeSystem(log);
  std::vector<double> relaxed = {1.7, 0.2, 2.9};
  RoundingOptions options;
  options.repair = false;
  options.greedy_fill = false;
  std::vector<uint64_t> x = RoundCounts(system, relaxed, options);
  EXPECT_EQ(x, (std::vector<uint64_t>{1, 0, 2}));
}

TEST(RoundingTest, SnapToleranceCountsNearIntegers) {
  SearchLog log = Figure1Preprocessed();
  DpConstraintSystem system = MakeSystem(log);
  std::vector<double> relaxed = {1.99999995, 0.0, 0.0};
  RoundingOptions options;
  options.repair = false;
  options.greedy_fill = false;
  std::vector<uint64_t> x = RoundCounts(system, relaxed, options);
  EXPECT_EQ(x[0], 2u);
}

// The snap tolerance must never carry a count past a row the relaxed point
// holds exactly tight: 2 − 5e-8 snaps to 2, which overruns the row by
// 5e-8 · log t. The snap is undone instead, whether or not the later stages
// run.
TEST(RoundingTest, SnapNeverOverrunsATightRow) {
  SearchLog log = Figure1Preprocessed();
  DpConstraintSystem system = DpConstraintSystem::BuildRows(log).value();
  const PairId pair = 0;
  const double value = 2.0 - 5e-8;
  double heaviest = 0.0;
  for (size_t r = 0; r < system.num_rows(); ++r) {
    for (const DpConstraintEntry& e : system.Row(r)) {
      if (e.pair == pair) heaviest = std::max(heaviest, e.log_t);
    }
  }
  ASSERT_GT(heaviest, 0.0);
  system.SetBudget(value * heaviest);
  std::vector<double> relaxed(log.num_pairs(), 0.0);
  relaxed[pair] = value;

  RoundingOptions plain;
  plain.repair = false;
  plain.greedy_fill = false;
  for (const RoundingOptions& options : {plain, RoundingOptions{}}) {
    std::vector<uint64_t> x = RoundCounts(system, relaxed, options);
    EXPECT_EQ(x[pair], 1u);
    EXPECT_TRUE(system.IsSatisfied(x));
  }
}

TEST(RoundingTest, ResultAlwaysFeasible) {
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem system = MakeSystem(log);
  std::vector<double> relaxed(log.num_pairs(), 0.4);
  std::vector<uint64_t> x = RoundCounts(system, relaxed, RoundingOptions{});
  EXPECT_TRUE(system.IsSatisfied(x));
}

TEST(RoundingTest, RepairAndFillBeatPlainFloor) {
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem system = MakeSystem(log);
  // All-fractional relaxed point: plain flooring gives zero.
  std::vector<double> relaxed(log.num_pairs(), 0.3);
  RoundingOptions plain;
  plain.repair = false;
  plain.greedy_fill = false;
  RoundingOptions full;
  EXPECT_EQ(Total(RoundCounts(system, relaxed, plain)), 0u);
  EXPECT_GT(Total(RoundCounts(system, relaxed, full)), 0u);
}

TEST(RoundingTest, GreedyFillIsMaximal) {
  // After rounding, no pair can take one more unit.
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem system = MakeSystem(log);
  std::vector<double> relaxed(log.num_pairs(), 0.9);
  std::vector<uint64_t> x = RoundCounts(system, relaxed, RoundingOptions{});
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    std::vector<uint64_t> bumped = x;
    ++bumped[p];
    EXPECT_FALSE(system.IsSatisfied(bumped)) << "pair " << p;
  }
}

TEST(RoundingTest, TargetTotalIsRespected) {
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem system = MakeSystem(log, 2.3, 0.8);
  std::vector<double> relaxed(log.num_pairs(), 0.6);
  RoundingOptions options;
  options.target_total = 3;
  std::vector<uint64_t> x = RoundCounts(system, relaxed, options);
  EXPECT_LE(Total(x), 3u);
}

TEST(RoundingTest, CapsAreHonored) {
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem system = MakeSystem(log, 2.3, 0.8);
  std::vector<double> relaxed(log.num_pairs(), 2.5);
  std::vector<uint64_t> caps(log.num_pairs(), 1);
  RoundingOptions options;
  options.caps = caps;
  std::vector<uint64_t> x = RoundCounts(system, relaxed, options);
  for (uint64_t v : x) EXPECT_LE(v, 1u);
}

TEST(RoundingTest, NegativeRelaxedValuesClampToZero) {
  SearchLog log = Figure1Preprocessed();
  DpConstraintSystem system = MakeSystem(log);
  std::vector<double> relaxed = {-0.5, -2.0, -0.1};
  RoundingOptions plain;
  plain.repair = false;
  plain.greedy_fill = false;
  std::vector<uint64_t> x = RoundCounts(system, relaxed, plain);
  EXPECT_EQ(Total(x), 0u);
}

TEST(RoundingTest, DeterministicAcrossCalls) {
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem system = MakeSystem(log);
  std::vector<double> relaxed(log.num_pairs());
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    relaxed[p] = 0.1 + 0.77 * (p % 5);
  }
  EXPECT_EQ(RoundCounts(system, relaxed, RoundingOptions{}),
            RoundCounts(system, relaxed, RoundingOptions{}));
}

}  // namespace
}  // namespace privsan
