#include "core/laplace_step.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/audit.h"
#include "core/constraints.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::SmallSyntheticLog;

TEST(LaplaceStepTest, RejectsBadOptions) {
  SearchLog log = SmallSyntheticLog();
  std::vector<double> x(log.num_pairs(), 1.0);
  LaplaceStepOptions options;
  options.d = 0.0;
  EXPECT_FALSE(AddLaplaceNoise(log, PrivacyParams{1.0, 0.5}, x, options).ok());
  options.d = 1.0;
  options.epsilon_prime = 0.0;
  EXPECT_FALSE(AddLaplaceNoise(log, PrivacyParams{1.0, 0.5}, x, options).ok());
}

TEST(LaplaceStepTest, RejectsWrongSize) {
  SearchLog log = SmallSyntheticLog();
  std::vector<double> x(log.num_pairs() + 1, 1.0);
  EXPECT_FALSE(
      AddLaplaceNoise(log, PrivacyParams{1.0, 0.5}, x, LaplaceStepOptions{})
          .ok());
}

TEST(LaplaceStepTest, RepairedCountsSatisfyConstraints) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(1.4, 0.1);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();

  LaplaceStepOptions options;
  options.d = 2.0;
  options.epsilon_prime = 0.5;  // heavy noise
  options.repair_feasibility = true;
  LaplaceStepResult noisy =
      AddLaplaceNoise(log, params, oump.x_relaxed, options).value();

  DpConstraintSystem system = DpConstraintSystem::Build(log, params).value();
  EXPECT_TRUE(system.IsSatisfied(noisy.x));
  AuditReport audit = AuditSolution(log, params, noisy.x).value();
  EXPECT_TRUE(audit.satisfies_privacy) << audit.ToString();
}

TEST(LaplaceStepTest, RepairScaleAtMostOne) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(1.4, 0.1);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  LaplaceStepOptions options;
  options.d = 1.0;
  options.epsilon_prime = 1.0;
  LaplaceStepResult noisy =
      AddLaplaceNoise(log, params, oump.x_relaxed, options).value();
  EXPECT_LE(noisy.scale_applied, 1.0);
  EXPECT_GT(noisy.scale_applied, 0.0);
}

TEST(LaplaceStepTest, SmallNoiseKeepsCountsClose) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  LaplaceStepOptions options;
  options.d = 0.01;        // tiny sensitivity bound
  options.epsilon_prime = 10.0;  // scale d/eps' = 0.001
  LaplaceStepResult noisy =
      AddLaplaceNoise(log, params, oump.x_relaxed, options).value();
  // With noise scale 0.001, floored counts differ from floored optimum by
  // at most 1 in all but pathological cases.
  size_t big_moves = 0;
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    const uint64_t base = oump.x[p];
    const uint64_t moved = noisy.x[p];
    if (moved > base + 1 || base > moved + 1) ++big_moves;
  }
  EXPECT_EQ(big_moves, 0u);
}

TEST(LaplaceStepTest, DeterministicInSeed) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  LaplaceStepOptions options;
  options.seed = 77;
  LaplaceStepResult a =
      AddLaplaceNoise(log, params, oump.x_relaxed, options).value();
  LaplaceStepResult b =
      AddLaplaceNoise(log, params, oump.x_relaxed, options).value();
  EXPECT_EQ(a.x, b.x);
}

TEST(SensitivityBoundTest, RejectsBadD) {
  SearchLog log = SmallSyntheticLog();
  EXPECT_FALSE(BoundOumpSensitivity(log, PrivacyParams{1.0, 0.5}, 0.0).ok());
}

TEST(SensitivityBoundTest, LargeDKeepsEveryone) {
  SearchLog log = testing_fixtures::Figure1Preprocessed();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  SensitivityBoundResult result =
      BoundOumpSensitivity(log, params, /*d=*/1e6).value();
  EXPECT_EQ(result.users_removed, 0u);
  EXPECT_EQ(result.log.num_users(), log.num_users());
}

TEST(SensitivityBoundTest, TinyDRemovesInfluentialUsers) {
  SearchLog log = testing_fixtures::Figure1Preprocessed();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  SensitivityBoundResult result =
      BoundOumpSensitivity(log, params, /*d=*/1e-6).value();
  // Removing any of the three users materially changes the optimum on this
  // tiny log, so a near-zero d must drop at least one.
  EXPECT_GT(result.users_removed, 0u);
}

TEST(SensitivityBoundTest, RetainedShiftBoundedByD) {
  SearchLog log = testing_fixtures::Figure1Preprocessed();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const double d = 5.0;
  SensitivityBoundResult result = BoundOumpSensitivity(log, params, d).value();
  EXPECT_LE(result.max_shift_retained, d);
}

TEST(SensitivityBoundTest, ResultLogHasNoUniquePairs) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  SensitivityBoundResult result = BoundOumpSensitivity(log, params, 3.0).value();
  for (PairId p = 0; p < result.log.num_pairs(); ++p) {
    EXPECT_GE(result.log.PairUserCount(p), 2u);
  }
}

}  // namespace
}  // namespace privsan
