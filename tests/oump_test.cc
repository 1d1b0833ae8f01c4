// O-UMP (§5.1) through MakeOumpProblem: one set of DP rows and one
// problem per log, solved per query without a warm-start hint.
#include <gtest/gtest.h>

#include <memory>

#include "core/audit.h"
#include "core/constraints.h"
#include "core/ump.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::Figure1Preprocessed;
using testing_fixtures::SmallSyntheticLog;
using testing_fixtures::TwoUserSharedLog;

TEST(OumpTest, RejectsUnpreprocessedLog) {
  auto rows = DpConstraintSystem::BuildRows(testing_fixtures::Figure1Log());
  EXPECT_EQ(rows.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OumpTest, TwoUserAnalyticOptimum) {
  // TwoUserSharedLog rows (see constraints_test):
  //   alice: 0.5108 x1 + 0.6931 x2 <= B
  //   bob:   0.9163 x1 + 0.6931 x2 <= B
  // bob's row dominates alice's, and 1/0.6931 > 1/0.9163, so the relaxed
  // optimum puts everything on x2: lambda_relaxed = B / log 2.
  SearchLog log = TwoUserSharedLog();
  PairId q2 = *log.FindPair("q2", "u2");
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeOumpProblem(log, &rows).value();

  PrivacyParams params = PrivacyParams::FromEEpsilon(4.0, 0.75);
  // B = min(log 4, log 4) = 2 log 2 -> x2 = 2.
  UmpSolution result = problem->Solve({.privacy = params}).value();
  EXPECT_NEAR(result.objective_value, 2.0, 1e-7);
  EXPECT_EQ(result.output_size, 2u);
  EXPECT_EQ(result.x[q2], 2u);
}

TEST(OumpTest, LambdaScalesWithBudget) {
  SearchLog log = TwoUserSharedLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeOumpProblem(log, &rows).value();
  // B = log 2 -> relaxed optimum exactly 1.0.
  UmpSolution one =
      problem->Solve({.privacy = PrivacyParams::FromEEpsilon(2.0, 0.5)})
          .value();
  EXPECT_NEAR(one.objective_value, 1.0, 1e-7);
  // B = 3 log 2 -> 3.0.
  UmpSolution three =
      problem->Solve({.privacy = PrivacyParams::FromEEpsilon(8.0, 0.875)})
          .value();
  EXPECT_NEAR(three.objective_value, 3.0, 1e-7);
}

TEST(OumpTest, SolutionSatisfiesConstraints) {
  SearchLog log = Figure1Preprocessed();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution result =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  DpConstraintSystem system = DpConstraintSystem::Build(log, params).value();
  EXPECT_TRUE(system.IsSatisfied(result.x));
  EXPECT_GT(result.output_size, 0u);
}

TEST(OumpTest, RoundedTotalBelowLpBound) {
  // The rounding (floor + remainder repair + greedy fill) may push an
  // individual pair past its relaxed value, but the total is an integral
  // feasible point and can never exceed the LP optimum.
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution result =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  EXPECT_LE(static_cast<double>(result.output_size),
            result.objective_value + 1e-6);
  DpConstraintSystem system = DpConstraintSystem::Build(log, params).value();
  EXPECT_TRUE(system.IsSatisfied(result.x));
}

TEST(OumpTest, LambdaMonotoneInEpsilon) {
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeOumpProblem(log, &rows).value();
  uint64_t prev = 0;
  for (double e_eps : {1.001, 1.01, 1.1, 1.4, 1.7, 2.0, 2.3}) {
    UmpSolution result =
        problem->Solve({.privacy = PrivacyParams::FromEEpsilon(e_eps, 0.1)})
            .value();
    EXPECT_GE(result.output_size, prev) << "e_eps=" << e_eps;
    prev = result.output_size;
  }
}

TEST(OumpTest, LambdaMonotoneInDelta) {
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeOumpProblem(log, &rows).value();
  uint64_t prev = 0;
  for (double delta : {1e-4, 1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8}) {
    UmpSolution result =
        problem->Solve({.privacy = PrivacyParams::FromEEpsilon(1.7, delta)})
            .value();
    EXPECT_GE(result.output_size, prev) << "delta=" << delta;
    prev = result.output_size;
  }
}

TEST(OumpTest, LambdaPlateausWhenDeltaBinds) {
  // With delta = 1e-3, log(1/(1-delta)) ~ 1e-3 < log(1.1): every epsilon
  // above that produces the identical budget, hence identical lambda.
  // This is the column structure of Table 4.
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeOumpProblem(log, &rows).value();
  UmpSolution a =
      problem->Solve({.privacy = PrivacyParams::FromEEpsilon(1.1, 1e-3)})
          .value();
  UmpSolution b =
      problem->Solve({.privacy = PrivacyParams::FromEEpsilon(2.3, 1e-3)})
          .value();
  EXPECT_EQ(a.output_size, b.output_size);
}

TEST(OumpTest, LambdaPlateausWhenEpsilonBinds) {
  // Row structure of Table 4: with e^eps = 1.01, every delta whose
  // log(1/(1-delta)) exceeds log(1.01) gives the same budget.
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeOumpProblem(log, &rows).value();
  UmpSolution a =
      problem->Solve({.privacy = PrivacyParams::FromEEpsilon(1.01, 0.1)})
          .value();
  UmpSolution b =
      problem->Solve({.privacy = PrivacyParams::FromEEpsilon(1.01, 0.8)})
          .value();
  EXPECT_EQ(a.output_size, b.output_size);
}

TEST(OumpTest, CapCountsAtInputReducesLambda) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.3, 0.8);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto uncapped = MakeOumpProblem(log, &rows).value();
  auto capped =
      MakeOumpProblem(log, &rows, {.cap_counts_at_input = true}).value();
  UmpSolution u = uncapped->Solve({.privacy = params}).value();
  UmpSolution c = capped->Solve({.privacy = params}).value();
  EXPECT_LE(c.output_size, u.output_size);
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    EXPECT_LE(c.x[p], log.pair_total(p));
  }
}

TEST(OumpTest, SolutionPassesAudit) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(1.7, 0.2);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution result =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  AuditReport audit = AuditSolution(log, params, result.x).value();
  EXPECT_TRUE(audit.satisfies_privacy) << audit.ToString();
}

TEST(OumpTest, OutputFractionIsSubstantial) {
  // Paper: 7%-26% of |D| is retained across the grid. Assert a sane band
  // on the synthetic log at the loosest setting.
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution result =
      MakeOumpProblem(log, &rows)
          .value()
          ->Solve({.privacy = PrivacyParams::FromEEpsilon(2.3, 0.8)})
          .value();
  const double fraction = static_cast<double>(result.output_size) /
                          static_cast<double>(log.total_clicks());
  EXPECT_GT(fraction, 0.01);
  EXPECT_LT(fraction, 1.0);
}

}  // namespace
}  // namespace privsan
