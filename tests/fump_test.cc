// F-UMP (§5.2) through MakeFumpProblem: one set of DP rows per log and
// one problem per minimum support, solved per (budget, |O|) query without
// a warm-start hint.
#include "core/fump.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/audit.h"
#include "core/constraints.h"
#include "core/ump.h"
#include "metrics/utility_metrics.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::SmallSyntheticLog;
using testing_fixtures::TwoUserSharedLog;

TEST(FumpTest, RequiresOutputSize) {
  SearchLog log = TwoUserSharedLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeFumpProblem(log, &rows).value();
  EXPECT_EQ(
      problem->Solve({.privacy = PrivacyParams{1.0, 0.5}, .output_size = 0})
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(FumpTest, RejectsBadSupport) {
  SearchLog log = TwoUserSharedLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  EXPECT_FALSE(MakeFumpProblem(log, &rows, {.min_support = 0.0}).ok());
  EXPECT_FALSE(MakeFumpProblem(log, &rows, {.min_support = 1.5}).ok());
}

TEST(FumpTest, FrequentPairsDetection) {
  SearchLog log = TwoUserSharedLog();
  // Supports: q1 = 10/16 = 0.625, q2 = 6/16 = 0.375.
  EXPECT_EQ(FrequentPairs(log, 0.5).size(), 1u);
  EXPECT_EQ(FrequentPairs(log, 0.3).size(), 2u);
  EXPECT_EQ(FrequentPairs(log, 0.7).size(), 0u);
}

TEST(FumpTest, TwoUserAnalyticOptimum) {
  // With B = 2 log 2 and |O| = 2, the only feasible point is x = (0, 2)
  // (see the derivation in the repo's test notes): bob's row forbids any
  // mass on q1 once |O| = 2 is required. Objective = 0.625 + 0.625 = 1.25.
  SearchLog log = TwoUserSharedLog();
  PairId q1 = *log.FindPair("q1", "u1");
  PairId q2 = *log.FindPair("q2", "u2");
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  // min_support 0.1: both pairs frequent.
  auto problem = MakeFumpProblem(log, &rows, {.min_support = 0.1}).value();

  PrivacyParams params = PrivacyParams::FromEEpsilon(4.0, 0.75);
  UmpSolution result =
      problem->Solve({.privacy = params, .output_size = 2}).value();
  EXPECT_NEAR(result.objective_value, 1.25, 1e-6);
  EXPECT_NEAR(result.x_relaxed[q1], 0.0, 1e-7);
  EXPECT_NEAR(result.x_relaxed[q2], 2.0, 1e-7);
  EXPECT_EQ(result.x[q2], 2u);
}

TEST(FumpTest, InfeasibleWhenOutputSizeExceedsLambda) {
  SearchLog log = TwoUserSharedLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(4.0, 0.75);  // lambda = 2
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeFumpProblem(log, &rows, {.min_support = 0.1}).value();
  EXPECT_EQ(problem->Solve({.privacy = params, .output_size = 3})
                .status()
                .code(),
            StatusCode::kInfeasible);
}

TEST(FumpTest, SolutionSatisfiesConstraintsAndAudit) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();

  const uint64_t output_size = oump.output_size / 2;
  ASSERT_GT(output_size, 0u);
  UmpSolution result = MakeFumpProblem(log, &rows, {.min_support = 1.0 / 100})
                           .value()
                           ->Solve({.privacy = params,
                                    .output_size = output_size})
                           .value();

  DpConstraintSystem system = DpConstraintSystem::Build(log, params).value();
  EXPECT_TRUE(system.IsSatisfied(result.x));
  AuditReport audit = AuditSolution(log, params, result.x).value();
  EXPECT_TRUE(audit.satisfies_privacy) << audit.ToString();
}

TEST(FumpTest, RealizedSizeNearRequested) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  const uint64_t output_size = oump.output_size / 2;
  UmpSolution result = MakeFumpProblem(log, &rows, {.min_support = 1.0 / 100})
                           .value()
                           ->Solve({.privacy = params,
                                    .output_size = output_size})
                           .value();
  // Flooring loses at most one click per pair.
  EXPECT_LE(result.output_size, output_size);
  EXPECT_GE(result.output_size + log.num_pairs(), output_size);
}

TEST(FumpTest, PrecisionIsOne) {
  // Section 6.3: every pair frequent in the output was already frequent in
  // the input — reducing an infrequent pair's count toward its input
  // support can only improve the objective.
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  for (double support : {1.0 / 50, 1.0 / 100, 1.0 / 250}) {
    UmpSolution result = MakeFumpProblem(log, &rows, {.min_support = support})
                             .value()
                             ->Solve({.privacy = params,
                                      .output_size = oump.output_size / 2})
                             .value();
    PrecisionRecall pr = FrequentPairMetrics(log, result.x, support);
    EXPECT_DOUBLE_EQ(pr.precision, 1.0) << "s=" << support;
  }
}

TEST(FumpTest, RecallImprovesWithBudget) {
  SearchLog log = SmallSyntheticLog();
  const double support = 1.0 / 100;
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto oump_problem = MakeOumpProblem(log, &rows).value();
  auto fump_problem =
      MakeFumpProblem(log, &rows, {.min_support = support}).value();
  double prev_recall = -1.0;
  for (double e_eps : {1.01, 1.4, 2.3}) {
    PrivacyParams params = PrivacyParams::FromEEpsilon(e_eps, 0.5);
    UmpSolution oump = oump_problem->Solve({.privacy = params}).value();
    if (oump.output_size == 0) continue;  // budget too tight for any output
    const uint64_t output_size = std::max<uint64_t>(1, oump.output_size / 2);
    UmpSolution result =
        fump_problem->Solve({.privacy = params, .output_size = output_size})
            .value();
    PrecisionRecall pr = FrequentPairMetrics(log, result.x, support);
    EXPECT_GE(pr.recall, prev_recall - 0.1)  // allow small non-monotone noise
        << "e_eps=" << e_eps;
    prev_recall = pr.recall;
  }
}

TEST(FumpTest, ObjectiveIsSupportDistanceSum) {
  // The LP objective must equal the metric recomputed from the relaxed
  // solution.
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  const uint64_t output_size = oump.output_size / 2;
  UmpSolution result = MakeFumpProblem(log, &rows, {.min_support = 1.0 / 100})
                           .value()
                           ->Solve({.privacy = params,
                                    .output_size = output_size})
                           .value();

  const double total = static_cast<double>(log.total_clicks());
  double recomputed = 0.0;
  for (PairId f : result.frequent_pairs) {
    const double input_support = static_cast<double>(log.pair_total(f)) / total;
    const double output_support =
        result.x_relaxed[f] / static_cast<double>(output_size);
    recomputed += std::abs(output_support - input_support);
  }
  EXPECT_NEAR(recomputed, result.objective_value, 1e-6);
}

}  // namespace
}  // namespace privsan
