// D-UMP (§5.3): the Equation-8 BIP, and MakeDumpProblem solved per query
// (one set of DP rows and one problem per log, no warm-start hint).
#include "core/dump.h"

#include <gtest/gtest.h>

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

TEST(DumpTest, BuildBipShape) {
  SearchLog log = testing_fixtures::Figure1Preprocessed();
  lp::BipProblem problem =
      BuildDumpBip(log, PrivacyParams::FromEEpsilon(2.0, 0.5)).value();
  EXPECT_EQ(problem.num_vars(), 3);
  EXPECT_EQ(problem.num_rows, 3);
  EXPECT_TRUE(problem.Validate().ok());
}

TEST(DumpTest, RejectsUnpreprocessedLog) {
  EXPECT_FALSE(
      BuildDumpBip(testing_fixtures::Figure1Log(), PrivacyParams{1.0, 0.5})
          .ok());
}

TEST(DumpTest, AllSolversProduceFeasibleSolutions) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(1.7, 0.2);
  lp::BipProblem problem = BuildDumpBip(log, params).value();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  DumpSpec spec;
  spec.bnb.max_nodes = 30;  // budgeted exact solver
  spec.bnb.time_limit_seconds = 10;
  auto dump = MakeDumpProblem(log, &rows, spec).value();

  for (DumpSolverKind kind :
       {DumpSolverKind::kSpe, DumpSolverKind::kGreedy,
        DumpSolverKind::kLpRounding, DumpSolverKind::kBranchAndBound}) {
    UmpSolution result =
        dump->Solve({.privacy = params, .solver = kind}).value();
    std::vector<uint8_t> y(result.x.begin(), result.x.end());
    EXPECT_TRUE(problem.IsFeasible(y))
        << DumpSolverKindToString(kind);
    EXPECT_GT(result.output_size, 0u) << DumpSolverKindToString(kind);
    for (uint64_t v : result.x) EXPECT_LE(v, 1u);
  }
}

// The LP-backed solvers carry the simplex kernel's health with their
// effort: every answer that pivoted also reports the peak factorization
// fill and the longest update run of its LP solves.
TEST(DumpTest, LpSolversReportKernelHealth) {
  SearchLog log = SmallSyntheticLog();
  const PrivacyParams params = PrivacyParams::FromEEpsilon(1.7, 0.2);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  DumpSpec spec;
  spec.bnb.max_nodes = 30;
  spec.bnb.time_limit_seconds = 10;
  auto dump = MakeDumpProblem(log, &rows, spec).value();

  for (DumpSolverKind kind :
       {DumpSolverKind::kLpRounding, DumpSolverKind::kBranchAndBound}) {
    SCOPED_TRACE(DumpSolverKindToString(kind));
    const UmpStats stats =
        dump->Solve({.privacy = params, .solver = kind}).value().stats;
    ASSERT_GT(stats.simplex_iterations, 0u);
    EXPECT_GT(stats.refactorizations, 0u);
    EXPECT_GT(stats.factor_nnz, 0u);
    EXPECT_GT(stats.max_update_run, 0u);
  }
}

TEST(DumpTest, SolutionsPassAudit) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(1.4, 0.1);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto dump = MakeDumpProblem(log, &rows).value();
  for (DumpSolverKind kind : {DumpSolverKind::kSpe, DumpSolverKind::kGreedy,
                              DumpSolverKind::kLpRounding}) {
    UmpSolution result =
        dump->Solve({.privacy = params, .solver = kind}).value();
    AuditReport audit = AuditSolution(log, params, result.x).value();
    EXPECT_TRUE(audit.satisfies_privacy)
        << DumpSolverKindToString(kind) << ": " << audit.ToString();
  }
}

TEST(DumpTest, DiversityRatioConsistent) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution result =
      MakeDumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  EXPECT_NEAR(DiversityRatio(result.x),
              static_cast<double>(result.output_size) / log.num_pairs(),
              1e-12);
}

TEST(DumpTest, ExactSolverOptimalOnTinyInstance) {
  SearchLog log = TwoUserSharedLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution result =
      MakeDumpProblem(log, &rows, {.solver = DumpSolverKind::kBranchAndBound})
          .value()
          ->Solve({.privacy = params})
          .value();
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.output_size, 1u);
}

TEST(DumpTest, SpeMatchesExactOnTinyInstance) {
  SearchLog log = TwoUserSharedLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto dump = MakeDumpProblem(log, &rows).value();
  EXPECT_EQ(
      dump->Solve({.privacy = params, .solver = DumpSolverKind::kSpe})
          .value()
          .output_size,
      dump->Solve({.privacy = params,
                   .solver = DumpSolverKind::kBranchAndBound})
          .value()
          .output_size);
}

TEST(DumpTest, DiversityMonotoneInBudget) {
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto dump = MakeDumpProblem(log, &rows).value();
  double prev = 0.0;
  for (double delta : {1e-3, 1e-2, 1e-1, 0.5}) {
    UmpSolution result =
        dump->Solve({.privacy = PrivacyParams::FromEEpsilon(2.0, delta)})
            .value();
    const double ratio = DiversityRatio(result.x);
    EXPECT_GE(ratio, prev - 1e-12) << "delta=" << delta;
    prev = ratio;
  }
}

TEST(DumpTest, WallSecondsPopulated) {
  SearchLog log = SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution result =
      MakeDumpProblem(log, &rows)
          .value()
          ->Solve({.privacy = PrivacyParams::FromEEpsilon(2.0, 0.5)})
          .value();
  EXPECT_GE(result.stats.wall_seconds, 0.0);
}

TEST(DumpTest, SolverKindNames) {
  EXPECT_STREQ(DumpSolverKindToString(DumpSolverKind::kSpe), "SPE");
  EXPECT_STREQ(DumpSolverKindToString(DumpSolverKind::kGreedy), "Greedy");
  EXPECT_STREQ(DumpSolverKindToString(DumpSolverKind::kLpRounding),
               "LP-round");
  EXPECT_STREQ(DumpSolverKindToString(DumpSolverKind::kBranchAndBound),
               "B&B");
}

}  // namespace
}  // namespace privsan
