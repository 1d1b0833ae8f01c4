// The contract callers of UmpProblem rely on: one problem over DP rows
// built once answers a sequence of unhinted queries exactly as fresh rows
// plus a fresh problem per query would. Only the right-hand sides and
// bounds move between queries, so no earlier query may leak into a later
// answer — not even into the path of a later simplex run.
#include "core/ump.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/constraints.h"
#include "log/preprocess.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::SmallSyntheticLog;

using Factory = std::function<Result<std::unique_ptr<UmpProblem>>(
    const SearchLog&, DpConstraintSystem*)>;

UmpQuery Query(double e_eps, double delta, uint64_t output_size = 0) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
  query.output_size = output_size;
  return query;
}

// Solves `queries` in order on one problem, and each on fresh rows and a
// fresh problem, and expects bit-identical answers.
void ExpectReusedMatchesFresh(const SearchLog& log, const Factory& make,
                              const std::vector<UmpQuery>& queries) {
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  std::unique_ptr<UmpProblem> reused = make(log, &rows).value();
  for (const UmpQuery& query : queries) {
    SCOPED_TRACE(query.privacy.ToString() +
                 " |O|=" + std::to_string(query.output_size));
    UmpSolution again = reused->Solve(query).value();
    DpConstraintSystem fresh_rows = DpConstraintSystem::BuildRows(log).value();
    UmpSolution fresh = make(log, &fresh_rows).value()->Solve(query).value();
    EXPECT_EQ(again.x, fresh.x);
    EXPECT_EQ(again.x_relaxed, fresh.x_relaxed);
    EXPECT_EQ(again.objective_value, fresh.objective_value);
    EXPECT_EQ(again.output_size, fresh.output_size);
  }
}

// Budgets out of order, with a repeat, so a query never just continues
// the previous one.
std::vector<UmpQuery> BudgetGrid() {
  return {Query(2.0, 0.5), Query(1.1, 0.1),  Query(2.3, 0.8),
          Query(1.4, 1e-3), Query(1.7, 0.2), Query(2.0, 0.5)};
}

TEST(UmpProblemReuseTest, OumpMatchesFreshProblems) {
  ExpectReusedMatchesFresh(
      SmallSyntheticLog(),
      [](const SearchLog& log, DpConstraintSystem* rows) {
        return MakeOumpProblem(log, rows);
      },
      BudgetGrid());
}

TEST(UmpProblemReuseTest, CappedOumpMatchesFreshProblems) {
  ExpectReusedMatchesFresh(
      SmallSyntheticLog(),
      [](const SearchLog& log, DpConstraintSystem* rows) {
        return MakeOumpProblem(log, rows, {.cap_counts_at_input = true});
      },
      BudgetGrid());
}

TEST(UmpProblemReuseTest, FumpMatchesFreshProblemsAcrossOutputSizes) {
  const SearchLog log = SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  const uint64_t lambda = MakeOumpProblem(log, &rows)
                              .value()
                              ->Solve(Query(2.0, 0.5))
                              .value()
                              .output_size;
  ASSERT_GE(lambda, 4u);
  ExpectReusedMatchesFresh(
      log,
      [](const SearchLog& log, DpConstraintSystem* rows) {
        return MakeFumpProblem(log, rows, {.min_support = 1.0 / 100});
      },
      {Query(2.0, 0.5, lambda / 2), Query(2.0, 0.5, lambda / 4),
       Query(2.0, 0.5, lambda), Query(2.3, 0.8, lambda / 3),
       Query(2.0, 0.5, 3 * lambda / 4), Query(2.0, 0.5, lambda / 2)});
}

TEST(UmpProblemReuseTest, DumpMatchesFreshProblemsForSpeAndLpRounding) {
  std::vector<UmpQuery> queries;
  for (DumpSolverKind solver :
       {DumpSolverKind::kSpe, DumpSolverKind::kLpRounding}) {
    for (UmpQuery query : BudgetGrid()) {
      query.solver = solver;
      queries.push_back(query);
    }
  }
  ExpectReusedMatchesFresh(
      SmallSyntheticLog(),
      [](const SearchLog& log, DpConstraintSystem* rows) {
        return MakeDumpProblem(log, rows);
      },
      queries);
}

// The medium log (BenchScaleConfig: 400 users, about 3.3k pairs after
// preprocessing), where an LP takes thousands of pivots.
SearchLog MediumLog() {
  return RemoveUniquePairs(GenerateSearchLog(BenchScaleConfig()).value()).log;
}

// An O-UMP problem that has answered two budgets runs an unhinted third
// exactly as a fresh problem runs its first: same counts, same objective,
// same pivots. Uncapped, the second answer scales the first optimum;
// capped, every answer runs the simplex (the second from the first's
// basis).
TEST(UmpProblemReuseTest, OumpLpOnAUsedProblemMatchesAFreshOne) {
  const SearchLog log = MediumLog();
  for (const OumpSpec spec :
       {OumpSpec{}, OumpSpec{.cap_counts_at_input = true}}) {
    SCOPED_TRACE(spec.cap_counts_at_input ? "capped" : "uncapped");
    DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
    std::unique_ptr<UmpProblem> used =
        MakeOumpProblem(log, &rows, spec).value();
    const WarmStartHint hint{used->Solve(Query(2.0, 0.5)).value().basis};
    const UmpSolution second = used->Solve(Query(1.4, 0.1), &hint).value();
    EXPECT_EQ(second.stats.simplex_iterations == 0,
              !spec.cap_counts_at_input);
    const UmpSolution again = used->Solve(Query(2.3, 0.8)).value();

    DpConstraintSystem fresh_rows = DpConstraintSystem::BuildRows(log).value();
    const UmpSolution fresh = MakeOumpProblem(log, &fresh_rows, spec)
                                  .value()
                                  ->Solve(Query(2.3, 0.8))
                                  .value();
    EXPECT_GT(fresh.stats.simplex_iterations, 0u);
    EXPECT_EQ(again.x, fresh.x);
    EXPECT_EQ(again.objective_value, fresh.objective_value);
    EXPECT_EQ(again.stats.simplex_iterations, fresh.stats.simplex_iterations);
  }
}

// A D-UMP problem that has answered SPE, greedy and LP-rounding cells at
// other budgets runs an unhinted branch & bound cell exactly as a fresh
// problem does, at a budget where integer presolve fixes pairs.
TEST(UmpProblemReuseTest, DumpBranchAndBoundOnAUsedProblemMatchesAFreshOne) {
  const SearchLog log = MediumLog();
  const DumpSpec spec{.bnb = {.max_nodes = 8}};
  auto query = [](double e_eps, double delta, DumpSolverKind solver) {
    UmpQuery q = Query(e_eps, delta);
    q.solver = solver;
    return q;
  };
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  std::unique_ptr<UmpProblem> used = MakeDumpProblem(log, &rows, spec).value();
  ASSERT_TRUE(used->Solve(query(2.0, 0.5, DumpSolverKind::kSpe)).ok());
  ASSERT_TRUE(used->Solve(query(1.4, 0.1, DumpSolverKind::kGreedy)).ok());
  ASSERT_TRUE(used->Solve(query(2.3, 0.8, DumpSolverKind::kLpRounding)).ok());
  const UmpQuery bnb = query(1.1, 0.5, DumpSolverKind::kBranchAndBound);
  const UmpSolution again = used->Solve(bnb).value();

  DpConstraintSystem fresh_rows = DpConstraintSystem::BuildRows(log).value();
  const UmpSolution fresh =
      MakeDumpProblem(log, &fresh_rows, spec).value()->Solve(bnb).value();
  EXPECT_GT(fresh.stats.integer_fixed, 0);
  EXPECT_GT(fresh.stats.simplex_iterations, 0u);
  EXPECT_EQ(again.x, fresh.x);
  EXPECT_EQ(again.stats.nodes_explored, fresh.stats.nodes_explored);
  EXPECT_EQ(again.stats.simplex_iterations, fresh.stats.simplex_iterations);
  EXPECT_EQ(again.stats.integer_fixed, fresh.stats.integer_fixed);
}

}  // namespace
}  // namespace privsan
