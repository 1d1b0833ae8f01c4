// The contract callers of UmpProblem rely on: one problem over DP rows
// built once answers a sequence of unhinted queries exactly as fresh rows
// plus a fresh problem per query would. Only the right-hand sides and
// bounds move between queries, so no earlier query may leak into a later
// answer.
#include "core/ump.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/constraints.h"
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

}  // namespace
}  // namespace privsan
