#include "core/query_diversity.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/audit.h"
#include "core/constraints.h"
#include "core/ump.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::SmallSyntheticLog;
using testing_fixtures::TwoUserSharedLog;

TEST(QueryDiversityTest, RejectsUnpreprocessedLog) {
  EXPECT_FALSE(SolveQueryDiversity(testing_fixtures::Figure1Log(),
                                   PrivacyParams{1.0, 0.5})
                   .ok());
}

TEST(QueryDiversityTest, CountCoveredQueries) {
  SearchLog log = SmallSyntheticLog();
  std::vector<uint64_t> none(log.num_pairs(), 0);
  EXPECT_EQ(CountCoveredQueries(log, none), 0);
  std::vector<uint64_t> all(log.num_pairs(), 1);
  EXPECT_EQ(CountCoveredQueries(log, all),
            static_cast<int64_t>(log.num_queries()));
}

TEST(QueryDiversityTest, TwoUserAnalyticCase) {
  // Budget log 2 admits exactly one pair (see spe_test); both pairs belong
  // to distinct queries, so exactly one query is covered.
  SearchLog log = TwoUserSharedLog();
  QueryDiversityResult result =
      SolveQueryDiversity(log, PrivacyParams::FromEEpsilon(2.0, 0.5)).value();
  EXPECT_EQ(result.queries_retained, 1);
  EXPECT_EQ(result.pairs_retained, 1);
}

TEST(QueryDiversityTest, SolutionIsPrivate) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(1.7, 0.2);
  QueryDiversityResult result = SolveQueryDiversity(log, params).value();
  AuditReport audit = AuditSolution(log, params, result.x).value();
  EXPECT_TRUE(audit.satisfies_privacy) << audit.ToString();
}

TEST(QueryDiversityTest, CountsAreBinary) {
  SearchLog log = SmallSyntheticLog();
  QueryDiversityResult result =
      SolveQueryDiversity(log, PrivacyParams::FromEEpsilon(2.0, 0.5)).value();
  for (uint64_t v : result.x) EXPECT_LE(v, 1u);
  EXPECT_EQ(result.queries_retained, CountCoveredQueries(log, result.x));
}

TEST(QueryDiversityTest, CoversAtLeastAsManyQueriesAsPairDump) {
  // Maximizing query coverage directly should never cover fewer queries
  // than the pair-diversity heuristic does incidentally.
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  QueryDiversityResult qd = SolveQueryDiversity(log, params).value();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution dump =
      MakeDumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  EXPECT_GE(qd.queries_retained,
            CountCoveredQueries(log, dump.x));
}

TEST(QueryDiversityTest, MonotoneInBudget) {
  SearchLog log = SmallSyntheticLog();
  int64_t prev = 0;
  for (double delta : {1e-2, 1e-1, 0.5, 0.8}) {
    QueryDiversityResult result =
        SolveQueryDiversity(log, PrivacyParams::FromEEpsilon(2.0, delta))
            .value();
    EXPECT_GE(result.queries_retained, prev) << "delta=" << delta;
    prev = result.queries_retained;
  }
}

TEST(QueryDiversityTest, RatioConsistent) {
  SearchLog log = SmallSyntheticLog();
  QueryDiversityResult result =
      SolveQueryDiversity(log, PrivacyParams::FromEEpsilon(2.0, 0.5)).value();
  EXPECT_NEAR(result.query_diversity_ratio,
              static_cast<double>(result.queries_retained) /
                  static_cast<double>(log.num_queries()),
              1e-12);
}

}  // namespace
}  // namespace privsan
