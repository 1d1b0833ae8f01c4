// SanitizerSession semantics: warm-started sweeps match per-cell cold
// solves, and AppendUsers matches a from-scratch solve on the concatenated
// log.
#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/constraints.h"
#include "core/ump.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::Figure1Log;
using testing_fixtures::SmallSyntheticLog;

SearchLog SmallSyntheticRaw(uint64_t seed = 7) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = seed;
  return GenerateSearchLog(config).value();
}

// Flattens to sorted (user, query, url, count) tuples so two logs can be
// compared independently of internal id assignment.
std::vector<std::tuple<std::string, std::string, std::string, uint64_t>>
Tuples(const SearchLog& log) {
  std::vector<std::tuple<std::string, std::string, std::string, uint64_t>>
      out;
  for (UserId u = 0; u < log.num_users(); ++u) {
    for (const PairCount& cell : log.UserLogOf(u)) {
      out.emplace_back(log.user_name(u),
                       log.query_name(log.pair_query(cell.pair)),
                       log.url_name(log.pair_url(cell.pair)), cell.count);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

UmpQuery Query(double e_eps, double delta, uint64_t output_size = 0) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
  query.output_size = output_size;
  return query;
}

// O-UMP's feasible region at budget B is B times the unit region, so a
// warm sweep runs the simplex once and answers every later cell by scaling
// that optimum and re-rounding. The scaled cells must match direct solves.
TEST(SessionSweepTest, OumpWarmSweepMatchesColdAndSavesIterations) {
  SanitizerSession session =
      SanitizerSession::Create(SmallSyntheticRaw()).value();
  std::vector<UmpQuery> grid;
  for (double e_eps : {1.1, 1.4, 1.7, 2.0, 2.3}) {
    for (double delta : {0.01, 0.2, 0.5, 0.8}) {
      grid.push_back(Query(e_eps, delta));
    }
  }

  SweepOptions cold_options;
  cold_options.warm_start = false;
  SweepResult cold =
      session.SweepBudgets(UtilityObjective::kOutputSize, grid, cold_options)
          .value();
  SweepResult warm =
      session.SweepBudgets(UtilityObjective::kOutputSize, grid).value();

  ASSERT_EQ(warm.cells.size(), grid.size());
  ASSERT_EQ(cold.cells.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    // Warm starts change the path, never the optimum.
    EXPECT_NEAR(warm.cells[i].objective_value, cold.cells[i].objective_value,
                1e-6 * (1.0 + std::abs(cold.cells[i].objective_value)))
        << "cell " << i;
    EXPECT_EQ(warm.cells[i].output_size, cold.cells[i].output_size)
        << "cell " << i;
  }
  // The first cell runs the simplex; every later one is a scaled answer.
  EXPECT_FALSE(warm.cells.front().stats.warm_started);
  EXPECT_GT(warm.cells.front().stats.refactorizations, 0);
  for (size_t i = 1; i < grid.size(); ++i) {
    const UmpSolution& cell = warm.cells[i];
    EXPECT_TRUE(cell.stats.warm_started) << "cell " << i;
    EXPECT_EQ(cell.stats.simplex_iterations, 0) << "cell " << i;
    EXPECT_EQ(cell.stats.refactorizations, 0) << "cell " << i;
    const DpConstraintSystem rows =
        DpConstraintSystem::Build(session.log(), grid[i].privacy).value();
    EXPECT_TRUE(rows.IsSatisfied(cell.x)) << "cell " << i;
  }
  EXPECT_EQ(warm.warm_solves, static_cast<int64_t>(grid.size()) - 1);
  EXPECT_LT(warm.total_simplex_iterations, cold.total_simplex_iterations);
}

// The cached O-UMP optimum belongs to one log version. After an append, a
// removal or a restore, a warm solve at a budget the old version already
// answered must equal a cold solve of the new log.
TEST(SessionSweepTest, OumpScaledAnswersNeverOutliveTheirLog) {
  const SearchLog full = SmallSyntheticRaw();
  const UserId cut = full.num_users() * 3 / 4;
  const UmpQuery query = Query(2.0, 0.5);
  auto expect_fresh = [&](SanitizerSession& session) {
    const UmpSolution warm =
        session.Solve(UtilityObjective::kOutputSize, query).value();
    EXPECT_GT(warm.stats.refactorizations, 0);  // ran the simplex
    SanitizerSession fresh =
        SanitizerSession::Create(session.raw_log()).value();
    SweepOptions cold_options;
    cold_options.warm_start = false;
    const UmpSolution cold =
        fresh
            .SweepBudgets(UtilityObjective::kOutputSize, {query},
                          cold_options)
            .value()
            .cells.front();
    EXPECT_NEAR(warm.objective_value, cold.objective_value,
                1e-6 * (1.0 + cold.objective_value));
    EXPECT_EQ(warm.output_size, cold.output_size);
    return warm.objective_value;
  };

  SanitizerSession session =
      SanitizerSession::Create(UserSlice(full, 0, cut)).value();
  const double first =
      session.Solve(UtilityObjective::kOutputSize, query)
          .value()
          .objective_value;
  // A second budget makes the next answer at `query` a scaled one.
  (void)session.Solve(UtilityObjective::kOutputSize, Query(1.4, 0.2))
      .value();

  ASSERT_TRUE(session.AppendUsers(UserSlice(full, cut, full.num_users())).ok());
  const double appended = expect_fresh(session);
  EXPECT_GT(std::abs(appended - first), 1e-6);  // the old answer is stale

  (void)session.Solve(UtilityObjective::kOutputSize, Query(1.4, 0.2))
      .value();
  std::vector<std::string> doomed;
  for (UserId u = 0; u < 3; ++u) doomed.push_back(full.user_name(u));
  ASSERT_TRUE(session.RemoveUsers(doomed).ok());
  ASSERT_EQ(session.last_remove_stats().removed_users, doomed.size());
  const double removed = expect_fresh(session);
  EXPECT_GT(std::abs(removed - appended), 1e-6);

  SanitizerSession restored =
      SanitizerSession::FromSnapshot(session.Snapshot()).value();
  (void)expect_fresh(restored);
}

// Input caps break the scaling, so a capped O-UMP problem runs the simplex
// for every cell, warm or not.
TEST(SessionSweepTest, CappedOumpCellsAlwaysRunTheSimplex) {
  SessionOptions options;
  options.oump.cap_counts_at_input = true;
  SanitizerSession session =
      SanitizerSession::Create(SmallSyntheticRaw(), options).value();
  std::vector<UmpQuery> grid;
  for (double e_eps : {1.4, 2.0, 2.3}) grid.push_back(Query(e_eps, 0.8));
  SweepOptions cold_options;
  cold_options.warm_start = false;
  const SweepResult cold =
      session.SweepBudgets(UtilityObjective::kOutputSize, grid, cold_options)
          .value();
  const SweepResult warm =
      session.SweepBudgets(UtilityObjective::kOutputSize, grid).value();
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_GT(warm.cells[i].stats.refactorizations, 0) << "cell " << i;
    EXPECT_NEAR(warm.cells[i].objective_value, cold.cells[i].objective_value,
                1e-6 * (1.0 + cold.cells[i].objective_value))
        << "cell " << i;
    EXPECT_EQ(warm.cells[i].output_size, cold.cells[i].output_size)
        << "cell " << i;
    for (PairId p = 0; p < session.log().num_pairs(); ++p) {
      EXPECT_LE(warm.cells[i].x[p], session.log().pair_total(p));
    }
  }
}

// F-UMP cells solve cold whatever SweepOptions::warm_start says, so a warm
// and a cold sweep are the same solves.
TEST(SessionSweepTest, FumpWarmSweepMatchesCold) {
  SanitizerSession session =
      SanitizerSession::Create(SmallSyntheticRaw()).value();
  const uint64_t lambda =
      session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .value()
          .output_size;
  ASSERT_GT(lambda, 0u);

  std::vector<UmpQuery> grid;
  for (int percent : {30, 45, 60, 75, 90}) {
    grid.push_back(
        Query(2.0, 0.5, std::max<uint64_t>(1, lambda * percent / 100)));
  }
  SweepOptions cold_options;
  cold_options.warm_start = false;
  SweepResult cold = session
                         .SweepBudgets(UtilityObjective::kFrequentPairs, grid,
                                       cold_options)
                         .value();
  SweepResult warm =
      session.SweepBudgets(UtilityObjective::kFrequentPairs, grid).value();

  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(warm.cells[i].x, cold.cells[i].x) << "cell " << i;
    EXPECT_EQ(warm.cells[i].objective_value, cold.cells[i].objective_value)
        << "cell " << i;
    EXPECT_EQ(warm.cells[i].stats.simplex_iterations,
              cold.cells[i].stats.simplex_iterations)
        << "cell " << i;
  }
  EXPECT_EQ(warm.warm_solves, 0);
}

TEST(SessionSweepTest, MinSupportOverrideRebuildsFrequentSet) {
  SanitizerSession session =
      SanitizerSession::Create(SmallSyntheticRaw()).value();
  const uint64_t lambda =
      session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .value()
          .output_size;
  ASSERT_GT(lambda, 0u);
  const std::vector<UmpQuery> grid = {Query(2.0, 0.5, lambda / 2)};

  SweepOptions tight;
  tight.min_support = 1.0 / 50;
  SweepOptions loose;
  loose.min_support = 1.0 / 1000;
  const auto tight_result =
      session.SweepBudgets(UtilityObjective::kFrequentPairs, grid, tight)
          .value();
  const auto loose_result =
      session.SweepBudgets(UtilityObjective::kFrequentPairs, grid, loose)
          .value();
  // A lower support threshold can only grow the frequent set.
  EXPECT_GE(loose_result.cells[0].frequent_pairs.size(),
            tight_result.cells[0].frequent_pairs.size());
}

TEST(SessionSweepTest, MinSupportOverrideDoesNotLeak) {
  SanitizerSession session =
      SanitizerSession::Create(SmallSyntheticRaw()).value();
  const uint64_t lambda =
      session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .value()
          .output_size;
  ASSERT_GT(lambda, 0u);
  const UmpQuery query = Query(2.0, 0.5, std::max<uint64_t>(1, lambda / 2));

  const auto before =
      session.Solve(UtilityObjective::kFrequentPairs, query).value();
  SweepOptions overridden;
  overridden.min_support = 1.0 / 25;  // far from the session's default
  (void)session
      .SweepBudgets(UtilityObjective::kFrequentPairs, {query}, overridden)
      .value();
  // The override is scoped to the sweep: a later Solve is back on the
  // session's own frequent set.
  const auto after =
      session.Solve(UtilityObjective::kFrequentPairs, query).value();
  EXPECT_EQ(after.frequent_pairs, before.frequent_pairs);
}

// The deterministic D-UMP solvers (SPE, greedy) use no warm state, so the
// post-append result must be bit-identical to a from-scratch session on the
// concatenated log, all the way through sampling (same seed). This pins the
// AppendUsers log reconstruction (merge + re-preprocess + new DP rows)
// exactly. The LP objectives (O-UMP/F-UMP) are checked by objective value
// below: their optima are massively degenerate, so alternate optimal
// vertices — not a bug — make count-level comparisons meaningless.
TEST(SessionAppendTest, AppendUsersBitIdenticalForDeterministicSolver) {
  const SearchLog full = SmallSyntheticRaw();
  const UserId cut = full.num_users() / 2;

  SessionOptions options;
  options.objective = UtilityObjective::kDiversity;
  options.dump.solver = DumpSolverKind::kSpe;
  options.seed = 1234;

  SanitizerSession incremental =
      SanitizerSession::Create(UserSlice(full, 0, cut), options).value();
  ASSERT_TRUE(
      incremental.AppendUsers(UserSlice(full, cut, full.num_users())).ok());
  // The concatenation of the two batches, built from scratch. (Using `full`
  // directly would hold the same tuples under a different PairId order —
  // the generator's insertion order — and SPE tie-breaks by id.)
  SanitizerSession scratch =
      SanitizerSession::Create(UserSlice(full, 0, full.num_users()), options)
          .value();

  const UmpQuery query = Query(2.0, 0.5);
  UmpSolution inc_solution =
      incremental.Solve(UtilityObjective::kDiversity, query).value();
  UmpSolution scr_solution =
      scratch.Solve(UtilityObjective::kDiversity, query).value();
  EXPECT_EQ(inc_solution.x, scr_solution.x);

  SanitizeReport inc_report = incremental.Sanitize(query.privacy).value();
  SanitizeReport scr_report = scratch.Sanitize(query.privacy).value();
  EXPECT_EQ(inc_report.optimal_counts, scr_report.optimal_counts);
  EXPECT_EQ(Tuples(inc_report.output), Tuples(scr_report.output));
  EXPECT_TRUE(inc_report.audit.satisfies_privacy);
}

TEST(SessionAppendTest, AppendUsersMatchesFromScratchObjective) {
  const SearchLog full = SmallSyntheticRaw();
  const UserId cut = full.num_users() * 3 / 4;
  const UmpQuery query = Query(2.0, 0.5);

  SanitizerSession incremental =
      SanitizerSession::Create(UserSlice(full, 0, cut)).value();
  (void)incremental.Solve(UtilityObjective::kOutputSize, query).value();
  ASSERT_TRUE(
      incremental.AppendUsers(UserSlice(full, cut, full.num_users())).ok());
  UmpSolution warm =
      incremental.Solve(UtilityObjective::kOutputSize, query).value();
  // The appended log and rows must equal the from-scratch preprocessing...
  SanitizerSession scratch = SanitizerSession::Create(full).value();
  UmpSolution cold =
      scratch.Solve(UtilityObjective::kOutputSize, query).value();
  EXPECT_EQ(Tuples(incremental.log()), Tuples(scratch.log()));
  // ...and the warm-started re-solve reaches the same optimum.
  EXPECT_NEAR(warm.objective_value, cold.objective_value,
              1e-6 * (1.0 + cold.objective_value));
  EXPECT_EQ(warm.output_size, cold.output_size);
  // The remapped basis was actually usable as a warm start.
  EXPECT_TRUE(warm.stats.warm_started);
}

TEST(SessionAppendTest, SessionCanStartEmpty) {
  // A single user shares no pair with anyone: preprocessing removes
  // everything, and solves fail until more users arrive.
  SearchLogBuilder builder;
  builder.Add("alice", "q1", "u1", 4);
  SanitizerSession session =
      SanitizerSession::Create(builder.Build()).value();
  EXPECT_EQ(session.log().num_pairs(), 0u);
  EXPECT_FALSE(
      session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5)).ok());

  SearchLogBuilder more;
  more.Add("bob", "q1", "u1", 6);
  ASSERT_TRUE(session.AppendUsers(more.Build()).ok());
  EXPECT_GT(session.log().num_pairs(), 0u);
  EXPECT_TRUE(
      session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5)).ok());
}

TEST(SessionAppendTest, AppendMergesSameUser) {
  // Appending more clicks for an existing user must merge into one user log
  // (one DP row), not create a duplicate user.
  SanitizerSession session =
      SanitizerSession::Create(Figure1Log()).value();
  const size_t users_before = session.raw_log().num_users();
  SearchLogBuilder more;
  more.Add("081", "google", "google.com", 5);
  ASSERT_TRUE(session.AppendUsers(more.Build()).ok());
  EXPECT_EQ(session.raw_log().num_users(), users_before);
  EXPECT_EQ(session.raw_log().total_clicks(),
            Figure1Log().total_clicks() + 5);
}

TEST(SessionFumpTest, ZeroOutputSizeResolvesToLambda) {
  SanitizerSession session =
      SanitizerSession::Create(SmallSyntheticRaw()).value();
  const uint64_t lambda =
      session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .value()
          .output_size;
  ASSERT_GT(lambda, 0u);
  UmpSolution implicit =
      session.Solve(UtilityObjective::kFrequentPairs, Query(2.0, 0.5))
          .value();
  UmpSolution explicit_size =
      session
          .Solve(UtilityObjective::kFrequentPairs, Query(2.0, 0.5, lambda))
          .value();
  EXPECT_NEAR(implicit.objective_value, explicit_size.objective_value,
              1e-6 * (1.0 + explicit_size.objective_value));
}

// Integer presolve: with a budget below a pair's largest log t coefficient,
// y_j = 1 is integrally infeasible, so the variable is fixed before branch
// & bound — without changing the optimum.
TEST(SessionDumpTest, IntegerPresolveFixesAndPreservesOptimum) {
  const SearchLog log = testing_fixtures::Figure1Preprocessed();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  DumpSpec with;
  with.solver = DumpSolverKind::kBranchAndBound;
  with.integer_presolve = true;
  DumpSpec without = with;
  without.integer_presolve = false;

  // Figure 1's largest coefficient is log(39/22) ~ 0.57 (user 083's google
  // clicks); eps = 0.3 < 0.57 forces at least one integer fix.
  PrivacyParams params{0.3, 0.5};
  UmpSolution fixed = MakeDumpProblem(log, &rows, with)
                          .value()
                          ->Solve({.privacy = params})
                          .value();
  UmpSolution plain = MakeDumpProblem(log, &rows, without)
                          .value()
                          ->Solve({.privacy = params})
                          .value();
  EXPECT_GT(fixed.stats.integer_fixed, 0);
  EXPECT_EQ(plain.stats.integer_fixed, 0);
  EXPECT_EQ(fixed.output_size, plain.output_size);
  EXPECT_TRUE(fixed.proven_optimal);
}

}  // namespace
}  // namespace privsan
