#include "lp/bip_heuristics.h"

#include <gtest/gtest.h>

#include "lp/branch_and_bound.h"
#include "rng/random.h"

namespace privsan {
namespace lp {
namespace {

BipProblem MakeProblem(int rows, std::vector<std::vector<SparseEntry>> cols,
                       std::vector<double> rhs) {
  BipProblem problem;
  problem.num_rows = rows;
  problem.columns = std::move(cols);
  problem.rhs = std::move(rhs);
  return problem;
}

BipProblem RandomProblem(uint64_t seed, int vars, int rows) {
  Rng rng(seed);
  BipProblem problem;
  problem.num_rows = rows;
  problem.columns.resize(vars);
  problem.rhs.assign(rows, 0.0);
  for (double& b : problem.rhs) b = rng.NextDouble(0.5, 2.0);
  for (int j = 0; j < vars; ++j) {
    for (int r = 0; r < rows; ++r) {
      if (rng.NextBool(0.5)) {
        problem.columns[j].push_back(
            SparseEntry{r, rng.NextDouble(0.05, 1.0)});
      }
    }
  }
  return problem;
}

TEST(BipProblemTest, ValidateAcceptsWellFormed) {
  BipProblem p = MakeProblem(1, {{{0, 0.5}}, {{0, 0.7}}}, {1.0});
  EXPECT_TRUE(p.Validate().ok());
}

TEST(BipProblemTest, ValidateRejectsBadRhs) {
  EXPECT_FALSE(MakeProblem(1, {{{0, 0.5}}}, {0.0}).Validate().ok());
  EXPECT_FALSE(MakeProblem(1, {{{0, 0.5}}}, {-1.0}).Validate().ok());
  EXPECT_FALSE(MakeProblem(2, {{{0, 0.5}}}, {1.0}).Validate().ok());
}

TEST(BipProblemTest, ValidateRejectsBadWeights) {
  EXPECT_FALSE(MakeProblem(1, {{{0, 0.0}}}, {1.0}).Validate().ok());
  EXPECT_FALSE(MakeProblem(1, {{{0, -0.5}}}, {1.0}).Validate().ok());
  EXPECT_FALSE(MakeProblem(1, {{{1, 0.5}}}, {1.0}).Validate().ok());
}

TEST(BipProblemTest, IsFeasible) {
  BipProblem p = MakeProblem(1, {{{0, 0.6}}, {{0, 0.6}}}, {1.0});
  EXPECT_TRUE(p.IsFeasible({1, 0}));
  EXPECT_TRUE(p.IsFeasible({0, 1}));
  EXPECT_FALSE(p.IsFeasible({1, 1}));  // 1.2 > 1.0
  EXPECT_TRUE(p.IsFeasible({0, 0}));
}

TEST(BipProblemTest, ToLpModelRoundTrip) {
  BipProblem p = MakeProblem(2, {{{0, 0.5}, {1, 0.3}}, {{1, 0.9}}},
                             {1.0, 1.0});
  LpModel model = p.ToLpModel();
  EXPECT_EQ(model.num_variables(), 2);
  EXPECT_EQ(model.num_constraints(), 2);
  EXPECT_TRUE(model.variable(0).is_integer);
  EXPECT_EQ(model.sense(), ObjectiveSense::kMaximize);
}

TEST(GreedyTest, SelectsEverythingWhenLoose) {
  BipProblem p = MakeProblem(1, {{{0, 0.1}}, {{0, 0.1}}, {{0, 0.1}}}, {10.0});
  BipSolution s = SolveBipGreedy(p).value();
  EXPECT_EQ(s.selected, 3);
}

TEST(GreedyTest, RespectsCapacity) {
  BipProblem p = MakeProblem(1, {{{0, 0.6}}, {{0, 0.5}}, {{0, 0.3}}}, {1.0});
  BipSolution s = SolveBipGreedy(p).value();
  EXPECT_TRUE(p.IsFeasible(s.y));
  // Sorted by max weight ascending: 0.3 then 0.5 admitted (0.8), 0.6 skipped.
  EXPECT_EQ(s.selected, 2);
}

TEST(GreedyTest, EmptyColumnsAlwaysSelected) {
  // A variable touching no row costs nothing.
  BipProblem p = MakeProblem(1, {{}, {{0, 0.9}}, {{0, 0.9}}}, {1.0});
  BipSolution s = SolveBipGreedy(p).value();
  EXPECT_EQ(s.y[0], 1);
  EXPECT_EQ(s.selected, 2);
}

TEST(LpRoundingTest, FeasibleAndAtLeastLpFloor) {
  BipProblem p = RandomProblem(3, 30, 6);
  BipSolution s = SolveBipLpRounding(p).value();
  EXPECT_TRUE(p.IsFeasible(s.y));
  EXPECT_GT(s.selected, 0);
}

TEST(LpRoundingTest, MatchesOptimumOnTightSingleRow) {
  // Single row: LP sorts by weight, rounding recovers the exact optimum
  // (max-cardinality knapsack is greedy-by-weight).
  BipProblem p = MakeProblem(
      1, {{{0, 0.5}}, {{0, 0.2}}, {{0, 0.4}}, {{0, 0.05}}}, {0.7});
  BipSolution s = SolveBipLpRounding(p).value();
  EXPECT_TRUE(p.IsFeasible(s.y));
  // Optimum: {0.05, 0.2, 0.4} = 0.65 -> 3 items.
  EXPECT_EQ(s.selected, 3);
}

// The rounding step alone: handed the relaxation's optimum, it admits
// exactly what LP rounding admits, with no LP effort and no basis.
TEST(LpRoundingTest, RoundingTheLpOptimumMatchesLpRounding) {
  for (uint64_t seed : {3, 31, 32, 33}) {
    BipProblem p = RandomProblem(seed, 30, 6);
    LpModel model = p.ToLpModel();
    ASSERT_TRUE(model.Validate().ok());
    LpSolution lp = SimplexSolver().Solve(model);
    ASSERT_EQ(lp.status, SolveStatus::kOptimal) << "seed " << seed;
    BipSolution rounded = RoundBipPoint(p, lp.x).value();
    BipSolution solved = SolveBipLpRounding(p).value();
    EXPECT_EQ(rounded.y, solved.y) << "seed " << seed;
    EXPECT_EQ(rounded.selected, solved.selected) << "seed " << seed;
    EXPECT_EQ(rounded.stats.simplex_iterations, 0u);
    EXPECT_TRUE(rounded.basis.empty());
  }
}

TEST(LpRoundingTest, RoundBipPointRejectsAPointOfAnotherSize) {
  BipProblem p = MakeProblem(1, {{{0, 0.5}}, {{0, 0.7}}}, {1.0});
  EXPECT_FALSE(RoundBipPoint(p, {1.0}).ok());
  EXPECT_EQ(RoundBipPoint(p, {0.4, 1.0}).value().y,
            (std::vector<uint8_t>{0, 1}));
}

class HeuristicVsExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeuristicVsExactTest, HeuristicsNeverBeatExactAndStayFeasible) {
  BipProblem p = RandomProblem(GetParam(), 12, 4);
  LpModel model = p.ToLpModel();
  ASSERT_TRUE(model.Validate().ok());
  BnbResult exact = SolveBranchAndBound(model);
  ASSERT_TRUE(exact.proven_optimal);

  BipSolution greedy = SolveBipGreedy(p).value();
  BipSolution rounding = SolveBipLpRounding(p).value();
  EXPECT_TRUE(p.IsFeasible(greedy.y));
  EXPECT_TRUE(p.IsFeasible(rounding.y));
  EXPECT_LE(static_cast<double>(greedy.selected), exact.objective + 1e-6);
  EXPECT_LE(static_cast<double>(rounding.selected), exact.objective + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomBips, HeuristicVsExactTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

}  // namespace
}  // namespace lp
}  // namespace privsan
