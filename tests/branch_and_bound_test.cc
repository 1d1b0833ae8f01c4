#include "lp/branch_and_bound.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/model.h"
#include "rng/random.h"

namespace privsan {
namespace lp {
namespace {

TEST(BnbTest, PureLpPassesThrough) {
  // No integer variables: B&B should return the LP optimum at the root.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, kInfinity, 3.0);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 2.5);
  model.AddCoefficient(r, x, 1.0);
  ASSERT_TRUE(model.Validate().ok());
  BnbResult result = SolveBranchAndBound(model);
  ASSERT_TRUE(result.has_incumbent);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_NEAR(result.objective, 7.5, 1e-7);
  EXPECT_EQ(result.nodes_explored, 1);
}

TEST(BnbTest, SimpleIntegerKnapsack) {
  // max 5a + 4b + 3c, 2a + 3b + c <= 5, binary -> a=1,c=1 (val 8)? Check:
  // a+c: weight 3 value 8; a+b: weight 5 value 9. Optimal {a,b} = 9.
  LpModel model(ObjectiveSense::kMaximize);
  int a = model.AddVariable(0, 1, 5.0, true);
  int b = model.AddVariable(0, 1, 4.0, true);
  int c = model.AddVariable(0, 1, 3.0, true);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 5.0);
  model.AddCoefficient(r, a, 2.0);
  model.AddCoefficient(r, b, 3.0);
  model.AddCoefficient(r, c, 1.0);
  ASSERT_TRUE(model.Validate().ok());
  BnbResult result = SolveBranchAndBound(model);
  ASSERT_TRUE(result.has_incumbent);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_NEAR(result.objective, 9.0, 1e-7);
  EXPECT_NEAR(result.x[a], 1.0, 1e-7);
  EXPECT_NEAR(result.x[b], 1.0, 1e-7);
  EXPECT_NEAR(result.x[c], 0.0, 1e-7);
}

TEST(BnbTest, GeneralIntegerVariables) {
  // max x + y, 3x + 5y <= 15, x,y >= 0 integer. LP opt (5,0) -> already
  // integral: 5.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, kInfinity, 1.0, true);
  int y = model.AddVariable(0, kInfinity, 1.0, true);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 15.0);
  model.AddCoefficient(r, x, 3.0);
  model.AddCoefficient(r, y, 5.0);
  ASSERT_TRUE(model.Validate().ok());
  BnbResult result = SolveBranchAndBound(model);
  ASSERT_TRUE(result.has_incumbent);
  EXPECT_NEAR(result.objective, 5.0, 1e-7);
}

TEST(BnbTest, FractionalLpForcesBranching) {
  // max 8x + 11y + 6z + 4w s.t. 5x + 7y + 4z + 3w <= 14, binary.
  // Known optimum: x=0,y=1,z=1,w=1 -> value 21, weight 14.
  LpModel model(ObjectiveSense::kMaximize);
  const double values[] = {8, 11, 6, 4};
  const double weights[] = {5, 7, 4, 3};
  std::vector<int> vars;
  for (int j = 0; j < 4; ++j) {
    vars.push_back(model.AddVariable(0, 1, values[j], true));
  }
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 14.0);
  for (int j = 0; j < 4; ++j) model.AddCoefficient(r, vars[j], weights[j]);
  ASSERT_TRUE(model.Validate().ok());
  BnbResult result = SolveBranchAndBound(model);
  ASSERT_TRUE(result.has_incumbent);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_NEAR(result.objective, 21.0, 1e-7);
  EXPECT_GT(result.nodes_explored, 1);
}

TEST(BnbTest, InfeasibleIntegerProblem) {
  // 2x = 3 with x integer in [0, 5]: LP feasible (x = 1.5), IP infeasible.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, 5, 1.0, true);
  int r = model.AddConstraint(ConstraintSense::kEqual, 3.0);
  model.AddCoefficient(r, x, 2.0);
  ASSERT_TRUE(model.Validate().ok());
  BnbResult result = SolveBranchAndBound(model);
  EXPECT_FALSE(result.has_incumbent);
  EXPECT_EQ(result.status, SolveStatus::kInfeasible);
}

TEST(BnbTest, LpInfeasibleProblem) {
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, 1, 1.0, true);
  int r1 = model.AddConstraint(ConstraintSense::kGreaterEqual, 2.0);
  model.AddCoefficient(r1, x, 1.0);
  ASSERT_TRUE(model.Validate().ok());
  BnbResult result = SolveBranchAndBound(model);
  EXPECT_FALSE(result.has_incumbent);
  EXPECT_EQ(result.status, SolveStatus::kInfeasible);
}

TEST(BnbTest, MinimizationSense) {
  // min 3x + 2y s.t. x + y >= 3.5, x,y >= 0 integer -> (0,4) value 8 or
  // (1,3) value 9, (2,2) 10, (3,1) 11, (0,4) 8. Optimal 8.
  LpModel model(ObjectiveSense::kMinimize);
  int x = model.AddVariable(0, kInfinity, 3.0, true);
  int y = model.AddVariable(0, kInfinity, 2.0, true);
  int r = model.AddConstraint(ConstraintSense::kGreaterEqual, 3.5);
  model.AddCoefficient(r, x, 1.0);
  model.AddCoefficient(r, y, 1.0);
  ASSERT_TRUE(model.Validate().ok());
  BnbResult result = SolveBranchAndBound(model);
  ASSERT_TRUE(result.has_incumbent);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_NEAR(result.objective, 8.0, 1e-7);
}

TEST(BnbTest, NodeBudgetReturnsIncumbent) {
  // A knapsack large enough to need several nodes, with max_nodes = 1:
  // should report the budget exit and still carry a rounded incumbent.
  LpModel model(ObjectiveSense::kMaximize);
  Rng rng(9);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 10.0);
  for (int j = 0; j < 20; ++j) {
    int v = model.AddVariable(0, 1, rng.NextDouble(1.0, 5.0), true);
    model.AddCoefficient(r, v, rng.NextDouble(0.5, 4.0));
  }
  ASSERT_TRUE(model.Validate().ok());
  BnbOptions options;
  options.max_nodes = 1;
  BnbResult result = SolveBranchAndBound(model, options);
  EXPECT_EQ(result.status, SolveStatus::kIterationLimit);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_TRUE(result.has_incumbent);  // rounding heuristic at the root
  // Dual bound must dominate the incumbent.
  EXPECT_GE(result.best_bound, result.objective - 1e-7);
}

// Exhaustive cross-check against brute force on random binary knapsacks.
class BnbBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BnbBruteForceTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const int n = 10;
  std::vector<double> values(n), weights(n);
  for (int j = 0; j < n; ++j) {
    values[j] = rng.NextDouble(0.5, 5.0);
    weights[j] = rng.NextDouble(0.2, 3.0);
  }
  const double capacity = rng.NextDouble(2.0, 8.0);
  const double capacity2 = rng.NextDouble(2.0, 8.0);

  LpModel model(ObjectiveSense::kMaximize);
  for (int j = 0; j < n; ++j) model.AddVariable(0, 1, values[j], true);
  int r1 = model.AddConstraint(ConstraintSense::kLessEqual, capacity);
  int r2 = model.AddConstraint(ConstraintSense::kLessEqual, capacity2);
  for (int j = 0; j < n; ++j) {
    model.AddCoefficient(r1, j, weights[j]);
    model.AddCoefficient(r2, j, weights[(j + 3) % n]);
  }
  ASSERT_TRUE(model.Validate().ok());
  BnbResult result = SolveBranchAndBound(model);
  ASSERT_TRUE(result.has_incumbent);
  ASSERT_TRUE(result.proven_optimal);

  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double value = 0.0, w1 = 0.0, w2 = 0.0;
    for (int j = 0; j < n; ++j) {
      if (mask & (1 << j)) {
        value += values[j];
        w1 += weights[j];
        w2 += weights[(j + 3) % n];
      }
    }
    if (w1 <= capacity + 1e-9 && w2 <= capacity2 + 1e-9) {
      best = std::max(best, value);
    }
  }
  EXPECT_NEAR(result.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomKnapsacks, BnbBruteForceTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

}  // namespace
}  // namespace lp
}  // namespace privsan
