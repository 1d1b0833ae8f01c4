#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>

#include "lp/model.h"

namespace privsan {
namespace lp {
namespace {

LpSolution Solve(LpModel& model) {
  EXPECT_TRUE(model.Validate().ok());
  SimplexSolver solver;
  return solver.Solve(model);
}

TEST(SimplexTest, TwoVariableMaximization) {
  // max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6, x,y >= 0.
  // Vertices: (0,0), (4,0), (3,1), (0,2); optimum (4,0) with value 12.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, kInfinity, 3.0);
  int y = model.AddVariable(0, kInfinity, 2.0);
  int r1 = model.AddConstraint(ConstraintSense::kLessEqual, 4.0);
  model.AddCoefficient(r1, x, 1.0);
  model.AddCoefficient(r1, y, 1.0);
  int r2 = model.AddConstraint(ConstraintSense::kLessEqual, 6.0);
  model.AddCoefficient(r2, x, 1.0);
  model.AddCoefficient(r2, y, 3.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 12.0, 1e-8);
  EXPECT_NEAR(solution.x[x], 4.0, 1e-8);
  EXPECT_NEAR(solution.x[y], 0.0, 1e-8);
}

TEST(SimplexTest, InteriorOptimumVertex) {
  // max 2x + 3y  s.t. x + y <= 4, x + 3y <= 6 -> optimum (3,1), value 9.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, kInfinity, 2.0);
  int y = model.AddVariable(0, kInfinity, 3.0);
  int r1 = model.AddConstraint(ConstraintSense::kLessEqual, 4.0);
  model.AddCoefficient(r1, x, 1.0);
  model.AddCoefficient(r1, y, 1.0);
  int r2 = model.AddConstraint(ConstraintSense::kLessEqual, 6.0);
  model.AddCoefficient(r2, x, 1.0);
  model.AddCoefficient(r2, y, 3.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 9.0, 1e-8);
  EXPECT_NEAR(solution.x[x], 3.0, 1e-8);
  EXPECT_NEAR(solution.x[y], 1.0, 1e-8);
}

TEST(SimplexTest, MinimizationWithGreaterEqual) {
  // min 2x + 3y  s.t. x + y >= 4, x >= 1 -> optimum (4, 0), value 8.
  LpModel model(ObjectiveSense::kMinimize);
  int x = model.AddVariable(0, kInfinity, 2.0);
  int y = model.AddVariable(0, kInfinity, 3.0);
  int r1 = model.AddConstraint(ConstraintSense::kGreaterEqual, 4.0);
  model.AddCoefficient(r1, x, 1.0);
  model.AddCoefficient(r1, y, 1.0);
  int r2 = model.AddConstraint(ConstraintSense::kGreaterEqual, 1.0);
  model.AddCoefficient(r2, x, 1.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 8.0, 1e-8);
  EXPECT_NEAR(solution.x[x], 4.0, 1e-8);
}

TEST(SimplexTest, EqualityConstraintNeedsPhase1) {
  // min x + y  s.t. x + y = 5, x <= 3 -> value 5 (any split with x <= 3).
  LpModel model(ObjectiveSense::kMinimize);
  int x = model.AddVariable(0, 3.0, 1.0);
  int y = model.AddVariable(0, kInfinity, 1.0);
  int r = model.AddConstraint(ConstraintSense::kEqual, 5.0);
  model.AddCoefficient(r, x, 1.0);
  model.AddCoefficient(r, y, 1.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-8);
  EXPECT_NEAR(solution.x[x] + solution.x[y], 5.0, 1e-8);
  EXPECT_LE(solution.x[x], 3.0 + 1e-8);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x <= 1 and x >= 2 cannot both hold.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, kInfinity, 1.0);
  int r1 = model.AddConstraint(ConstraintSense::kLessEqual, 1.0);
  model.AddCoefficient(r1, x, 1.0);
  int r2 = model.AddConstraint(ConstraintSense::kGreaterEqual, 2.0);
  model.AddCoefficient(r2, x, 1.0);

  EXPECT_EQ(Solve(model).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, InfeasibleEqualitySystem) {
  // x + y = 1 and x + y = 2.
  LpModel model(ObjectiveSense::kMinimize);
  int x = model.AddVariable(0, kInfinity, 1.0);
  int y = model.AddVariable(0, kInfinity, 1.0);
  int r1 = model.AddConstraint(ConstraintSense::kEqual, 1.0);
  model.AddCoefficient(r1, x, 1.0);
  model.AddCoefficient(r1, y, 1.0);
  int r2 = model.AddConstraint(ConstraintSense::kEqual, 2.0);
  model.AddCoefficient(r2, x, 1.0);
  model.AddCoefficient(r2, y, 1.0);

  EXPECT_EQ(Solve(model).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  // max x with no constraints limiting it.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, kInfinity, 1.0);
  int y = model.AddVariable(0, kInfinity, 0.0);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 5.0);
  model.AddCoefficient(r, y, 1.0);  // constrains only y
  (void)x;

  EXPECT_EQ(Solve(model).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, UnboundedBelowMinimization) {
  LpModel model(ObjectiveSense::kMinimize);
  model.AddVariable(-kInfinity, kInfinity, 1.0);  // min x, x free
  EXPECT_EQ(Solve(model).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, NoConstraintsBoundedByBounds) {
  // max 2x - y with x in [0,3], y in [1,5] -> x=3, y=1, value 5.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0.0, 3.0, 2.0);
  int y = model.AddVariable(1.0, 5.0, -1.0);
  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-9);
  EXPECT_NEAR(solution.x[x], 3.0, 1e-9);
  EXPECT_NEAR(solution.x[y], 1.0, 1e-9);
}

TEST(SimplexTest, UpperBoundedVariablesBoundFlip) {
  // max x + y  s.t. x + y <= 10, x in [0,2], y in [0,3] -> value 5.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0.0, 2.0, 1.0);
  int y = model.AddVariable(0.0, 3.0, 1.0);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 10.0);
  model.AddCoefficient(r, x, 1.0);
  model.AddCoefficient(r, y, 1.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-9);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x + y  s.t. x + y >= -3, x,y in [-5, 5] -> value -3? No: both can go
  // to -5 only if the constraint allows; x+y >= -3 binds -> value -3.
  LpModel model(ObjectiveSense::kMinimize);
  int x = model.AddVariable(-5.0, 5.0, 1.0);
  int y = model.AddVariable(-5.0, 5.0, 1.0);
  int r = model.AddConstraint(ConstraintSense::kGreaterEqual, -3.0);
  model.AddCoefficient(r, x, 1.0);
  model.AddCoefficient(r, y, 1.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -3.0, 1e-8);
}

TEST(SimplexTest, FreeVariable) {
  // min y  s.t. y >= x - 2, y >= -x, x free, y free.
  // In constraint form: -x + y >= -2; x + y >= 0. Optimum y = -1 at x = 1.
  LpModel model(ObjectiveSense::kMinimize);
  int x = model.AddVariable(-kInfinity, kInfinity, 0.0);
  int y = model.AddVariable(-kInfinity, kInfinity, 1.0);
  int r1 = model.AddConstraint(ConstraintSense::kGreaterEqual, -2.0);
  model.AddCoefficient(r1, x, -1.0);
  model.AddCoefficient(r1, y, 1.0);
  int r2 = model.AddConstraint(ConstraintSense::kGreaterEqual, 0.0);
  model.AddCoefficient(r2, x, 1.0);
  model.AddCoefficient(r2, y, 1.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -1.0, 1e-8);
  EXPECT_NEAR(solution.x[x], 1.0, 1e-8);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, kInfinity, 1.0);
  int y = model.AddVariable(0, kInfinity, 1.0);
  for (int i = 0; i < 6; ++i) {
    int r = model.AddConstraint(ConstraintSense::kLessEqual, 2.0);
    model.AddCoefficient(r, x, 1.0 + 0.0 * i);
    model.AddCoefficient(r, y, 1.0);
  }
  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 2.0, 1e-8);
}

TEST(SimplexTest, FixedVariableRespected) {
  // x fixed at 2 by bounds; max x + y s.t. x + y <= 5 -> 5 with y = 3.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(2.0, 2.0, 1.0);
  int y = model.AddVariable(0.0, kInfinity, 1.0);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 5.0);
  model.AddCoefficient(r, x, 1.0);
  model.AddCoefficient(r, y, 1.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.x[x], 2.0, 1e-9);
  EXPECT_NEAR(solution.x[y], 3.0, 1e-8);
}

TEST(SimplexTest, EqualityWithNegativeRhs) {
  // x - y = -3, min x + y, x,y >= 0 -> x=0, y=3, value 3.
  LpModel model(ObjectiveSense::kMinimize);
  int x = model.AddVariable(0, kInfinity, 1.0);
  int y = model.AddVariable(0, kInfinity, 1.0);
  int r = model.AddConstraint(ConstraintSense::kEqual, -3.0);
  model.AddCoefficient(r, x, 1.0);
  model.AddCoefficient(r, y, -1.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 3.0, 1e-8);
  EXPECT_NEAR(solution.x[y], 3.0, 1e-8);
}

TEST(SimplexTest, TransportationProblem) {
  // Classic 2x3 transportation: supplies {20, 30}, demands {10, 25, 15},
  // costs {{2,3,1},{5,4,8}}. Optimal cost known: ship (s0->d2)=15, (s0->d0)=5
  // ... verify via objective only (LP optimum = 180).
  // Solved by hand: minimize. s0: cheap to d2 (1) and d0 (2); s1: to d1 (4).
  // x02=15, x00=5, x01=0, x10=5, x11=25 -> cost 15+10+25+100 = 150.
  LpModel model(ObjectiveSense::kMinimize);
  const double costs[2][3] = {{2, 3, 1}, {5, 4, 8}};
  int var[2][3];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      var[i][j] = model.AddVariable(0, kInfinity, costs[i][j]);
    }
  }
  const double supply[2] = {20, 30};
  for (int i = 0; i < 2; ++i) {
    int r = model.AddConstraint(ConstraintSense::kLessEqual, supply[i]);
    for (int j = 0; j < 3; ++j) model.AddCoefficient(r, var[i][j], 1.0);
  }
  const double demand[3] = {10, 25, 15};
  for (int j = 0; j < 3; ++j) {
    int r = model.AddConstraint(ConstraintSense::kEqual, demand[j]);
    for (int i = 0; i < 2; ++i) model.AddCoefficient(r, var[i][j], 1.0);
  }
  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 150.0, 1e-7);
}

TEST(SimplexTest, DualsPriceBindingConstraints) {
  // max 3x + 2y s.t. x + y <= 4 (binding), x + 3y <= 6 (slack at optimum
  // (4,0)? LHS=4 <= 6 slack). Dual of binding row should be 3 (objective
  // gradient along x), dual of slack row 0.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0, kInfinity, 3.0);
  int y = model.AddVariable(0, kInfinity, 2.0);
  int r1 = model.AddConstraint(ConstraintSense::kLessEqual, 4.0);
  model.AddCoefficient(r1, x, 1.0);
  model.AddCoefficient(r1, y, 1.0);
  int r2 = model.AddConstraint(ConstraintSense::kLessEqual, 6.0);
  model.AddCoefficient(r2, x, 1.0);
  model.AddCoefficient(r2, y, 3.0);

  LpSolution solution = Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  ASSERT_EQ(solution.duals.size(), 2u);
  EXPECT_NEAR(solution.duals[0], 3.0, 1e-7);
  EXPECT_NEAR(solution.duals[1], 0.0, 1e-7);
}

TEST(SimplexTest, LargerDenseProblemSolves) {
  // A 40x60 random-ish but deterministic packing LP; checks termination and
  // feasibility of the reported point.
  LpModel model(ObjectiveSense::kMaximize);
  const int n = 60, m = 40;
  uint64_t state = 12345;
  auto next = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>((state >> 33) % 1000) / 1000.0;
  };
  for (int j = 0; j < n; ++j) model.AddVariable(0, kInfinity, 1.0 + next());
  for (int r = 0; r < m; ++r) {
    int row = model.AddConstraint(ConstraintSense::kLessEqual, 5.0 + next());
    for (int j = 0; j < n; ++j) {
      double v = next();
      if (v > 0.7) model.AddCoefficient(row, j, 0.2 + v);
    }
  }
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;
  LpSolution solution = solver.Solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_TRUE(model.IsFeasible(solution.x, 1e-6));
  EXPECT_GT(solution.objective, 0.0);
}

TEST(SimplexTest, IterationLimitReported) {
  LpModel model(ObjectiveSense::kMaximize);
  const int n = 30;
  for (int j = 0; j < n; ++j) model.AddVariable(0, kInfinity, 1.0);
  for (int r = 0; r < 20; ++r) {
    int row = model.AddConstraint(ConstraintSense::kLessEqual, 1.0);
    for (int j = 0; j < n; ++j) {
      model.AddCoefficient(row, j, 1.0 + ((r * 7 + j) % 5) * 0.1);
    }
  }
  ASSERT_TRUE(model.Validate().ok());
  SimplexOptions options;
  options.max_iterations = 1;
  SimplexSolver solver(options);
  EXPECT_EQ(solver.Solve(model).status, SolveStatus::kIterationLimit);
}

TEST(SimplexTest, RejectedBasisUpdateUndoesThePivot) {
  // max 2x + y  s.t. 1e-5 x + 1e-10 y <= 1 (unscaled, no presolve). x
  // enters first and becomes basic at 1e5 with U = [1e-5]; then y enters
  // with FTRAN image 1e-5, a stable-looking pivot, but the Forrest–Tomlin
  // diagonal of the new basis is 1e-5 * 1e-5 = 1e-10, below the pivot
  // tolerance. The LU rejects that update while the PRICE pass has already
  // run on the swapped statuses: the solver must undo the swap and
  // refactorize (and, as the rejection repeats, hand the solve to the
  // dense retry). The optimum y = 1e10 must come out as the dense basis
  // finds it.
  LpModel model(ObjectiveSense::kMaximize);
  const int x = model.AddVariable(0, kInfinity, 2.0);
  const int y = model.AddVariable(0, kInfinity, 1.0);
  const int row = model.AddConstraint(ConstraintSense::kLessEqual, 1.0);
  model.AddCoefficient(row, x, 1e-5);
  model.AddCoefficient(row, y, 1e-10);
  ASSERT_TRUE(model.Validate().ok());

  SimplexOptions options;
  options.scaling = SimplexOptions::Scaling::kNone;
  options.presolve = false;
  const LpSolution lu = SimplexSolver(options).Solve(model);
  options.basis_kind = SimplexOptions::BasisKind::kDense;
  const LpSolution dense = SimplexSolver(options).Solve(model);

  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  ASSERT_EQ(lu.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dense.objective, 1e10, 1e-6 * 1e10);
  EXPECT_NEAR(lu.objective, dense.objective, 1e-9 * dense.objective);
  EXPECT_NEAR(lu.x[y], dense.x[y], 1e-9 * dense.x[y]);
  // The initial factorization, one per rejected update, and the retry's.
  EXPECT_GT(lu.stats.refactorizations, dense.stats.refactorizations + 1);
}

}  // namespace
}  // namespace lp
}  // namespace privsan
