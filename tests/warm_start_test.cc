// Warm starts: a re-solve from a near-optimal basis must (a) agree exactly
// with the cold solve on status and objective and (b) do strictly less
// work. Covers the SimplexSolver::Solve(model, hint) API directly and the
// branch & bound rewiring that rides on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lp/branch_and_bound.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "rng/random.h"

namespace privsan {
namespace lp {
namespace {

// A packing LP with bounded variables, dense enough that a cold solve
// takes a meaningful number of iterations.
LpModel MakePackingLp(uint64_t seed, int n, int m) {
  Rng rng(seed);
  LpModel model(ObjectiveSense::kMaximize);
  for (int j = 0; j < n; ++j) {
    model.AddVariable(0.0, rng.NextDouble(0.5, 3.0), rng.NextDouble(0.5, 2.0));
  }
  for (int r = 0; r < m; ++r) {
    int row = model.AddConstraint(ConstraintSense::kLessEqual,
                                  rng.NextDouble(3.0, 8.0));
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(0.5)) {
        model.AddCoefficient(row, j, rng.NextDouble(0.2, 1.5));
      }
    }
  }
  return model;
}

TEST(WarmStartTest, ReSolveFromOwnBasisIsCheap) {
  LpModel model = MakePackingLp(3, 60, 30);
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;
  LpSolution cold = solver.Solve(model);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_FALSE(cold.basis.empty());

  LpSolution warm = solver.Solve(model, &cold.basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.stats.warm_solves, 1u);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  // Re-solving an unchanged model from its optimal basis needs no pivots
  // at all — only the optimality proof scan.
  EXPECT_LT(warm.stats.simplex_iterations,
            std::max<uint64_t>(cold.stats.simplex_iterations / 4, 4));
}

TEST(WarmStartTest, BoundTighteningUsesFewerIterations) {
  LpModel model = MakePackingLp(7, 80, 40);
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;
  LpSolution root = solver.Solve(model);
  ASSERT_EQ(root.status, SolveStatus::kOptimal);

  // Tighten the bound of a variable that is strictly between its bounds at
  // the optimum (a branching step in all but name).
  int branch = -1;
  for (int j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variable(j);
    if (root.x[j] > v.lower + 0.1 && root.x[j] < v.upper - 0.1) {
      branch = j;
      break;
    }
  }
  ASSERT_GE(branch, 0) << "test model has no interior variable";
  model.mutable_variable(branch).upper = root.x[branch] * 0.5;

  LpSolution cold = solver.Solve(model);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  LpSolution warm = solver.Solve(model, &root.basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.stats.warm_solves, 1u);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  EXPECT_LT(warm.stats.simplex_iterations, cold.stats.simplex_iterations)
      << "warm start must beat the cold re-solve";
}

TEST(WarmStartTest, StaleHintFallsBackToColdSolve) {
  LpModel model = MakePackingLp(9, 20, 10);
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;

  Basis nonsense;
  nonsense.basic.assign(10, 0);  // duplicate basics: structurally invalid
  nonsense.state.assign(20 + 10, VarStatus::kAtLower);
  LpSolution solution = solver.Solve(model, &nonsense);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(solution.stats.warm_solves, 0u);

  LpSolution reference = solver.Solve(model);
  EXPECT_NEAR(solution.objective, reference.objective, 1e-8);
}

TEST(WarmStartTest, InfeasibleChildDetected) {
  // Parent: x + y <= 4 with x,y in [0,3]; child forces x >= 3, y >= 3 —
  // infeasible. The warm path must agree with the cold path.
  LpModel model(ObjectiveSense::kMaximize);
  int x = model.AddVariable(0.0, 3.0, 1.0);
  int y = model.AddVariable(0.0, 3.0, 1.0);
  int r = model.AddConstraint(ConstraintSense::kLessEqual, 4.0);
  model.AddCoefficient(r, x, 1.0);
  model.AddCoefficient(r, y, 1.0);
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;
  LpSolution parent = solver.Solve(model);
  ASSERT_EQ(parent.status, SolveStatus::kOptimal);

  model.mutable_variable(x).lower = 3.0;
  model.mutable_variable(y).lower = 3.0;
  EXPECT_EQ(solver.Solve(model, &parent.basis).status,
            SolveStatus::kInfeasible);
  EXPECT_EQ(solver.Solve(model).status, SolveStatus::kInfeasible);
}

// Dual Devex is a pricing change, not a math change: warm re-solves must
// stay warm and agree with the cold objective on every re-solve of a
// bound-tightening chain.
TEST(WarmStartTest, DualDevexChainMatchesColdObjectives) {
  LpModel model = MakePackingLp(11, 70, 35);
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;

  LpSolution root = solver.Solve(model);
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  Basis basis = root.basis;

  int64_t dual_pivots = 0;
  int resolves = 0;
  std::vector<double> current_x = root.x;
  for (int round = 0; round < 6; ++round) {
    // Tighten the bound of a variable sitting strictly above its lower
    // bound at the current optimum — a branching step in all but name that
    // forces real dual repair work.
    int j = -1;
    for (int k = 0; k < model.num_variables(); ++k) {
      const Variable& v = model.variable(k);
      if (current_x[k] > v.lower + 0.1 && v.upper > v.lower + 1e-6) {
        j = k;
        break;
      }
    }
    if (j < 0) break;
    Variable& v = model.mutable_variable(j);
    v.upper = v.lower + (current_x[j] - v.lower) * 0.5;

    LpSolution cold = solver.Solve(model);
    LpSolution warm = solver.Solve(model, &basis);
    ASSERT_EQ(warm.status, cold.status);
    if (cold.status != SolveStatus::kOptimal) break;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6)
        << "dual Devex changed the optimum on round " << round;
    EXPECT_EQ(warm.stats.warm_solves, 1u);
    dual_pivots += warm.stats.dual_iterations;
    basis = warm.basis;
    current_x = cold.x;
    ++resolves;
  }
  ASSERT_GT(resolves, 0);
  // The chain made the dual phase repair something.
  EXPECT_GT(dual_pivots, 0);
}

// The warm-repair budget is a knob now: a cap of one pivot cannot finish
// any real repair, so the solve must report the abort and fall back to a
// cold solve with the right answer.
TEST(WarmStartTest, WarmRepairPivotCapAbortsToCold) {
  LpModel model = MakePackingLp(13, 60, 30);
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;
  LpSolution root = solver.Solve(model);
  ASSERT_EQ(root.status, SolveStatus::kOptimal);

  // Tighten several bounds so the repair genuinely needs pivots.
  int tightened = 0;
  for (int j = 0; j < model.num_variables() && tightened < 8; ++j) {
    const Variable& v = model.variable(j);
    if (root.x[j] > v.lower + 0.05) {
      model.mutable_variable(j).upper = v.lower + (root.x[j] - v.lower) * 0.3;
      ++tightened;
    }
  }
  ASSERT_GT(tightened, 0);

  SimplexOptions capped_options;
  capped_options.warm_repair_pivot_cap = 1;
  SimplexSolver capped(capped_options);
  LpSolution aborted = capped.Solve(model, &root.basis);
  LpSolution cold = solver.Solve(model);
  ASSERT_EQ(aborted.status, SolveStatus::kOptimal);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_EQ(aborted.stats.repair_aborted, 1u) << "cap of 1 pivot must abort";
  EXPECT_EQ(aborted.stats.warm_solves, 0u);
  EXPECT_NEAR(aborted.objective, cold.objective, 1e-7);

  // The default cap finishes the same repair warm — and reports no abort.
  LpSolution warm = solver.Solve(model, &root.basis);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.stats.repair_aborted, 0u);
  EXPECT_EQ(warm.stats.warm_solves, 1u);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
}

// Basis repair on singular refactorization: a warm-start hint whose basis
// is singular (here: two variables with identical columns, both marked
// basic) does not force a cold solve: the dependent column is swapped for a
// row slack and the solve stays warm.
TEST(WarmStartTest, SingularHintRepairedWithoutColdFallback) {
  LpModel model(ObjectiveSense::kMaximize);
  const int x0 = model.AddVariable(0.0, 5.0, 1.0);
  const int x1 = model.AddVariable(0.0, 5.0, 1.0);  // column == x0's column
  const int x2 = model.AddVariable(0.0, 5.0, 2.0);
  const int r0 = model.AddConstraint(ConstraintSense::kLessEqual, 4.0);
  const int r1 = model.AddConstraint(ConstraintSense::kLessEqual, 6.0);
  model.AddCoefficient(r0, x0, 1.0);
  model.AddCoefficient(r0, x1, 1.0);
  model.AddCoefficient(r0, x2, 1.0);
  model.AddCoefficient(r1, x0, 2.0);
  model.AddCoefficient(r1, x1, 2.0);
  ASSERT_TRUE(model.Validate().ok());

  // Structurally valid hint (m basics, no duplicates) whose basis matrix
  // is singular: x0 and x1 carry identical columns.
  Basis singular;
  singular.basic = {x0, x1};
  singular.state.assign(3 + 2, VarStatus::kAtLower);
  singular.state[x0] = VarStatus::kBasic;
  singular.state[x1] = VarStatus::kBasic;

  SimplexSolver repairing;
  LpSolution cold = repairing.Solve(model);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  LpSolution repaired = repairing.Solve(model, &singular);
  ASSERT_EQ(repaired.status, SolveStatus::kOptimal);
  EXPECT_EQ(repaired.stats.warm_solves, 1u)
      << "singular hint must be repaired in place, not cold-solved";
  EXPECT_GE(repaired.stats.basis_repairs, 1u);
  EXPECT_NEAR(repaired.objective, cold.objective, 1e-8);
}

// The branch & bound regression the warm start exists for: same tree, same
// incumbent, strictly fewer simplex iterations than cold re-solves.
TEST(WarmStartTest, BranchAndBoundWarmBeatsCold) {
  Rng rng(41);
  LpModel model(ObjectiveSense::kMaximize);
  const int n = 24;
  int r1 = model.AddConstraint(ConstraintSense::kLessEqual, 9.0);
  int r2 = model.AddConstraint(ConstraintSense::kLessEqual, 7.5);
  for (int j = 0; j < n; ++j) {
    int v = model.AddVariable(0, 1, rng.NextDouble(1.0, 6.0), true);
    model.AddCoefficient(r1, v, rng.NextDouble(0.3, 3.0));
    model.AddCoefficient(r2, v, rng.NextDouble(0.3, 3.0));
  }
  ASSERT_TRUE(model.Validate().ok());

  BnbOptions warm_options;
  warm_options.warm_start = true;
  BnbOptions cold_options;
  cold_options.warm_start = false;

  BnbResult warm = SolveBranchAndBound(model, warm_options);
  BnbResult cold = SolveBranchAndBound(model, cold_options);
  ASSERT_TRUE(warm.has_incumbent);
  ASSERT_TRUE(cold.has_incumbent);
  ASSERT_TRUE(warm.proven_optimal);
  ASSERT_TRUE(cold.proven_optimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);

  EXPECT_GT(warm.stats.warm_solves, 0u);
  EXPECT_GT(warm.stats.dual_iterations, 0u);
  EXPECT_LT(warm.stats.simplex_iterations, cold.stats.simplex_iterations)
      << "warm-started tree must spend fewer total simplex iterations "
         "(warm: "
      << warm.stats.simplex_iterations
      << ", cold: " << cold.stats.simplex_iterations << ")";
}

}  // namespace
}  // namespace lp
}  // namespace privsan
