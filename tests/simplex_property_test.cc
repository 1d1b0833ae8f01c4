// Property tests for the simplex: on randomly generated LPs, a claimed
// optimum must (a) be primal feasible and (b) carry a full KKT certificate —
// dual feasibility plus complementary slackness — which together prove
// optimality without needing a reference solver.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "rng/random.h"

namespace privsan {
namespace lp {
namespace {

struct RandomLpSpec {
  uint64_t seed;
  int num_vars;
  int num_rows;
  bool with_upper_bounds;
  bool with_equalities;
};

// Feasibility by construction: sample an interior point x0 within the
// variable bounds, then derive every row's rhs from A x0 — equality rows get
// exactly A x0, inequality rows get A x0 plus nonnegative slack. x0 is then
// a feasible witness regardless of the random coefficients.
LpModel MakeRandomPackingLp(const RandomLpSpec& spec) {
  Rng rng(spec.seed);
  LpModel model(ObjectiveSense::kMaximize);
  std::vector<double> x0(spec.num_vars);
  for (int j = 0; j < spec.num_vars; ++j) {
    const double ub = spec.with_upper_bounds && rng.NextBool(0.5)
                          ? rng.NextDouble(0.5, 4.0)
                          : kInfinity;
    model.AddVariable(0.0, ub, rng.NextDouble(0.1, 2.0));
    x0[j] = rng.NextDouble(0.0, std::isfinite(ub) ? ub : 3.0);
  }
  for (int r = 0; r < spec.num_rows; ++r) {
    const bool equality = spec.with_equalities && r == 0;
    std::vector<Coefficient> entries;
    for (int j = 0; j < spec.num_vars; ++j) {
      if (rng.NextBool(0.6)) {
        entries.push_back(Coefficient{j, rng.NextDouble(0.1, 2.0)});
      }
    }
    if (entries.empty()) {
      entries.push_back(Coefficient{0, rng.NextDouble(0.1, 2.0)});
    }
    double witness_lhs = 0.0;
    for (const Coefficient& e : entries) {
      witness_lhs += e.value * x0[e.variable];
    }
    const double rhs =
        equality ? witness_lhs : witness_lhs + rng.NextDouble(0.0, 2.0);
    int row = model.AddConstraint(
        equality ? ConstraintSense::kEqual : ConstraintSense::kLessEqual,
        rhs);
    for (const Coefficient& e : entries) {
      model.AddCoefficient(row, e.variable, e.value);
    }
  }
  return model;
}

// Verifies the KKT conditions of a maximization LP at (x, y):
//   * primal feasibility,
//   * dual sign feasibility: y_r >= 0 for <= rows (free for =),
//   * stationarity/dual feasibility of reduced costs d_j = c_j - y^T A_j:
//       x_j at lower bound  => d_j <= tol
//       x_j at upper bound  => d_j >= -tol
//       x_j strictly inside => |d_j| <= tol
//   * complementary slackness: y_r > 0 => row r is tight.
void ExpectKktCertificate(const LpModel& model, const LpSolution& solution,
                          double tol = 1e-6) {
  ASSERT_EQ(model.sense(), ObjectiveSense::kMaximize);
  ASSERT_TRUE(model.IsFeasible(solution.x, tol));

  const int m = model.num_constraints();
  const int n = model.num_variables();
  ASSERT_EQ(static_cast<int>(solution.duals.size()), m);

  std::vector<double> row_lhs(m, 0.0);
  std::vector<double> reduced(n);
  for (int j = 0; j < n; ++j) reduced[j] = model.variable(j).objective;
  for (int r = 0; r < m; ++r) {
    for (const Coefficient& e : model.constraint(r).entries) {
      row_lhs[r] += e.value * solution.x[e.variable];
      reduced[e.variable] -= solution.duals[r] * e.value;
    }
  }

  for (int r = 0; r < m; ++r) {
    const Constraint& c = model.constraint(r);
    if (c.sense == ConstraintSense::kLessEqual) {
      EXPECT_GE(solution.duals[r], -tol) << "dual sign row " << r;
      if (solution.duals[r] > tol) {
        EXPECT_NEAR(row_lhs[r], c.rhs, tol) << "complementarity row " << r;
      }
    }
  }
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    const bool at_lower = solution.x[j] <= v.lower + tol;
    const bool at_upper =
        std::isfinite(v.upper) && solution.x[j] >= v.upper - tol;
    if (at_lower && at_upper) continue;  // fixed or degenerate: no sign info
    if (at_lower) {
      EXPECT_LE(reduced[j], tol) << "reduced cost at lower, var " << j;
    } else if (at_upper) {
      EXPECT_GE(reduced[j], -tol) << "reduced cost at upper, var " << j;
    } else {
      EXPECT_NEAR(reduced[j], 0.0, tol) << "interior var " << j;
    }
  }
}

class SimplexPropertyTest : public ::testing::TestWithParam<RandomLpSpec> {};

TEST_P(SimplexPropertyTest, OptimumCarriesKktCertificate) {
  LpModel model = MakeRandomPackingLp(GetParam());
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;
  LpSolution solution = solver.Solve(model);
  // Packing LPs with all-positive rows and x >= 0 are feasible (x = 0) and
  // bounded in every constrained direction; unbounded can only occur when a
  // variable appears in no row — the generator prevents empty rows but not
  // uncovered columns, so allow kUnbounded as a valid exit.
  if (solution.status == SolveStatus::kUnbounded) {
    GTEST_SKIP() << "generated LP was unbounded (uncovered column)";
  }
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  ExpectKktCertificate(model, solution);
}

// Representation equivalence: the Markowitz LU with Forrest–Tomlin updates
// and the dense explicit inverse are two representations of the same basis
// algebra driven by the identical pivot policy, so the solver must reach
// the same status, optimal objective and — the perturbed costs make the
// optimal vertex unique in all but pathological ties — the same solution
// vector under each, and every optimum must carry its own KKT certificate.
// This is the harness that pins the LU and its FT row-spike elimination to
// the oracle.
TEST_P(SimplexPropertyTest, LuAndDenseRepresentationsAgree) {
  LpModel model = MakeRandomPackingLp(GetParam());
  ASSERT_TRUE(model.Validate().ok());

  SimplexOptions lu_options;
  lu_options.basis_kind = SimplexOptions::BasisKind::kLu;
  SimplexOptions dense_options;
  dense_options.basis_kind = SimplexOptions::BasisKind::kDense;

  LpSolution lu = SimplexSolver(lu_options).Solve(model);
  LpSolution dense = SimplexSolver(dense_options).Solve(model);
  ASSERT_EQ(lu.status, dense.status);
  if (lu.status == SolveStatus::kUnbounded) {
    GTEST_SKIP() << "generated LP was unbounded (uncovered column)";
  }
  ASSERT_EQ(lu.status, SolveStatus::kOptimal);
  EXPECT_NEAR(lu.objective, dense.objective, 1e-6);
  ASSERT_EQ(lu.x.size(), dense.x.size());
  for (size_t j = 0; j < lu.x.size(); ++j) {
    EXPECT_NEAR(lu.x[j], dense.x[j], 1e-5) << "x component " << j;
  }
  ExpectKktCertificate(model, lu);
  ExpectKktCertificate(model, dense);
}

std::vector<RandomLpSpec> MakeSpecs() {
  std::vector<RandomLpSpec> specs;
  uint64_t seed = 1000;
  for (int vars : {3, 8, 20}) {
    for (int rows : {2, 6, 15}) {
      for (bool ub : {false, true}) {
        for (bool eq : {false, true}) {
          specs.push_back(RandomLpSpec{seed++, vars, rows, ub, eq});
        }
      }
    }
  }
  return specs;
}

INSTANTIATE_TEST_SUITE_P(RandomPackingLps, SimplexPropertyTest,
                         ::testing::ValuesIn(MakeSpecs()));

// Scaling invariance: multiplying the objective by a constant scales the
// optimum by the same constant.
TEST(SimplexInvarianceTest, ObjectiveScaling) {
  RandomLpSpec spec{77, 10, 6, true, false};
  LpModel model = MakeRandomPackingLp(spec);
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;
  LpSolution base = solver.Solve(model);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);

  LpModel scaled = MakeRandomPackingLp(spec);
  for (int j = 0; j < scaled.num_variables(); ++j) {
    scaled.mutable_variable(j).objective *= 3.0;
  }
  ASSERT_TRUE(scaled.Validate().ok());
  LpSolution scaled_solution = solver.Solve(scaled);
  ASSERT_EQ(scaled_solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(scaled_solution.objective, 3.0 * base.objective, 1e-6);
}

// Adding a redundant constraint must not change the optimum.
TEST(SimplexInvarianceTest, RedundantConstraint) {
  RandomLpSpec spec{88, 8, 5, false, false};
  LpModel model = MakeRandomPackingLp(spec);
  ASSERT_TRUE(model.Validate().ok());
  SimplexSolver solver;
  LpSolution base = solver.Solve(model);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);

  LpModel extended = MakeRandomPackingLp(spec);
  int row = extended.AddConstraint(ConstraintSense::kLessEqual, 1e9);
  for (int j = 0; j < extended.num_variables(); ++j) {
    extended.AddCoefficient(row, j, 1.0);
  }
  ASSERT_TRUE(extended.Validate().ok());
  LpSolution ext = solver.Solve(extended);
  ASSERT_EQ(ext.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ext.objective, base.objective, 1e-6);
}

// Tightening the budget can only decrease a packing optimum (monotonicity —
// the same property Table 4 exhibits in (ε, δ)).
TEST(SimplexInvarianceTest, RhsMonotonicity) {
  for (uint64_t seed : {5ull, 6ull, 7ull}) {
    RandomLpSpec spec{seed, 12, 8, false, false};
    SimplexSolver solver;

    LpModel loose = MakeRandomPackingLp(spec);
    ASSERT_TRUE(loose.Validate().ok());
    LpSolution loose_solution = solver.Solve(loose);
    ASSERT_EQ(loose_solution.status, SolveStatus::kOptimal);

    // Rebuild with halved right-hand sides.
    LpModel tight(ObjectiveSense::kMaximize);
    for (int j = 0; j < loose.num_variables(); ++j) {
      const Variable& v = loose.variable(j);
      tight.AddVariable(v.lower, v.upper, v.objective);
    }
    for (int r = 0; r < loose.num_constraints(); ++r) {
      const Constraint& c = loose.constraint(r);
      int row = tight.AddConstraint(c.sense, c.rhs * 0.5);
      for (const Coefficient& e : c.entries) {
        tight.AddCoefficient(row, e.variable, e.value);
      }
    }
    ASSERT_TRUE(tight.Validate().ok());
    LpSolution tight_solution = solver.Solve(tight);
    ASSERT_EQ(tight_solution.status, SolveStatus::kOptimal);
    EXPECT_LE(tight_solution.objective, loose_solution.objective + 1e-7);
  }
}

}  // namespace
}  // namespace lp
}  // namespace privsan
