// DenseBasis is the oracle every other basis representation is checked
// against (lu_factorization_test, simplex_property_test), so its own
// algebra is pinned here: FTRAN must reproduce B x = v, BTRAN must be the
// transpose of FTRAN, singular bases must be detected, and a failed
// Refactorize() must honor the BasisRep failure contract.
#include "lp/basis_rep.h"

#include <gtest/gtest.h>

#include <vector>

#include "lp/sparse_matrix.h"
#include "rng/random.h"

namespace privsan {
namespace lp {
namespace {

// A random m x n matrix (n >= m) whose first m columns form a
// diagonally-dominated (hence nonsingular) basis.
SparseMatrix MakeMatrix(Rng& rng, int m, int n, double density) {
  std::vector<Triplet> triplets;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      if (j < m && i == j) {
        triplets.push_back(Triplet{i, j, 3.0 + rng.NextDouble()});
      } else if (rng.NextBool(density)) {
        triplets.push_back(Triplet{i, j, rng.NextDouble(-1.0, 1.0)});
      }
    }
  }
  return SparseMatrix(m, n, std::move(triplets));
}

std::vector<double> RandomVector(Rng& rng, int m) {
  std::vector<double> v(m);
  for (double& x : v) x = rng.NextDouble(-2.0, 2.0);
  return v;
}

void ExpectNear(const std::vector<double>& a, const std::vector<double>& b,
                double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "component " << i;
  }
}

// B * x for the basis columns selected by `basis` (slot i -> column).
std::vector<double> BasisTimes(const SparseMatrix& A,
                               const std::vector<int>& basis,
                               const std::vector<double>& x) {
  std::vector<double> out(A.rows(), 0.0);
  for (size_t i = 0; i < basis.size(); ++i) {
    A.AddColumnTo(basis[i], x[i], out);
  }
  return out;
}

TEST(DenseBasisTest, FtranSolvesBasisSystem) {
  Rng rng(11);
  for (int m : {1, 4, 17, 50}) {
    SparseMatrix A = MakeMatrix(rng, m, m + 10, 0.3);
    std::vector<int> basis(m);
    for (int i = 0; i < m; ++i) basis[i] = i;

    DenseBasis dense(/*max_updates=*/50);
    ASSERT_TRUE(dense.Refactorize(A, basis));

    std::vector<double> v = RandomVector(rng, m);
    std::vector<double> x = v;
    dense.Ftran(x);
    ExpectNear(BasisTimes(A, basis, x), v, 1e-9);
  }
}

TEST(DenseBasisTest, BtranIsTransposeOfFtran) {
  // <Btran(u), v> == <u, Ftran(v)> for all u, v.
  Rng rng(12);
  const int m = 23;
  SparseMatrix A = MakeMatrix(rng, m, m + 5, 0.4);
  std::vector<int> basis(m);
  for (int i = 0; i < m; ++i) basis[i] = i;
  DenseBasis dense(50);
  ASSERT_TRUE(dense.Refactorize(A, basis));

  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> u = RandomVector(rng, m);
    std::vector<double> v = RandomVector(rng, m);
    std::vector<double> bu = u;
    dense.Btran(bu);
    std::vector<double> fv = v;
    dense.Ftran(fv);
    double lhs = 0.0, rhs = 0.0;
    for (int i = 0; i < m; ++i) {
      lhs += bu[i] * v[i];
      rhs += u[i] * fv[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-8);
  }
}

TEST(DenseBasisTest, SingularBasisDetected) {
  // Two identical columns cannot form a basis.
  std::vector<Triplet> triplets = {
      {0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 1.0}, {1, 1, 2.0}};
  SparseMatrix A(2, 2, std::move(triplets));
  std::vector<int> basis = {0, 1};
  DenseBasis dense(10);
  EXPECT_FALSE(dense.Refactorize(A, basis));
}

TEST(DenseBasisTest, FailedRefactorizeLeavesFactorizationUntouched) {
  // A singular Refactorize() must leave everything — the inverse, the
  // counters, and the basis argument — exactly as before the call, so a
  // repair-and-retry never sees a half-built factorization.
  Rng rng(15);
  const int m = 8;
  SparseMatrix A = MakeMatrix(rng, m, m + 6, 0.4);
  std::vector<int> good(m);
  for (int i = 0; i < m; ++i) good[i] = i;

  DenseBasis dense(10);
  ASSERT_TRUE(dense.Refactorize(A, good));
  const size_t nnz_before = dense.nonzeros();
  const bool should_refactor_before = dense.ShouldRefactor();
  std::vector<double> probe = RandomVector(rng, m);
  std::vector<double> reference = probe;
  dense.Ftran(reference);

  // Same column twice -> singular.
  std::vector<int> singular = good;
  singular[1] = singular[0];
  const std::vector<int> singular_copy = singular;
  ASSERT_FALSE(dense.Refactorize(A, singular));

  EXPECT_EQ(singular, singular_copy) << "failed refactorize permuted basis";
  EXPECT_EQ(dense.nonzeros(), nnz_before);
  EXPECT_EQ(dense.ShouldRefactor(), should_refactor_before);
  EXPECT_EQ(dense.updates_since_refactor(), 0);
  std::vector<double> again = probe;
  dense.Ftran(again);
  ExpectNear(again, reference, 0.0);  // bit-identical: old inverse intact

  // And the retry is deterministic: the original basis factorizes again.
  std::vector<int> retry = good;
  EXPECT_TRUE(dense.Refactorize(A, retry));
}

}  // namespace
}  // namespace lp
}  // namespace privsan
