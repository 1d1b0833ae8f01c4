// The Markowitz LU must agree with the dense explicit inverse (both are
// BasisRep implementations of the same linear algebra), and its failure
// path must honor the repair contract: a singular Refactorize() leaves the
// previous factorization untouched, names every dependent column and every
// uncovered row, and swapping the dependent columns for unit columns of
// the uncovered rows must make the very next Refactorize() succeed — that
// swap is exactly the solver-side basis repair (lp/simplex.cc).
#include "lp/lu_factorization.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/sparse_matrix.h"
#include "rng/random.h"

namespace privsan {
namespace lp {
namespace {

// A random m x n matrix (n >= m) whose first m columns form a
// diagonally-dominated (hence nonsingular) basis. Columns m..m+m-1 are the
// unit columns e_0..e_{m-1} (stand-ins for row slacks), the rest random.
SparseMatrix MakeMatrixWithSlacks(Rng& rng, int m, int extra,
                                  double density) {
  std::vector<Triplet> triplets;
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i < m; ++i) {
      if (i == j) {
        triplets.push_back(Triplet{i, j, 3.0 + rng.NextDouble()});
      } else if (rng.NextBool(density)) {
        triplets.push_back(Triplet{i, j, rng.NextDouble(-1.0, 1.0)});
      }
    }
  }
  for (int r = 0; r < m; ++r) {
    triplets.push_back(Triplet{r, m + r, 1.0});
  }
  for (int j = 2 * m; j < 2 * m + extra; ++j) {
    for (int i = 0; i < m; ++i) {
      if (rng.NextBool(density)) {
        triplets.push_back(Triplet{i, j, rng.NextDouble(-1.0, 1.0)});
      }
    }
  }
  return SparseMatrix(m, 2 * m + extra, std::move(triplets));
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

TEST(LuFactorizationTest, FtranSolvesBasisSystem) {
  Rng rng(21);
  for (int m : {1, 4, 17, 50}) {
    SparseMatrix A = MakeMatrixWithSlacks(rng, m, 10, 0.3);
    std::vector<int> basis(m);
    for (int i = 0; i < m; ++i) basis[i] = i;

    LuFactorization lu(/*max_updates=*/50, /*growth_limit=*/8.0);
    ASSERT_TRUE(lu.Refactorize(A, basis));

    // The factorization may permute slot ownership; solving B x = v must
    // still reproduce v through the (possibly reordered) basis columns.
    std::vector<double> v = RandomVector(rng, m);
    std::vector<double> x = v;
    lu.Ftran(x);
    ExpectNear(BasisTimes(A, basis, x), v, 1e-9);
  }
}

TEST(LuFactorizationTest, BtranIsTransposeOfFtran) {
  // <Btran(u), v> == <u, Ftran(v)> for all u, v.
  Rng rng(22);
  const int m = 23;
  SparseMatrix A = MakeMatrixWithSlacks(rng, m, 5, 0.4);
  std::vector<int> basis(m);
  for (int i = 0; i < m; ++i) basis[i] = i;
  LuFactorization lu(50, 8.0);
  ASSERT_TRUE(lu.Refactorize(A, basis));

  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> u = RandomVector(rng, m);
    std::vector<double> v = RandomVector(rng, m);
    std::vector<double> bu = u;
    lu.Btran(bu);
    std::vector<double> fv = v;
    lu.Ftran(fv);
    double lhs = 0.0, rhs = 0.0;
    for (int i = 0; i < m; ++i) {
      lhs += bu[i] * v[i];
      rhs += u[i] * fv[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-8);
  }
}

TEST(LuFactorizationTest, AgreesWithDenseBasisAcrossUpdates) {
  Rng rng(23);
  const int m = 30;
  SparseMatrix A = MakeMatrixWithSlacks(rng, m, 20, 0.3);

  std::vector<int> lu_basis(m), dense_basis(m);
  for (int i = 0; i < m; ++i) lu_basis[i] = dense_basis[i] = i;

  LuFactorization lu(100, 8.0);
  DenseBasis dense(100);
  ASSERT_TRUE(lu.Refactorize(A, lu_basis));
  ASSERT_TRUE(dense.Refactorize(A, dense_basis));

  // Interleave pivots: bring in nonbasic columns one at a time, choosing
  // the leaving slot by the largest FTRAN component (guaranteed stable).
  // Both representations must stay in lockstep on FTRAN and BTRAN — but
  // the LU permutes slots at refactorization, so comparisons go through
  // the basis mapping: FTRAN solves against B, not against slot order, and
  // BTRAN gets each slot's entry from the variable that owns it.
  for (int pivot_round = 0; pivot_round < 15; ++pivot_round) {
    const int entering = 2 * m + pivot_round;

    std::vector<double> rhs_probe = RandomVector(rng, m);
    std::vector<double> xl = rhs_probe, xd = rhs_probe;
    lu.Ftran(xl);
    dense.Ftran(xd);
    ExpectNear(BasisTimes(A, lu_basis, xl), BasisTimes(A, dense_basis, xd),
               1e-7);

    // y = B^-T c_B with c a per-variable cost: the same row-space vector
    // whichever slot each basic variable sits in.
    const std::vector<double> cost = RandomVector(rng, A.cols());
    std::vector<double> yl(m), yd(m);
    for (int i = 0; i < m; ++i) {
      yl[i] = cost[lu_basis[i]];
      yd[i] = cost[dense_basis[i]];
    }
    lu.Btran(yl);
    dense.Btran(yd);
    ExpectNear(yl, yd, 1e-7);

    std::vector<double> wl(m, 0.0);
    for (const SparseEntry& e : A.Column(entering)) wl[e.index] = e.value;
    std::vector<double> wd = wl;
    lu.Ftran(wl);
    dense.Ftran(wd);

    int slot_l = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(wl[i]) > std::abs(wl[slot_l])) slot_l = i;
    }
    // The same *variable* must leave in the dense rep.
    const int leaving_var = lu_basis[slot_l];
    int slot_d = -1;
    for (int i = 0; i < m; ++i) {
      if (dense_basis[i] == leaving_var) slot_d = i;
    }
    ASSERT_GE(slot_d, 0);
    EXPECT_NEAR(std::abs(wl[slot_l]), std::abs(wd[slot_d]), 1e-6);

    ASSERT_TRUE(lu.Update(wl, slot_l, 1e-9));
    ASSERT_TRUE(dense.Update(wd, slot_d, 1e-9));
    lu_basis[slot_l] = entering;
    dense_basis[slot_d] = entering;
  }
  EXPECT_EQ(lu.updates_since_refactor(), 15);
}

TEST(LuFactorizationTest, AgreesWithDenseBasisOnRandomBases) {
  // LU and the dense inverse factor the *same* B: FTRAN must agree through
  // the respective slot mappings on many random sparse bases.
  Rng rng(24);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 5 + static_cast<int>(rng.NextDouble(0.0, 35.0));
    SparseMatrix A = MakeMatrixWithSlacks(rng, m, 4, 0.25);
    std::vector<int> lu_basis(m), dense_basis(m);
    for (int i = 0; i < m; ++i) lu_basis[i] = dense_basis[i] = i;

    LuFactorization lu(50, 8.0);
    DenseBasis dense(50);
    ASSERT_TRUE(lu.Refactorize(A, lu_basis));
    ASSERT_TRUE(dense.Refactorize(A, dense_basis));

    std::vector<double> v = RandomVector(rng, m);
    std::vector<double> xl = v, xd = v;
    lu.Ftran(xl);
    dense.Ftran(xd);
    ExpectNear(BasisTimes(A, lu_basis, xl), BasisTimes(A, dense_basis, xd),
               1e-8);
  }
}

TEST(LuFactorizationTest, SingularBasisReportsDependencyAndKeepsState) {
  Rng rng(25);
  const int m = 12;
  SparseMatrix A = MakeMatrixWithSlacks(rng, m, 0, 0.3);
  std::vector<int> good(m);
  for (int i = 0; i < m; ++i) good[i] = i;

  LuFactorization lu(50, 8.0);
  ASSERT_TRUE(lu.Refactorize(A, good));
  const size_t nnz_before = lu.factor_nonzeros();
  std::vector<double> probe = RandomVector(rng, m);
  std::vector<double> reference = probe;
  lu.Ftran(reference);

  // A basis holding the same slack column twice is singular.
  std::vector<int> singular = good;
  int slack_slot = -1;
  for (int i = 0; i < m; ++i) {
    if (good[i] == m + 0) slack_slot = i;  // slot owning e_0, if any
  }
  // `good` was permuted by the factorization; overwrite two slots with the
  // same unit column to force the dependency regardless.
  singular[0] = m + 1;
  singular[1] = m + 1;
  (void)slack_slot;
  std::vector<int> singular_copy = singular;
  EXPECT_FALSE(lu.Refactorize(A, singular));

  // Failure leaves everything untouched: the basis argument, the previous
  // factors, and the solves against them.
  EXPECT_EQ(singular, singular_copy);
  EXPECT_EQ(lu.factor_nonzeros(), nnz_before);
  std::vector<double> again = probe;
  lu.Ftran(again);
  ExpectNear(again, reference, 0.0);

  // And the failure is attributed: equally many dependent columns and
  // uncovered rows, all of them real basis members / row indices.
  const BasisRep::SingularInfo& info = lu.singular_info();
  ASSERT_FALSE(info.empty());
  EXPECT_EQ(info.dependent_columns.size(), info.unpivoted_rows.size());
  for (int r : info.unpivoted_rows) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, m);
  }
}

TEST(LuFactorizationTest, RandomizedSingularBasesRepairWithRowSlacks) {
  // The repair contract end to end, randomized: duplicate a few basis
  // columns (making the basis singular), then apply exactly the solver's
  // repair — each dependent column is replaced by the unit column of an
  // uncovered row — and the next Refactorize must succeed.
  Rng rng(26);
  for (int trial = 0; trial < 25; ++trial) {
    const int m = 6 + static_cast<int>(rng.NextDouble(0.0, 24.0));
    SparseMatrix A = MakeMatrixWithSlacks(rng, m, 0, 0.3);
    std::vector<int> basis(m);
    for (int i = 0; i < m; ++i) basis[i] = i;
    const int duplicates = 1 + static_cast<int>(rng.NextDouble(0.0, 2.9));
    for (int d = 0; d < duplicates; ++d) {
      // Overwrite slot 2d+1 with a copy of slot 2d's column.
      if (2 * d + 1 < m) basis[2 * d + 1] = basis[2 * d];
    }

    LuFactorization lu(50, 8.0);
    if (lu.Refactorize(A, basis)) continue;  // no duplicate landed

    const BasisRep::SingularInfo info = lu.singular_info();
    ASSERT_FALSE(info.empty());
    ASSERT_EQ(info.dependent_columns.size(), info.unpivoted_rows.size());

    // Solver-side repair: dependent columns out, uncovered rows' unit
    // columns (m + r in this matrix) in.
    std::vector<int> repaired = basis;
    for (size_t k = 0; k < info.dependent_columns.size(); ++k) {
      bool swapped = false;
      for (int& v : repaired) {
        if (v == info.dependent_columns[k]) {
          v = m + info.unpivoted_rows[k];
          swapped = true;
          break;
        }
      }
      ASSERT_TRUE(swapped);
    }
    EXPECT_TRUE(lu.Refactorize(A, repaired))
        << "repair with row slacks must make the basis factorizable "
           "(m=" << m << ", trial " << trial << ")";
  }
}

TEST(LuFactorizationTest, ForrestTomlinRejectsSmallSpikePivotUntouched) {
  // det(B') = det(B) * w[slot] means the FT replacement diagonal is
  // d = w[slot] * U_tt: with a small accepted pivot U_tt in the factors, a
  // healthy-looking FTRAN pivot (|w[slot]| >> pivot_tol) can still produce
  // |d| <= pivot_tol. The update must refuse in compute-then-commit
  // fashion: report failure, mutate nothing, and keep accepting good
  // updates afterwards.
  const int m = 2;
  std::vector<Triplet> triplets = {
      Triplet{0, 0, 1.0},      // basis col 0 = e_0
      Triplet{1, 1, 1e-4},     // basis col 1 = 1e-4 * e_1  (small U pivot)
      Triplet{1, 2, 1e-6},     // entering col: d = 1e-2 * 1e-4 = 1e-6
      Triplet{1, 3, 1.0},      // good entering col: d = 1e4 * 1e-4 = 1
  };
  SparseMatrix A(m, 4, std::move(triplets));
  std::vector<int> basis = {0, 1};

  LuFactorization lu(50, 8.0);
  ASSERT_TRUE(lu.Refactorize(A, basis));

  std::vector<double> probe = {0.7, -1.3};
  std::vector<double> reference = probe;
  lu.Ftran(reference);

  // FTRAN of column 2: w = B^-1 a = (0, 1e-2) — passes the |w[slot]| quick
  // reject at pivot_tol = 1e-4, fails on the eliminated diagonal.
  std::vector<double> w = {0.0, 0.0};
  for (const SparseEntry& e : A.Column(2)) w[e.index] = e.value;
  lu.Ftran(w);
  ASSERT_GT(std::abs(w[1]), 1e-4);
  EXPECT_FALSE(lu.Update(w, /*slot=*/1, /*pivot_tol=*/1e-4));

  // Rejection left the factorization fully intact.
  EXPECT_EQ(lu.updates_since_refactor(), 0);
  std::vector<double> again = probe;
  lu.Ftran(again);
  ExpectNear(again, reference, 0.0);

  // And a well-pivoted update still goes through and solves correctly.
  std::fill(w.begin(), w.end(), 0.0);
  for (const SparseEntry& e : A.Column(3)) w[e.index] = e.value;
  lu.Ftran(w);
  ASSERT_TRUE(lu.Update(w, /*slot=*/1, /*pivot_tol=*/1e-4));
  basis[1] = 3;
  std::vector<double> x = probe;
  lu.Ftran(x);
  ExpectNear(BasisTimes(A, basis, x), probe, 1e-9);
}

TEST(LuFactorizationTest, ForrestTomlinFillStaysBounded) {
  // The point of FT: over a long update run the data an FTRAN traverses
  // grows by (roughly) the spike fill, not by a whole column per pivot.
  // Fill is deterministic for the fixed seed: these 30 pivots add 175
  // nonzeros to 972 fresh ones, so any growth past that is an
  // update-kernel fill regression.
  Rng rng(29);
  const int m = 40;
  SparseMatrix A = MakeMatrixWithSlacks(rng, m, 30, 0.3);
  std::vector<int> basis(m);
  for (int i = 0; i < m; ++i) basis[i] = i;

  LuFactorization lu(100, 1e9);
  ASSERT_TRUE(lu.Refactorize(A, basis));
  const size_t fresh = lu.nonzeros();

  std::vector<double> w(m);
  for (int k = 0; k < 30; ++k) {
    const int entering = 2 * m + k;
    std::fill(w.begin(), w.end(), 0.0);
    for (const SparseEntry& e : A.Column(entering)) w[e.index] = e.value;
    lu.Ftran(w);
    int slot = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(w[i]) > std::abs(w[slot])) slot = i;
    }
    ASSERT_TRUE(lu.Update(w, slot, 1e-9));
    basis[slot] = entering;
  }
  const int64_t growth = static_cast<int64_t>(lu.nonzeros()) -
                         static_cast<int64_t>(fresh);
  EXPECT_LE(growth, 175) << "FT fill over " << fresh << " fresh nonzeros";
}

TEST(LuFactorizationTest, GrowthTriggersRefactor) {
  Rng rng(27);
  const int m = 10;
  SparseMatrix A = MakeMatrixWithSlacks(rng, m, 20, 0.5);
  std::vector<int> basis(m);
  for (int i = 0; i < m; ++i) basis[i] = i;
  LuFactorization lu(/*max_updates=*/5, /*growth_limit=*/64.0);
  ASSERT_TRUE(lu.Refactorize(A, basis));
  EXPECT_FALSE(lu.ShouldRefactor());

  std::vector<double> w(m);
  for (int k = 0; k < 5; ++k) {
    for (const SparseEntry& e : A.Column(2 * m + k)) w[e.index] = e.value;
    lu.Ftran(w);
    int slot = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(w[i]) > std::abs(w[slot])) slot = i;
    }
    ASSERT_TRUE(lu.Update(w, slot, 1e-9));
    basis[slot] = 2 * m + k;
    std::fill(w.begin(), w.end(), 0.0);
  }
  EXPECT_TRUE(lu.ShouldRefactor());  // max_updates hit
  ASSERT_TRUE(lu.Refactorize(A, basis));
  EXPECT_FALSE(lu.ShouldRefactor());
}

}  // namespace
}  // namespace lp
}  // namespace privsan
