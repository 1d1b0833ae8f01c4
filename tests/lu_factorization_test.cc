// The Markowitz LU must agree with the dense explicit inverse (both are
// BasisRep implementations of the same linear algebra), and its failure
// path must honor the repair contract: a singular Refactorize() leaves the
// previous factorization untouched, names every dependent column and every
// uncovered row, and swapping the dependent columns for unit columns of
// the uncovered rows must make the very next Refactorize() succeed — that
// swap is exactly the solver-side basis repair (lp/simplex.cc).
//
// Mixed bases (slack columns, column and row singletons, and a nucleus in
// which exact cancellations happen) walk every path of the refactorization:
// the singleton steps, the sparse and the dense elimination phases, and
// entries that cancel and fill again. Refactorizing a basis again reuses
// the object's storage: the operator new below counts the allocations one
// call makes.
#include "lp/lu_factorization.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "lp/sparse_matrix.h"
#include "rng/random.h"

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

// A basis of `slacks` unit columns, `col_singletons` one-entry columns,
// `row_singletons` columns that are the only basis column in their own
// row, and a k x k nucleus with diagonal 8 and off-diagonal entries in
// {-2, -1, 1, 2} at the given density, its rows in pairs that share their
// off-diagonal entries (so eliminating one row of a pair cancels entries
// of the other exactly). The basis columns are the first m, in shuffled
// order through `basis`; `entering` random sparse columns follow.
struct MixedBasis {
  SparseMatrix A;
  std::vector<int> basis;
};

MixedBasis MakeMixedBasis(Rng& rng, int k, double density, int entering) {
  const int slacks = 10, col_singletons = 8, row_singletons = 6;
  const int first_row_singleton = slacks + col_singletons;
  const int first_nucleus = first_row_singleton + row_singletons;
  const int m = first_nucleus + k;
  auto small_int = [&] {
    const double v = rng.NextBool(0.5) ? 1.0 : 2.0;
    return rng.NextBool(0.5) ? v : -v;
  };
  std::vector<Triplet> triplets;
  for (int j = 0; j < slacks; ++j) triplets.push_back(Triplet{j, j, 1.0});
  for (int j = slacks; j < first_row_singleton; ++j) {
    triplets.push_back(Triplet{j, j, 1.0 + rng.NextDouble()});
  }
  for (int j = first_row_singleton; j < first_nucleus; ++j) {
    triplets.push_back(Triplet{j, j, 2.0 + rng.NextDouble()});
    for (int i = first_nucleus; i < m; ++i) {
      if (rng.NextBool(0.3)) triplets.push_back(Triplet{i, j, small_int()});
    }
  }
  for (int j = first_nucleus; j < m; ++j) {
    triplets.push_back(Triplet{j, j, 8.0});
    for (int i = first_nucleus; i < m; i += 2) {
      // Rows i and i + 1 of the nucleus share this column's entry.
      if (!rng.NextBool(density)) continue;
      const double v = small_int();
      for (int r : {i, i + 1}) {
        if (r < m && r != j) triplets.push_back(Triplet{r, j, v});
      }
    }
    for (int i = 0; i < slacks; ++i) {
      if (rng.NextBool(0.2)) triplets.push_back(Triplet{i, j, small_int()});
    }
  }
  for (int j = m; j < m + entering; ++j) {
    triplets.push_back(
        Triplet{(j - m) % m, j, 1.0 + rng.NextDouble()});
    for (int i = 0; i < m; ++i) {
      if (i != (j - m) % m && rng.NextBool(0.2)) {
        triplets.push_back(Triplet{i, j, rng.NextDouble(-1.0, 1.0)});
      }
    }
  }
  MixedBasis mixed{SparseMatrix(m, m + entering, std::move(triplets)), {}};
  mixed.basis.resize(m);
  for (int i = 0; i < m; ++i) mixed.basis[i] = i;
  for (int i = m - 1; i > 0; --i) {
    std::swap(mixed.basis[i], mixed.basis[rng.NextBounded(i + 1)]);
  }
  return mixed;
}

// FTRAN through the slot mapping and BTRAN of a per-variable cost agree.
void ExpectSameSolves(Rng& rng, const SparseMatrix& A, LuFactorization& lu,
                      const std::vector<int>& lu_basis, DenseBasis& dense,
                      const std::vector<int>& dense_basis) {
  const int m = A.rows();
  const std::vector<double> v = RandomVector(rng, m);
  std::vector<double> xl = v, xd = v;
  lu.Ftran(xl);
  dense.Ftran(xd);
  ExpectNear(BasisTimes(A, lu_basis, xl), v, 1e-9);
  ExpectNear(BasisTimes(A, lu_basis, xl), BasisTimes(A, dense_basis, xd),
             1e-9);
  const std::vector<double> cost = RandomVector(rng, A.cols());
  std::vector<double> yl(m), yd(m);
  for (int i = 0; i < m; ++i) {
    yl[i] = cost[lu_basis[i]];
    yd[i] = cost[dense_basis[i]];
  }
  lu.Btran(yl);
  dense.Btran(yd);
  ExpectNear(yl, yd, 1e-9);
}

TEST(LuFactorizationTest, MixedBasesAgreeWithDenseBasisAcrossUpdates) {
  Rng rng(31);
  // A dense nucleus goes to the dense phase almost at once; a large sparse
  // one runs sparse eliminations (with fill) before it gets there.
  for (const auto& [k, density] :
       {std::pair{30, 0.5}, std::pair{60, 0.08}, std::pair{90, 0.03}}) {
    SCOPED_TRACE(k);
    const int entering = 20;
    MixedBasis mixed = MakeMixedBasis(rng, k, density, entering);
    const SparseMatrix& A = mixed.A;
    const int m = A.rows();
    std::vector<int> lu_basis = mixed.basis, dense_basis = mixed.basis;
    LuFactorization lu(100, 1e9);
    DenseBasis dense(100);
    ASSERT_TRUE(lu.Refactorize(A, lu_basis));
    ASSERT_TRUE(dense.Refactorize(A, dense_basis));
    ExpectSameSolves(rng, A, lu, lu_basis, dense, dense_basis);

    // Forrest–Tomlin updates: each entering column replaces the basic
    // variable at its largest FTRAN component, in both representations.
    std::vector<double> wl(m), wd(m);
    for (int e = 0; e < entering; ++e) {
      std::fill(wl.begin(), wl.end(), 0.0);
      for (const SparseEntry& entry : A.Column(m + e)) {
        wl[entry.index] = entry.value;
      }
      wd = wl;
      lu.Ftran(wl);
      dense.Ftran(wd);
      int slot_l = 0;
      for (int i = 1; i < m; ++i) {
        if (std::abs(wl[i]) > std::abs(wl[slot_l])) slot_l = i;
      }
      int slot_d = 0;
      while (dense_basis[slot_d] != lu_basis[slot_l]) ++slot_d;
      ASSERT_TRUE(lu.Update(wl, slot_l, 1e-9));
      ASSERT_TRUE(dense.Update(wd, slot_d, 1e-9));
      lu_basis[slot_l] = m + e;
      dense_basis[slot_d] = m + e;
    }
    ExpectSameSolves(rng, A, lu, lu_basis, dense, dense_basis);

    // And a fresh factorization of the updated basis agrees again.
    ASSERT_TRUE(lu.Refactorize(A, lu_basis));
    ExpectSameSolves(rng, A, lu, lu_basis, dense, dense_basis);
  }
}

TEST(LuFactorizationTest, RefactorizingAgainReusesStorage) {
  Rng rng(32);
  MixedBasis mixed = MakeMixedBasis(rng, 60, 0.08, 0);
  LuFactorization lu(100, 1e9);
  // The first two calls size the working state and both sets of factors
  // (the current one and the one the next call builds into); from the
  // third on, a basis of the same shape allocates nothing.
  for (int call = 0; call < 4; ++call) {
    std::vector<int> basis = mixed.basis;
    g_allocations.store(0);
    g_count_allocations.store(true);
    const bool ok = lu.Refactorize(mixed.A, basis);
    g_count_allocations.store(false);
    ASSERT_TRUE(ok);
    if (call >= 2) EXPECT_EQ(g_allocations.load(), 0) << "call " << call;
  }
}

}  // namespace
}  // namespace lp
}  // namespace privsan
