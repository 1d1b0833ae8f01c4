// Basis factorizations for the revised simplex.
//
// The solver only ever needs three operations on the basis matrix B (the
// m columns of A owned by the basic variables):
//
//   FTRAN:  v := B^-1 v        (entering column, basic values)
//   BTRAN:  v := B^-T v        (duals, pivot row)
//   UPDATE: replace the column in one basis slot after a pivot
//
// `BasisRep` abstracts those; two implementations exist:
//
//   * LuFactorization (lp/lu_factorization.h) — the production
//     representation: sparse LU with Markowitz pivot ordering and threshold
//     partial pivoting, updated by Forrest–Tomlin.
//   * DenseBasis — an explicit dense m x m inverse updated by Gauss-Jordan
//     pivots. The numerical retry of last resort and the oracle the LU is
//     tested against.
//
// Refactorization policy lives with the representation: ShouldRefactor()
// reports growth of the update file; the solver additionally refactorizes
// on numerical drift (residual breach), not on a fixed iteration cadence.
//
// Failure contract shared by every implementation: a Refactorize() that
// returns false leaves BOTH the previous factorization and the `basis`
// argument untouched, so the caller can repair the basis (swap the
// dependent columns reported in singular_info() for row slacks,
// lp/simplex.cc) and retry deterministically.
#ifndef PRIVSAN_LP_BASIS_REP_H_
#define PRIVSAN_LP_BASIS_REP_H_

#include <cstddef>
#include <vector>

#include "lp/sparse_matrix.h"

namespace privsan {
namespace lp {

class BasisRep {
 public:
  // What a failed Refactorize() found: the rows left without a pivot and
  // the basis variables that could not be pivoted in (numerically
  // dependent on the others), paired by count. The solver uses this to
  // repair the basis in place — dependent columns leave for the uncovered
  // rows' slacks — instead of falling back to a cold solve.
  struct SingularInfo {
    std::vector<int> unpivoted_rows;
    std::vector<int> dependent_columns;  // variable ids from `basis`
    bool empty() const { return dependent_columns.empty(); }
    void Clear() {
      unpivoted_rows.clear();
      dependent_columns.clear();
    }
  };

  virtual ~BasisRep() = default;

  // Factorizes the basis formed by columns `basis` of A. May permute
  // `basis` (slot re-assignment); callers must recompute basic values
  // afterwards. Returns false if the basis is numerically singular — then
  // `basis`, the previous factorization, and all counters are left exactly
  // as they were, and singular_info() describes the dependency (when the
  // representation can attribute it; DenseBasis cannot).
  virtual bool Refactorize(const SparseMatrix& A, std::vector<int>& basis) = 0;

  // v := B^-1 v. v has dimension m.
  virtual void Ftran(std::vector<double>& v) const = 0;

  // v := B^-T v. v has dimension m.
  virtual void Btran(std::vector<double>& v) const = 0;

  // Registers a pivot: the column whose FTRAN image is `w` replaces basis
  // slot `slot`. Returns false when |w[slot]| <= pivot_tol (caller should
  // refactorize instead).
  virtual bool Update(const std::vector<double>& w, int slot,
                      double pivot_tol) = 0;

  // Pivots registered since the last Refactorize().
  virtual int updates_since_refactor() const = 0;

  // Whether the update file has grown enough that refactorizing is cheaper
  // than continuing to apply it.
  virtual bool ShouldRefactor() const = 0;

  // Nonzeros one FTRAN/BTRAN traverses — factors plus update file. The
  // solver exports this as the factorization-fill statistic.
  virtual size_t nonzeros() const = 0;

  // Valid after the most recent Refactorize() returned false; empty after
  // a success (or when the representation cannot attribute the failure).
  const SingularInfo& singular_info() const { return singular_info_; }

 protected:
  SingularInfo singular_info_;
};

// Explicit dense inverse (numerical retry and test oracle).
class DenseBasis : public BasisRep {
 public:
  explicit DenseBasis(int max_updates) : max_updates_(max_updates) {}

  bool Refactorize(const SparseMatrix& A, std::vector<int>& basis) override;
  void Ftran(std::vector<double>& v) const override;
  void Btran(std::vector<double>& v) const override;
  bool Update(const std::vector<double>& w, int slot,
              double pivot_tol) override;
  int updates_since_refactor() const override { return updates_; }
  bool ShouldRefactor() const override { return updates_ >= max_updates_; }
  size_t nonzeros() const override {
    return static_cast<size_t>(m_) * static_cast<size_t>(m_);
  }

 private:
  int m_ = 0;
  std::vector<double> binv_;  // row-major m x m
  int updates_ = 0;
  int max_updates_;
};

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_BASIS_REP_H_
