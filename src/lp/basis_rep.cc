#include "lp/basis_rep.h"

#include <cmath>
#include <utility>

namespace privsan {
namespace lp {

namespace {
// Pivot magnitude below which a factorization declares the basis singular.
constexpr double kSingularTol = 1e-11;
}  // namespace

bool DenseBasis::Refactorize(const SparseMatrix& A, std::vector<int>& basis) {
  const int m = A.rows();
  singular_info_.Clear();  // dense pivoting cannot attribute dependencies

  std::vector<double> dense(static_cast<size_t>(m) * m, 0.0);
  for (int i = 0; i < m; ++i) {
    for (const SparseEntry& e : A.Column(basis[i])) {
      dense[static_cast<size_t>(e.index) * m + i] = e.value;
    }
  }
  // Invert into a local and commit on success only (failure contract).
  std::vector<double> binv(static_cast<size_t>(m) * m, 0.0);
  for (int i = 0; i < m; ++i) binv[static_cast<size_t>(i) * m + i] = 1.0;

  for (int col = 0; col < m; ++col) {
    int pivot_row = col;
    double best = std::abs(dense[static_cast<size_t>(col) * m + col]);
    for (int r = col + 1; r < m; ++r) {
      double v = std::abs(dense[static_cast<size_t>(r) * m + col]);
      if (v > best) {
        best = v;
        pivot_row = r;
      }
    }
    if (best < kSingularTol) return false;
    if (pivot_row != col) {
      for (int k = 0; k < m; ++k) {
        std::swap(dense[static_cast<size_t>(pivot_row) * m + k],
                  dense[static_cast<size_t>(col) * m + k]);
        std::swap(binv[static_cast<size_t>(pivot_row) * m + k],
                  binv[static_cast<size_t>(col) * m + k]);
      }
    }
    const double inv_pivot = 1.0 / dense[static_cast<size_t>(col) * m + col];
    for (int k = 0; k < m; ++k) {
      dense[static_cast<size_t>(col) * m + k] *= inv_pivot;
      binv[static_cast<size_t>(col) * m + k] *= inv_pivot;
    }
    for (int r = 0; r < m; ++r) {
      if (r == col) continue;
      const double factor = dense[static_cast<size_t>(r) * m + col];
      if (factor == 0.0) continue;
      for (int k = 0; k < m; ++k) {
        dense[static_cast<size_t>(r) * m + k] -=
            factor * dense[static_cast<size_t>(col) * m + k];
        binv[static_cast<size_t>(r) * m + k] -=
            factor * binv[static_cast<size_t>(col) * m + k];
      }
    }
  }
  m_ = m;
  binv_ = std::move(binv);
  updates_ = 0;
  return true;
}

void DenseBasis::Ftran(std::vector<double>& v) const {
  const int m = m_;
  std::vector<double> out(m, 0.0);
  for (int i = 0; i < m; ++i) {
    const double* row = &binv_[static_cast<size_t>(i) * m];
    double sum = 0.0;
    for (int k = 0; k < m; ++k) sum += row[k] * v[k];
    out[i] = sum;
  }
  v = std::move(out);
}

void DenseBasis::Btran(std::vector<double>& v) const {
  const int m = m_;
  std::vector<double> out(m, 0.0);
  for (int i = 0; i < m; ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    const double* row = &binv_[static_cast<size_t>(i) * m];
    for (int k = 0; k < m; ++k) out[k] += vi * row[k];
  }
  v = std::move(out);
}

bool DenseBasis::Update(const std::vector<double>& w, int slot,
                        double pivot_tol) {
  const int m = m_;
  const double pivot = w[slot];
  if (std::abs(pivot) <= pivot_tol) return false;
  double* pivot_row = &binv_[static_cast<size_t>(slot) * m];
  const double inv_pivot = 1.0 / pivot;
  for (int k = 0; k < m; ++k) pivot_row[k] *= inv_pivot;
  for (int i = 0; i < m; ++i) {
    if (i == slot) continue;
    const double factor = w[i];
    if (factor == 0.0) continue;
    double* row = &binv_[static_cast<size_t>(i) * m];
    for (int k = 0; k < m; ++k) row[k] -= factor * pivot_row[k];
  }
  ++updates_;
  return true;
}

}  // namespace lp
}  // namespace privsan
