// Compressed sparse column matrix used by the simplex solver. Every
// consumer walks columns: FTRAN loads one, and the pivot row
// alpha_j = A_j^T rho is a dot per nonbasic column (rho = B^-T e_r is
// dense on the UMP bases, so a row-wise scatter would not save work).
#ifndef PRIVSAN_LP_SPARSE_MATRIX_H_
#define PRIVSAN_LP_SPARSE_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

namespace privsan {
namespace lp {

struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

struct SparseEntry {
  int index = 0;  // row index
  double value = 0.0;
};

// Immutable CSC matrix. Duplicate triplets are summed during construction;
// explicit zeros are dropped.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  SparseMatrix(int rows, int cols, std::vector<Triplet> triplets);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t nonzeros() const { return entries_.size(); }

  // The entries of column j, sorted by row index.
  std::span<const SparseEntry> Column(int j) const {
    return {entries_.data() + offsets_[j], offsets_[j + 1] - offsets_[j]};
  }

  // y += alpha * A[:, j]
  void AddColumnTo(int j, double alpha, std::vector<double>& y) const;

  // Returns dot(A[:, j], x), summed in row order. Inline: the pivot row
  // calls it once per nonbasic column on every simplex iteration.
  double ColumnDot(int j, const std::vector<double>& x) const {
    double dot = 0.0;
    for (const SparseEntry& e : Column(j)) dot += e.value * x[e.index];
    return dot;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<size_t> offsets_;  // size cols_+1
  std::vector<SparseEntry> entries_;
};

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_SPARSE_MATRIX_H_
