// Compressed sparse column matrix used by the simplex solver for fast
// column access (FTRAN and pricing both walk columns), with a parallel
// CSR view: the dual simplex prices rows (alpha = A^T rho with rho sparse),
// which walks rows instead.
#ifndef PRIVSAN_LP_SPARSE_MATRIX_H_
#define PRIVSAN_LP_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
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
  int index = 0;  // row index (CSC) or column index (CSR)
  double value = 0.0;
};

// Cell of an epoch-validated sparse accumulator (alpha = A^T rho in the
// simplex pivot row): `value` is live only when `epoch` matches the
// accumulation round's counter, so clearing between rounds is a counter
// bump instead of a pass over the touched indices. Value and mark share a
// 16-byte cell deliberately — the accumulation's random access per matrix
// entry then costs one cache line, not two (a measured hot spot: the pivot
// row visits most of the matrix on every simplex iteration).
struct SparseAccumCell {
  double value = 0.0;
  int64_t epoch = 0;
};

// Immutable CSC + CSR matrix. Duplicate triplets are summed during
// construction; explicit zeros are dropped.
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

  // The entries of row i, sorted by column index.
  std::span<const SparseEntry> Row(int i) const {
    return {row_entries_.data() + row_offsets_[i],
            row_offsets_[i + 1] - row_offsets_[i]};
  }

  // y += alpha * A[:, j]
  void AddColumnTo(int j, double alpha, std::vector<double>& y) const;

  // Returns dot(A[:, j], x).
  double ColumnDot(int j, const std::vector<double>& x) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<size_t> offsets_;  // size cols_+1
  std::vector<SparseEntry> entries_;
  std::vector<size_t> row_offsets_;  // size rows_+1
  std::vector<SparseEntry> row_entries_;
};

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_SPARSE_MATRIX_H_
