#include "lp/sparse_matrix.h"

#include <algorithm>

#include "util/logging.h"

namespace privsan {
namespace lp {

SparseMatrix::SparseMatrix(int rows, int cols, std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
  PRIVSAN_CHECK(rows >= 0 && cols >= 0);
  for (const Triplet& t : triplets) {
    PRIVSAN_CHECK(t.row >= 0 && t.row < rows);
    PRIVSAN_CHECK(t.col >= 0 && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.col != b.col ? a.col < b.col : a.row < b.row;
            });

  offsets_.assign(cols + 1, 0);
  entries_.reserve(triplets.size());
  size_t i = 0;
  for (int j = 0; j < cols; ++j) {
    while (i < triplets.size() && triplets[i].col == j) {
      double value = triplets[i].value;
      int row = triplets[i].row;
      ++i;
      while (i < triplets.size() && triplets[i].col == j &&
             triplets[i].row == row) {
        value += triplets[i].value;
        ++i;
      }
      if (value != 0.0) entries_.push_back(SparseEntry{row, value});
    }
    offsets_[j + 1] = entries_.size();
  }
}

void SparseMatrix::AddColumnTo(int j, double alpha,
                               std::vector<double>& y) const {
  for (const SparseEntry& e : Column(j)) {
    y[e.index] += alpha * e.value;
  }
}

}  // namespace lp
}  // namespace privsan
