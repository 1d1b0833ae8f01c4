// Shared random-basis generators for the factorization benches
// (bench_micro_factorization and the BM_* kernels in bench_micro): one
// definition so every kernel is measured on the *same* matrices.
#ifndef PRIVSAN_BENCH_BENCH_FACTORIZATION_COMMON_H_
#define PRIVSAN_BENCH_BENCH_FACTORIZATION_COMMON_H_

#include <utility>
#include <vector>

#include "lp/sparse_matrix.h"
#include "rng/random.h"

namespace privsan {
namespace bench {

// A random m x (2m + extra) matrix whose first m columns form a
// diagonally-dominated (hence nonsingular) basis; columns m.. provide
// entering columns for update benchmarks. `extra` = 0 gives just the basis
// block plus one ring of entering columns.
inline lp::SparseMatrix MakeBasisBenchMatrix(Rng& rng, int m, int extra,
                                             double density) {
  std::vector<lp::Triplet> triplets;
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i < m; ++i) {
      if (i == j) {
        triplets.push_back(lp::Triplet{i, j, 3.0 + rng.NextDouble()});
      } else if (rng.NextBool(density)) {
        triplets.push_back(lp::Triplet{i, j, rng.NextDouble(-1.0, 1.0)});
      }
    }
  }
  for (int j = m; j < 2 * m + extra; ++j) {
    triplets.push_back(lp::Triplet{j % m, j, 1.0 + rng.NextDouble()});
    for (int i = 0; i < m; ++i) {
      if (rng.NextBool(density)) {
        triplets.push_back(lp::Triplet{i, j, rng.NextDouble(-1.0, 1.0)});
      }
    }
  }
  return lp::SparseMatrix(m, 2 * m + extra, std::move(triplets));
}

// A simplex-shaped basis: mostly slack (unit) columns with a sparse
// structural minority, which is what warm simplex bases actually look
// like. Off-diagonal counts are per *column* (`nnz_per_column` expected
// entries), not a density of m, so the factors stay sparse at every bench
// scale; entering columns (m..) get the same shape as the structural
// basis columns.
inline lp::SparseMatrix MakeSlackHeavyBenchMatrix(Rng& rng, int m, int extra,
                                                   double structural_fraction,
                                                   double nnz_per_column) {
  const double p = nnz_per_column / static_cast<double>(m);
  std::vector<lp::Triplet> triplets;
  for (int j = 0; j < m; ++j) {
    triplets.push_back(lp::Triplet{j, j, 3.0 + rng.NextDouble()});
    if (!rng.NextBool(structural_fraction)) continue;  // slack column
    for (int i = 0; i < m; ++i) {
      if (i != j && rng.NextBool(p)) {
        triplets.push_back(lp::Triplet{i, j, rng.NextDouble(-1.0, 1.0)});
      }
    }
  }
  for (int j = m; j < 2 * m + extra; ++j) {
    triplets.push_back(lp::Triplet{j % m, j, 1.0 + rng.NextDouble()});
    for (int i = 0; i < m; ++i) {
      if (rng.NextBool(p)) {
        triplets.push_back(lp::Triplet{i, j, rng.NextDouble(-1.0, 1.0)});
      }
    }
  }
  return lp::SparseMatrix(m, 2 * m + extra, std::move(triplets));
}

}  // namespace bench
}  // namespace privsan

#endif  // PRIVSAN_BENCH_BENCH_FACTORIZATION_COMMON_H_
