// Sparse LU basis factorization with Markowitz pivot ordering and
// Forrest–Tomlin updates — the production BasisRep (lp/basis_rep.h).
//
//   * Markowitz pivot ordering — each elimination step picks the pivot
//     (i, j) minimizing the fill bound (r_i - 1)(c_j - 1) over the active
//     submatrix. Candidate columns come from count-indexed bucket lists
//     (doubly linked, relinked on every count change), so the per-step
//     search costs O(candidates), not O(m) — the whole refactorization is
//     proportional to fill, not dimension.
//   * threshold partial pivoting — a pivot must also satisfy
//     |a_ij| >= markowitz_threshold * max_k |a_kj|, trading a bounded
//     amount of stability for the freedom to chase sparsity,
//   * Forrest–Tomlin updates — the entering column's partial image
//     û = U w replaces its column of U; the leaving row of U becomes a row
//     spike that is eliminated against the later U rows, the multipliers
//     recorded as one *row eta* applied with L. U stays upper triangular
//     (in the maintained step order) and as sparse as the data allows
//     across long pivot runs — per-update cost and growth are both
//     fill-proportional.
//
// Solves (B = P^T L U with the permutations carried in the step order):
//   FTRAN  v := B^-1 v :  forward-apply the L multipliers in elimination
//                         order, then the Forrest–Tomlin row etas in
//                         append order, then back-substitute U in the
//                         current step order;
//   BTRAN  v := B^-T v :  forward-substitute U^T, the FT row etas
//                         transposed in reverse, then the L multipliers
//                         transposed in reverse.
//
// Shares the BasisRep failure contract: a singular Refactorize() leaves
// the previous factorization and `basis` untouched and reports the
// unpivoted rows / dependent columns in singular_info(), which is what
// lets the solver repair the basis in place (lp/simplex.cc) instead of
// cold-solving. A Forrest–Tomlin Update() whose spike pivot is too small
// returns false *without mutating the factors* — the caller refactorizes
// and the representation stays usable throughout.
#ifndef PRIVSAN_LP_LU_FACTORIZATION_H_
#define PRIVSAN_LP_LU_FACTORIZATION_H_

#include <cstddef>
#include <vector>

#include "lp/basis_rep.h"
#include "lp/sparse_matrix.h"

namespace privsan {
namespace lp {

class LuFactorization : public BasisRep {
 public:
  // `max_updates` / `growth_limit`: the refactorization policy — fire after
  // max_updates pivots, or once the total nonzeros (factors, FT update
  // fill, and row-eta terms) exceed growth_limit x the fresh factors.
  // `markowitz_threshold` in (0, 1]: larger is more stable, smaller is
  // sparser; 0.1 is the textbook default.
  LuFactorization(int max_updates, double growth_limit,
                  double markowitz_threshold = 0.1)
      : max_updates_(max_updates),
        growth_limit_(growth_limit),
        markowitz_threshold_(markowitz_threshold) {}

  bool Refactorize(const SparseMatrix& A, std::vector<int>& basis) override;
  void Ftran(std::vector<double>& v) const override;
  void Btran(std::vector<double>& v) const override;
  bool Update(const std::vector<double>& w, int slot,
              double pivot_tol) override;
  int updates_since_refactor() const override { return updates_; }
  bool ShouldRefactor() const override;
  size_t nonzeros() const override { return total_nonzeros(); }

  // Nonzeros of the fresh L + U factors (the fill the Markowitz ordering
  // minimizes; excludes any update bookkeeping).
  size_t factor_nonzeros() const { return l_nnz_ + fresh_u_nnz_; }
  // Current nonzeros of U alone, including Forrest–Tomlin update fill —
  // the quantity whose growth the FT update is built to contain.
  size_t u_nonzeros() const { return u_nnz_; }
  // Everything FTRAN/BTRAN actually traverse: L, current U, and the FT
  // row etas.
  size_t total_nonzeros() const { return l_nnz_ + u_nnz_ + ft_nnz_; }

 private:
  // One elimination step's L column: v[row] -= multiplier * v[pivot_row].
  struct LStep {
    int pivot_row = 0;
    std::vector<SparseEntry> multipliers;  // (row, l_row) below the pivot
  };
  // One elimination step's U row. Entries point at the pivot *rows* of the
  // steps owning those columns (translated once at factorization end), so
  // both substitution passes index the work vector directly.
  struct URow {
    int pivot_row = 0;
    double pivot = 0.0;
    std::vector<SparseEntry> entries;  // (pivot_row of owning step, u)
  };
  // One Forrest–Tomlin row elimination, applied with (after) L:
  //   FTRAN: v[row] -= sum terms.value * v[terms.index]
  //   BTRAN: v[terms.index] -= terms.value * v[row]   (transposed, reversed)
  struct RowEta {
    int row = 0;
    std::vector<SparseEntry> terms;  // (pivot_row of eliminating U row, r)
  };

  int m_ = 0;
  std::vector<LStep> lsteps_;   // in elimination order
  std::vector<URow> urows_;     // in *current* step order (FT reorders)
  std::vector<int> row_pos_;    // pivot_row -> position in urows_
  std::vector<RowEta> ft_etas_; // Forrest–Tomlin row etas, append order
  // Column occupancy of U, keyed by the owning step's pivot_row: which
  // rows (by their pivot_row) hold a nonzero in that column. May carry
  // stale listings after a row is replaced — consumers re-validate against
  // the row data — but never misses a live entry, so the FT update deletes
  // the leaving column in O(column) instead of scanning U.
  std::vector<std::vector<int>> u_col_rows_;
  size_t l_nnz_ = 0;
  size_t fresh_u_nnz_ = 0;  // U nonzeros right after Refactorize()
  size_t u_nnz_ = 0;        // current U nonzeros (tracks FT fill)
  size_t ft_nnz_ = 0;       // row-eta terms
  int updates_ = 0;
  int max_updates_;
  double growth_limit_;
  double markowitz_threshold_;

  // Update-path scratch, sized at Refactorize (avoids per-pivot
  // allocation). uhat_ holds û for the duration of one Update().
  mutable std::vector<double> uhat_;
  mutable std::vector<double> spike_;
  // Forrest–Tomlin FTRAN memo: the partial image (after L and the row
  // etas, before U back-substitution) and the final result of recent
  // Ftran() calls. When Update()'s w matches a slot's result element for
  // element, that slot's partial IS the û the update needs — recovered
  // for free instead of by an O(nnz(U)) product. Two slots, written round
  // robin: the dual simplex FTRANs its combined bound-flip delta between
  // the entering column's FTRAN and the Update, so a single-slot memo
  // would miss on exactly the warm-start repair iterations that matter.
  // No match anywhere falls back to computing U w directly.
  mutable std::vector<double> ftran_partial_[2];
  mutable std::vector<double> ftran_result_[2];
  mutable int ftran_slot_ = 0;
};

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_LU_FACTORIZATION_H_
