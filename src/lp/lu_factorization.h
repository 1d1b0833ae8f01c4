// Sparse LU basis factorization with Markowitz pivot ordering and
// Forrest–Tomlin updates — the production BasisRep (lp/basis_rep.h).
//
// Refactorize() is a right-looking elimination over the active submatrix
// (the rows and columns not yet pivoted). Storage:
//   * values column-wise: each active column lists (row, value) for its
//     entries in the order they arrived (the matrix's row order, then fill
//     in elimination order). An entry that cancels exactly stays listed as
//     a zero, so filled again it keeps its place;
//   * row *patterns*: each row lists the columns it has a nonzero in, in
//     the order they arrived; eliminated columns and cancelled entries stay
//     listed and are skipped, and an entry filled again after cancelling is
//     listed again at the end, where it counts;
//   * exact row and column counts, and count-indexed bucket lists of the
//     active columns (doubly linked, with a bitmap of the columns of
//     count 1);
//   * once the active submatrix is 30% dense, a dense column-major block of
//     its values instead of the lists.
// Each step
//   * picks the pivot (p, q) minimizing the Markowitz fill bound
//     (r_p - 1)(c_q - 1) among 8 candidate columns: whole buckets in
//     ascending count order until at least 8 columns are offered, the 8
//     cheapest by (count, column) kept. Within a column the pivot must
//     pass threshold partial pivoting, |a_pq| >= 0.1 * max_r |a_rq|; ties
//     go to the larger magnitude, then the lower row. Candidates stop once
//     (count - 1) times the smallest active row count minus one reaches
//     the best cost found, and the lowest-numbered column singleton is
//     taken directly, both exactly as the full candidate scan would choose.
//     Only when no candidate has an acceptable pivot does a scan of every
//     column take the first one that does.
//   * eliminates it column by column: every column j in the pivot row
//     gives its pivot-row entry to U and takes a_rj -= l_r a_pj for the
//     rows r of the pivot column (l_r = a_rq / a_pq, the L multipliers).
// A step costs the pivot row's columns times the pivot column (plus, in
// the sparse phase, a pass over each updated column) — the
// refactorization follows its fill, never m^2. The working state, the
// scratch, and a second set of factors the next Refactorize() builds into
// (copied into the live ones only on success) are members: refactorizing a
// basis the object has seen before allocates nothing.
//
// Forrest–Tomlin updates — the entering column's partial image û = U w
// replaces its column of U; the leaving row of U becomes a row spike that
// is eliminated against the later U rows, the multipliers recorded as one
// *row eta* applied with L. U stays upper triangular (in the maintained
// step order) and as sparse as the data allows across long pivot runs —
// per-update cost and growth are both fill-proportional.
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
#include <cstdint>
#include <utility>
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
  LuFactorization(int max_updates, double growth_limit)
      : max_updates_(max_updates), growth_limit_(growth_limit) {}

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

  // Refactorize()'s working state (see the file comment), sized per call
  // and reused across calls.
  struct Active {
    std::vector<std::vector<SparseEntry>> cols;  // (row, value) lists
    std::vector<std::vector<int>> rows;          // column pattern per row
    std::vector<int> col_count, row_count;       // exact active counts
    std::vector<char> col_active, row_active;
    // Count-indexed bucket lists over the active columns.
    std::vector<int> bucket_head, bucket_next, bucket_prev;
    std::vector<uint64_t> single_bits;  // columns of count 1
    // Row -> multiplier of the current pivot column (0 off it);
    // seen_stamp marks the rows the column being updated already lists.
    std::vector<double> mult;
    std::vector<int> seen_stamp;
    // The pivot row's columns, deduplicated through col_stamp.
    std::vector<int> pivot_row_cols, col_stamp;
    // The dense phase: a dense_k x dense_k column-major block of the
    // active values (dense_k == 0 before it starts), with local <-> global
    // row and column indices, and the local indices of the rows and
    // columns still active.
    int dense_k = 0;
    std::vector<double> dense;
    std::vector<int> local_row, local_col, dense_rows, dense_cols;
    std::vector<int> dense_active, dense_active_cols;
    // The current multipliers' local rows and values, and the positions
    // among them whose entry an update turned to or from zero.
    std::vector<int> mult_local, changed;
    std::vector<double> mult_value;
    std::vector<std::pair<int, int>> cands;  // (count, column)
    std::vector<int> pivot_rows;             // step -> pivot row
    std::vector<int> step_of_col;            // slot column -> step
    std::vector<int> new_basis;
    // The factors under construction, copied into lsteps_/urows_ on
    // success, so a failed call leaves the previous factors untouched.
    std::vector<LStep> lsteps;
    std::vector<URow> urows;
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
  Active active_;

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
