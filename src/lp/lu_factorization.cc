#include "lp/lu_factorization.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace privsan {
namespace lp {

namespace {
// Pivot magnitude below which a factorization declares the basis singular.
constexpr double kSingularTol = 1e-11;
// Candidate columns examined per elimination step before settling for the
// best Markowitz count seen (a full scan only runs when none of them has a
// numerically acceptable pivot).
constexpr int kColumnCandidates = 8;
}  // namespace

bool LuFactorization::Refactorize(const SparseMatrix& A,
                                  std::vector<int>& basis) {
  const int m = A.rows();
  PRIVSAN_CHECK(static_cast<int>(basis.size()) == m);
  singular_info_.Clear();

  // The active submatrix, row-major and exact: rows[r] holds (slot column,
  // value) for every nonzero of row r over the not-yet-eliminated columns.
  // col_rows is the column-major *pattern* only — it may hold stale rows
  // (eliminated, or holding a cancelled entry); gathers re-validate against
  // the row data, deduped with a stamp.
  std::vector<std::vector<SparseEntry>> rows(m);
  std::vector<int> col_count(m, 0), row_count(m, 0);
  std::vector<std::vector<int>> col_rows(m);
  for (int c = 0; c < m; ++c) {
    for (const SparseEntry& e : A.Column(basis[c])) {
      rows[e.index].push_back(SparseEntry{c, e.value});
    }
  }
  for (int r = 0; r < m; ++r) {
    row_count[r] = static_cast<int>(rows[r].size());
    for (const SparseEntry& e : rows[r]) {
      ++col_count[e.index];
      col_rows[e.index].push_back(r);
    }
  }

  std::vector<char> row_active(m, 1), col_active(m, 1);
  std::vector<int> gather_stamp(m, -1);

  // Count-indexed bucket lists over the active columns: bucket_head[k] is
  // the first active column with col_count == k, threaded through
  // bucket_next/bucket_prev. Every count change relinks the column, so the
  // per-step candidate search walks the cheapest buckets instead of
  // scanning all m columns — its cost tracks fill, not dimension.
  // min_count is a forward-moving floor hint, reset whenever a column is
  // filed below it (cancellation can lower counts).
  std::vector<int> bucket_head(m + 1, -1);
  std::vector<int> bucket_next(m, -1), bucket_prev(m, -1);
  int min_count = m;
  auto bucket_insert = [&](int c) {
    const int count = col_count[c];
    bucket_prev[c] = -1;
    bucket_next[c] = bucket_head[count];
    if (bucket_head[count] >= 0) bucket_prev[bucket_head[count]] = c;
    bucket_head[count] = c;
    if (count < min_count) min_count = count;
  };
  auto bucket_remove = [&](int c) {
    const int count = col_count[c];
    if (bucket_prev[c] >= 0) {
      bucket_next[bucket_prev[c]] = bucket_next[c];
    } else {
      bucket_head[count] = bucket_next[c];
    }
    if (bucket_next[c] >= 0) bucket_prev[bucket_next[c]] = bucket_prev[c];
  };
  // Call around any col_count change of an active column.
  auto count_changed = [&](int c, int delta) {
    bucket_remove(c);
    col_count[c] += delta;
    bucket_insert(c);
  };
  for (int c = 0; c < m; ++c) bucket_insert(c);

  // Scratch for the rank-1 row updates.
  std::vector<double> work(m, 0.0);
  std::vector<char> in_work(m, 0);
  std::vector<int> touched;
  touched.reserve(64);

  std::vector<LStep> lsteps;
  lsteps.reserve(m);
  std::vector<URow> urows;
  urows.reserve(m);
  std::vector<int> pivot_rows;  // step -> pivot row
  pivot_rows.reserve(m);
  std::vector<int> step_of_col(m, -1);
  std::vector<int> new_basis(m, -1);
  size_t l_nnz = 0, u_nnz = 0;

  // Entries of one candidate pivot column over the active rows.
  struct ColEntry {
    int row;
    double value;
  };
  std::vector<ColEntry> col_entries, pivot_entries;
  int stamp = 0;

  // Validated gather of column c; returns the column's max magnitude.
  auto gather_column = [&](int c) -> double {
    col_entries.clear();
    ++stamp;
    double colmax = 0.0;
    for (int r : col_rows[c]) {
      if (!row_active[r] || gather_stamp[r] == stamp) continue;
      gather_stamp[r] = stamp;
      for (const SparseEntry& e : rows[r]) {
        if (e.index == c) {
          col_entries.push_back(ColEntry{r, e.value});
          colmax = std::max(colmax, std::abs(e.value));
          break;
        }
      }
    }
    return colmax;
  };

  // Best threshold-acceptable pivot of column c by Markowitz count; returns
  // false when the column is numerically empty. On success fills
  // (row, value, cost).
  auto best_in_column = [&](int c, int& prow, double& pval,
                            size_t& cost) -> bool {
    const double colmax = gather_column(c);
    if (colmax < kSingularTol) return false;
    const double accept =
        std::max(markowitz_threshold_ * colmax, kSingularTol);
    prow = -1;
    cost = std::numeric_limits<size_t>::max();
    double pmag = 0.0;
    for (const ColEntry& e : col_entries) {
      const double mag = std::abs(e.value);
      if (mag < accept) continue;
      const size_t c_cost = static_cast<size_t>(col_count[c] - 1) *
                            static_cast<size_t>(row_count[e.row] - 1);
      const bool better =
          c_cost < cost || (c_cost == cost && mag > pmag) ||
          (c_cost == cost && mag == pmag && (prow < 0 || e.row < prow));
      if (better) {
        cost = c_cost;
        prow = e.row;
        pval = e.value;
        pmag = mag;
      }
    }
    return prow >= 0;
  };

  struct Cand {
    int count;
    int col;
  };
  const auto cheaper = [](const Cand& a, const Cand& b) {
    if (a.count != b.count) return a.count < b.count;
    return a.col < b.col;
  };
  std::vector<Cand> cands;
  cands.reserve(2 * kColumnCandidates);

  for (int step = 0; step < m; ++step) {
    // --- Markowitz pivot search over the cheapest candidate columns. ------
    // Gather whole buckets in ascending count order until the pool holds at
    // least kColumnCandidates columns (or every active column), then keep
    // the kColumnCandidates cheapest by (count, col): exactly the candidate
    // set a full scan would keep, at O(candidates) cost. The best
    // threshold-acceptable pivot among them wins; a full column scan runs
    // only when every candidate is numerically empty.
    const int active_cols = m - step;
    while (min_count < m && bucket_head[min_count] < 0) ++min_count;
    cands.clear();
    for (int count = min_count;
         count <= m && static_cast<int>(cands.size()) < kColumnCandidates &&
         static_cast<int>(cands.size()) < active_cols;
         ++count) {
      for (int c = bucket_head[count]; c >= 0; c = bucket_next[c]) {
        cands.push_back(Cand{count, c});
      }
    }
    std::sort(cands.begin(), cands.end(), cheaper);
    if (static_cast<int>(cands.size()) > kColumnCandidates) {
      cands.resize(kColumnCandidates);
    }

    int pivot_col = -1, pivot_row = -1;
    double pivot_value = 0.0;
    size_t best_cost = std::numeric_limits<size_t>::max();
    for (const Cand& cand : cands) {
      int prow;
      double pval;
      size_t cost;
      if (!best_in_column(cand.col, prow, pval, cost)) continue;
      if (cost < best_cost) {
        best_cost = cost;
        pivot_col = cand.col;
        pivot_row = prow;
        pivot_value = pval;
        pivot_entries = col_entries;
      }
      // A later candidate column has count >= this one, so its Markowitz
      // cost is at least (count - 1) * 0 = 0 — only a zero-cost pivot can
      // still win, and we already have one.
      if (best_cost == 0) break;
    }
    if (pivot_col < 0) {
      // None of the cheap candidates was numerically usable; scan them all.
      for (int c = 0; c < m && pivot_col < 0; ++c) {
        if (!col_active[c]) continue;
        int prow;
        double pval;
        size_t cost;
        if (best_in_column(c, prow, pval, cost)) {
          pivot_col = c;
          pivot_row = prow;
          pivot_value = pval;
          pivot_entries = col_entries;
        }
      }
    }
    if (pivot_col < 0) {
      // The remaining active columns are numerically dependent on the
      // eliminated ones. Report them (and the rows left uncovered) so the
      // solver can swap in row slacks; previous state stays untouched.
      for (int c = 0; c < m; ++c) {
        if (col_active[c]) singular_info_.dependent_columns.push_back(basis[c]);
      }
      for (int r = 0; r < m; ++r) {
        if (row_active[r]) singular_info_.unpivoted_rows.push_back(r);
      }
      return false;
    }

    // --- Eliminate (pivot_row, pivot_col). --------------------------------
    LStep lstep;
    lstep.pivot_row = pivot_row;
    URow urow;
    urow.pivot_row = pivot_row;
    urow.pivot = pivot_value;
    for (const SparseEntry& e : rows[pivot_row]) {
      if (e.index != pivot_col) urow.entries.push_back(e);  // cols, for now
    }

    for (const ColEntry& entry : pivot_entries) {
      const int r = entry.row;
      if (r == pivot_row) continue;
      const double f = entry.value / pivot_value;
      lstep.multipliers.push_back(SparseEntry{r, f});

      // rows[r] -= f * rows[pivot_row], via the dense scratch.
      touched.clear();
      for (const SparseEntry& e : rows[r]) {
        work[e.index] = e.value;
        in_work[e.index] = 1;
        touched.push_back(e.index);
      }
      for (const SparseEntry& e : rows[pivot_row]) {
        if (e.index == pivot_col) continue;
        if (!in_work[e.index]) {
          // Fill: a brand-new nonzero in row r.
          work[e.index] = 0.0;
          in_work[e.index] = 1;
          touched.push_back(e.index);
          count_changed(e.index, +1);
          col_rows[e.index].push_back(r);
        }
        work[e.index] -= f * e.value;
      }
      std::vector<SparseEntry>& row = rows[r];
      row.clear();
      for (int c : touched) {
        if (c == pivot_col) {
          // Eliminated; its count is zeroed when the column deactivates.
        } else if (work[c] == 0.0) {
          count_changed(c, -1);  // exact cancellation
        } else {
          row.push_back(SparseEntry{c, work[c]});
        }
        in_work[c] = 0;
      }
      row_count[r] = static_cast<int>(row.size());
    }

    // Deactivate the pivot row and column.
    row_active[pivot_row] = 0;
    for (const SparseEntry& e : rows[pivot_row]) {
      if (e.index != pivot_col) count_changed(e.index, -1);
    }
    bucket_remove(pivot_col);
    col_active[pivot_col] = 0;
    col_count[pivot_col] = 0;

    l_nnz += lstep.multipliers.size();
    u_nnz += 1 + urow.entries.size();
    step_of_col[pivot_col] = step;
    pivot_rows.push_back(pivot_row);
    new_basis[pivot_row] = basis[pivot_col];
    lsteps.push_back(std::move(lstep));
    urows.push_back(std::move(urow));
  }

  // Translate U entries from slot columns to the pivot rows of the steps
  // that own them, so the substitution passes index the work vector
  // directly. Record the column occupancy for the FT update's deletions.
  u_col_rows_.assign(m, {});
  for (URow& urow : urows) {
    for (SparseEntry& e : urow.entries) {
      e.index = pivot_rows[step_of_col[e.index]];
      u_col_rows_[e.index].push_back(urow.pivot_row);
    }
  }

  m_ = m;
  lsteps_ = std::move(lsteps);
  urows_ = std::move(urows);
  row_pos_.assign(m, -1);
  for (int k = 0; k < m; ++k) row_pos_[urows_[k].pivot_row] = k;
  ft_etas_.clear();
  l_nnz_ = l_nnz;
  fresh_u_nnz_ = u_nnz;
  u_nnz_ = u_nnz;
  ft_nnz_ = 0;
  updates_ = 0;
  uhat_.assign(m, 0.0);
  spike_.assign(m, 0.0);
  for (int s : {0, 1}) {
    ftran_partial_[s].clear();
    ftran_result_[s].clear();
  }
  basis = std::move(new_basis);
  return true;
}

void LuFactorization::Ftran(std::vector<double>& v) const {
  // L: forward-apply the multipliers in elimination order.
  for (const LStep& step : lsteps_) {
    const double t = v[step.pivot_row];
    if (t == 0.0) continue;
    for (const SparseEntry& e : step.multipliers) {
      v[e.index] -= e.value * t;
    }
  }
  // Forrest–Tomlin row etas, in append order.
  for (const RowEta& eta : ft_etas_) {
    double s = v[eta.row];
    for (const SparseEntry& e : eta.terms) s -= e.value * v[e.index];
    v[eta.row] = s;
  }
  // Memo for Update: v right here is the partial image U^-1 still owes —
  // exactly the û a pivot on this column would spike in.
  ftran_slot_ ^= 1;
  ftran_partial_[ftran_slot_] = v;
  // U: back-substitute in reverse of the current step order (Forrest–Tomlin
  // updates reorder the rows but keep them triangular in that order).
  for (auto it = urows_.rbegin(); it != urows_.rend(); ++it) {
    double s = v[it->pivot_row];
    for (const SparseEntry& e : it->entries) s -= e.value * v[e.index];
    v[it->pivot_row] = s / it->pivot;
  }
  ftran_result_[ftran_slot_] = v;
}

void LuFactorization::Btran(std::vector<double>& v) const {
  // U^T: forward-substitute in the current step order.
  for (const URow& urow : urows_) {
    const double y = v[urow.pivot_row] / urow.pivot;
    v[urow.pivot_row] = y;
    if (y == 0.0) continue;
    for (const SparseEntry& e : urow.entries) v[e.index] -= e.value * y;
  }
  // Forrest–Tomlin row etas transposed, in reverse append order.
  for (auto it = ft_etas_.rbegin(); it != ft_etas_.rend(); ++it) {
    const double t = v[it->row];
    if (t == 0.0) continue;
    for (const SparseEntry& e : it->terms) v[e.index] -= e.value * t;
  }
  // L^T: apply the multiplier columns transposed, in reverse order.
  for (auto it = lsteps_.rbegin(); it != lsteps_.rend(); ++it) {
    double s = v[it->pivot_row];
    for (const SparseEntry& e : it->multipliers) s -= e.value * v[e.index];
    v[it->pivot_row] = s;
  }
}

// Forrest–Tomlin: replace the column of U in basis slot `slot` by the
// entering column's partial FTRAN image û = U w (recovered from the full
// image `w` by one sparse row-wise product — exact, since the solver's w is
// B^-1 a_q under the current factors), cyclically permute the leaving step
// to the last position, and eliminate the row spike it leaves behind
// against the later U rows. The eliminated spike vanishes entirely — the
// new last row is the single diagonal d — and the multipliers form one row
// eta applied with L. Elimination writes only scratch until d is known, so
// a too-small d rejects with the factors untouched and the caller
// refactorizes cleanly.
bool LuFactorization::Update(const std::vector<double>& w, int slot,
                             double pivot_tol) {
  if (std::abs(w[slot]) <= pivot_tol) return false;
  const int n = static_cast<int>(urows_.size());
  const int t = row_pos_[slot];
  PRIVSAN_CHECK(t >= 0 && t < n);

  // û: reuse the partial image memoized by the Ftran that produced w —
  // the common case: the simplex pivots on the column it just FTRANed,
  // and the one FTRAN the dual phase interleaves (its combined bound-flip
  // delta) still leaves w's image in the other memo slot. No match in
  // either slot recovers û = U w by one row-wise product (exact: w is
  // B^-1 a_q under the current factors, so U w is the image after L and
  // the row etas). Either way every entry of uhat_ is rewritten here.
  int hit = -1;
  for (int s : {ftran_slot_, ftran_slot_ ^ 1}) {
    if (ftran_result_[s] == w) {
      hit = s;
      break;
    }
  }
  if (hit >= 0) {
    uhat_.swap(ftran_partial_[hit]);
    ftran_result_[hit].clear();  // memo consumed
  } else {
    for (int k = 0; k < n; ++k) {
      const URow& row = urows_[k];
      double s = row.pivot * w[row.pivot_row];
      for (const SparseEntry& e : row.entries) s += e.value * w[e.index];
      uhat_[row.pivot_row] = s;
    }
  }

  // Eliminate the leaving row's spike against the rows at later positions,
  // in position order (spike entries and their fill only ever sit in
  // columns owned by still-later rows, so one forward sweep empties it).
  // d accumulates the new diagonal: row j's entry in the entering column
  // is û[pivot_row_j].
  std::vector<int> spike_touched;
  for (const SparseEntry& e : urows_[t].entries) {
    spike_[e.index] = e.value;
    spike_touched.push_back(e.index);
  }
  double d = uhat_[slot];
  std::vector<SparseEntry> terms;
  for (int j = t + 1; j < n; ++j) {
    const URow& row = urows_[j];
    const double sj = spike_[row.pivot_row];
    if (sj == 0.0) continue;
    const double r = sj / row.pivot;
    spike_[row.pivot_row] = 0.0;
    for (const SparseEntry& e : row.entries) {
      if (spike_[e.index] == 0.0) spike_touched.push_back(e.index);
      spike_[e.index] -= r * e.value;
    }
    d -= r * uhat_[row.pivot_row];
    terms.push_back(SparseEntry{row.pivot_row, r});
  }
  for (int idx : spike_touched) spike_[idx] = 0.0;

  if (std::abs(d) <= pivot_tol) return false;  // nothing mutated

  // Commit. Drop the leaving column's entries from the earlier rows — the
  // occupancy list names them directly (validated: it may carry rows whose
  // entry is gone, e.g. a row replaced by a later update).
  for (int pr : u_col_rows_[slot]) {
    if (pr == slot) continue;
    std::vector<SparseEntry>& es = urows_[row_pos_[pr]].entries;
    for (size_t i = 0; i < es.size(); ++i) {
      if (es[i].index == slot) {
        es[i] = es.back();
        es.pop_back();
        --u_nnz_;
        break;
      }
    }
  }
  u_col_rows_[slot].clear();

  // Remove the leaving row; later rows shift down one position.
  u_nnz_ -= 1 + urows_[t].entries.size();
  urows_.erase(urows_.begin() + t);
  for (int k = t; k < n - 1; ++k) row_pos_[urows_[k].pivot_row] = k;

  // Append the new row (bare diagonal — the spike eliminated away) and
  // spread the entering column û over the surviving rows.
  urows_.push_back(URow{slot, d, {}});
  row_pos_[slot] = n - 1;
  ++u_nnz_;
  for (int k = 0; k < n - 1; ++k) {
    const int pr = urows_[k].pivot_row;
    const double val = uhat_[pr];
    if (val != 0.0) {
      urows_[k].entries.push_back(SparseEntry{slot, val});
      u_col_rows_[slot].push_back(pr);
      ++u_nnz_;
    }
  }

  if (!terms.empty()) {
    ft_nnz_ += terms.size();
    ft_etas_.push_back(RowEta{slot, std::move(terms)});
  }
  ++updates_;
  return true;
}

bool LuFactorization::ShouldRefactor() const {
  if (updates_ >= max_updates_) return true;
  const size_t base = std::max(factor_nonzeros(), static_cast<size_t>(m_));
  return total_nonzeros() >
         static_cast<size_t>(growth_limit_ * static_cast<double>(base));
}

}  // namespace lp
}  // namespace privsan
