#include "lp/lu_factorization.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace privsan {
namespace lp {

namespace {
// Pivot magnitude below which a factorization declares the basis singular.
constexpr double kSingularTol = 1e-11;
// Threshold partial pivoting: a pivot must be at least this fraction of its
// column's largest magnitude. Larger is more stable, smaller is sparser.
constexpr double kMarkowitzThreshold = 0.1;
// Candidate columns examined per elimination step before settling for the
// best Markowitz count seen (a full scan only runs when none of them has a
// numerically acceptable pivot).
constexpr int kColumnCandidates = 8;
// Once the active submatrix is at least this dense, its values move into a
// dense block: the elimination then touches exactly the entries it updates
// instead of scanning sparse columns for them.
constexpr double kDenseDensity = 0.3;
}  // namespace

bool LuFactorization::Refactorize(const SparseMatrix& A,
                                  std::vector<int>& basis) {
  const int m = A.rows();
  PRIVSAN_CHECK(static_cast<int>(basis.size()) == m);
  singular_info_.Clear();

  Active& a = active_;
  a.cols.resize(m);
  a.rows.resize(m);
  for (int i = 0; i < m; ++i) {
    a.cols[i].clear();
    a.rows[i].clear();
  }
  // Column c of the active submatrix is basis column c, in row order; each
  // row's pattern lists its columns in ascending order.
  for (int c = 0; c < m; ++c) {
    for (const SparseEntry& e : A.Column(basis[c])) {
      a.cols[c].push_back(e);
      a.rows[e.index].push_back(c);
    }
  }
  a.col_count.resize(m);
  a.row_count.resize(m);
  size_t active_nnz = 0;
  for (int i = 0; i < m; ++i) {
    a.col_count[i] = static_cast<int>(a.cols[i].size());
    a.row_count[i] = static_cast<int>(a.rows[i].size());
    active_nnz += a.cols[i].size();
  }
  a.dense_k = 0;
  a.local_row.resize(m);
  a.local_col.resize(m);
  a.col_active.assign(m, 1);
  a.row_active.assign(m, 1);
  a.mult.assign(m, 0.0);
  a.seen_stamp.assign(m, -1);
  a.changed.resize(m);
  a.col_stamp.assign(m, -1);
  a.pivot_rows.clear();
  a.step_of_col.assign(m, -1);
  a.new_basis.assign(m, -1);
  a.lsteps.resize(m);
  a.urows.resize(m);

  // Count-indexed bucket lists over the active columns: bucket_head[k] is
  // the first active column with col_count == k, threaded through
  // bucket_next/bucket_prev, so the candidate search walks the cheapest
  // buckets instead of scanning all m columns. min_count is a
  // forward-moving floor hint, reset whenever a column is filed below it.
  // single_bits marks the columns of count 1.
  a.bucket_head.assign(m + 1, -1);
  a.bucket_next.assign(m, -1);
  a.bucket_prev.assign(m, -1);
  a.single_bits.assign(m / 64 + 1, 0);
  int min_count = m;
  auto bucket_insert = [&](int c) {
    const int count = a.col_count[c];
    if (count == 1) a.single_bits[c >> 6] |= uint64_t{1} << (c & 63);
    a.bucket_prev[c] = -1;
    a.bucket_next[c] = a.bucket_head[count];
    if (a.bucket_head[count] >= 0) a.bucket_prev[a.bucket_head[count]] = c;
    a.bucket_head[count] = c;
    if (count < min_count) min_count = count;
  };
  auto bucket_remove = [&](int c) {
    const int count = a.col_count[c];
    if (count == 1) a.single_bits[c >> 6] &= ~(uint64_t{1} << (c & 63));
    if (a.bucket_prev[c] >= 0) {
      a.bucket_next[a.bucket_prev[c]] = a.bucket_next[c];
    } else {
      a.bucket_head[count] = a.bucket_next[c];
    }
    if (a.bucket_next[c] >= 0) {
      a.bucket_prev[a.bucket_next[c]] = a.bucket_prev[c];
    }
  };
  for (int c = 0; c < m; ++c) bucket_insert(c);
  auto set_count = [&](int c, int count) {
    bucket_remove(c);
    active_nnz += count;
    active_nnz -= a.col_count[c];
    a.col_count[c] = count;
    bucket_insert(c);
  };

  // Best threshold-acceptable pivot of active column c by Markowitz count;
  // returns false when the column is numerically empty. On success fills
  // (row, value, cost).
  auto best_in_column = [&](int c, int& prow, double& pval,
                            size_t& cost) -> bool {
    // (row, value) of the column's nonzeros, in either phase; zeros (and,
    // in the dense phase, eliminated rows) never pass the threshold.
    auto for_each_entry = [&](auto&& fn) {
      if (a.dense_k == 0) {
        for (const SparseEntry& e : a.cols[c]) fn(e.index, e.value);
      } else {
        const double* col =
            &a.dense[static_cast<size_t>(a.local_col[c]) * a.dense_k];
        for (const int k : a.dense_active) fn(a.dense_rows[k], col[k]);
      }
    };
    double colmax = 0.0;
    for_each_entry(
        [&](int, double v) { colmax = std::max(colmax, std::abs(v)); });
    if (colmax < kSingularTol) return false;
    const double accept =
        std::max(kMarkowitzThreshold * colmax, kSingularTol);
    prow = -1;
    cost = std::numeric_limits<size_t>::max();
    double pmag = 0.0;
    for_each_entry([&](int r, double v) {
      const double mag = std::abs(v);
      if (mag < accept) return;
      const size_t c_cost = static_cast<size_t>(a.col_count[c] - 1) *
                            static_cast<size_t>(a.row_count[r] - 1);
      const bool better =
          c_cost < cost || (c_cost == cost && mag > pmag) ||
          (c_cost == cost && mag == pmag && (prow < 0 || r < prow));
      if (better) {
        cost = c_cost;
        prow = r;
        pval = v;
        pmag = mag;
      }
    });
    return prow >= 0;
  };

  // Moves the active submatrix's values into a K x K column-major block,
  // local rows and columns in ascending order. The lists are not kept up
  // from then on.
  auto go_dense = [&](int k) {
    a.dense_k = k;
    a.dense_rows.clear();
    a.dense_cols.clear();
    for (int i = 0; i < m; ++i) {
      if (a.row_active[i]) {
        a.local_row[i] = static_cast<int>(a.dense_rows.size());
        a.dense_rows.push_back(i);
      }
      if (a.col_active[i]) {
        a.local_col[i] = static_cast<int>(a.dense_cols.size());
        a.dense_cols.push_back(i);
      }
    }
    a.dense_active.resize(k);
    a.dense_active_cols.resize(k);
    for (int i = 0; i < k; ++i) a.dense_active[i] = a.dense_active_cols[i] = i;
    a.dense.assign(static_cast<size_t>(k) * k, 0.0);
    for (const int c : a.dense_cols) {
      double* col = &a.dense[static_cast<size_t>(a.local_col[c]) * k];
      for (const SparseEntry& e : a.cols[c]) {
        if (a.row_active[e.index]) col[a.local_row[e.index]] = e.value;
      }
    }
  };

  size_t l_nnz = 0, u_nnz = 0;
  int seen = -1;  // seen_stamp value of the column being updated
  for (int step = 0; step < m; ++step) {
    const int active_cols = m - step;
    if (a.dense_k == 0 &&
        static_cast<double>(active_nnz) >=
            kDenseDensity * active_cols * active_cols) {
      go_dense(active_cols);
    }

    // --- Markowitz pivot search. -------------------------------------------
    int q = -1, p = -1;  // pivot column and row
    double pivot = 0.0;
    // A column singleton costs nothing, so with no empty column ahead of it
    // the search below would settle on the lowest-numbered one as soon as
    // its entry passes the singular tolerance: take it directly.
    if (a.bucket_head[0] < 0 && a.bucket_head[1] >= 0) {
      size_t w = 0;
      while (a.single_bits[w] == 0) ++w;
      const int c =
          static_cast<int>(w * 64) + std::countr_zero(a.single_bits[w]);
      int prow;
      double pval = 0.0;
      size_t cost;
      if (best_in_column(c, prow, pval, cost)) {
        q = c;
        p = prow;
        pivot = pval;
      }
    }
    if (q < 0) {
      // Walk whole buckets in ascending count order until they have offered
      // at least kColumnCandidates columns (or every active column),
      // keeping the kColumnCandidates cheapest by (count, col) in order:
      // exactly the candidate set a full scan would keep, at O(candidates)
      // cost. The best threshold-acceptable pivot among them wins; a full
      // column scan runs only when every candidate is numerically empty.
      while (min_count < m && a.bucket_head[min_count] < 0) ++min_count;
      a.cands.clear();
      for (int count = min_count;
           count <= m &&
           static_cast<int>(a.cands.size()) < kColumnCandidates &&
           static_cast<int>(a.cands.size()) < active_cols;
           ++count) {
        for (int c = a.bucket_head[count]; c >= 0; c = a.bucket_next[c]) {
          const std::pair<int, int> cand(count, c);
          if (static_cast<int>(a.cands.size()) == kColumnCandidates) {
            if (!(cand < a.cands.back())) continue;
            a.cands.pop_back();
          }
          a.cands.insert(
              std::upper_bound(a.cands.begin(), a.cands.end(), cand), cand);
        }
      }

      // A candidate of count c >= 1 costs at least (c - 1)(min_row_count -
      // 1), and the candidates come in ascending count: once that bound
      // reaches the best cost found, no later candidate can win. The sparse
      // phase takes 1 as the row count floor, so it stops at a zero-cost
      // pivot.
      int min_row_count = 1;
      if (a.dense_k > 0) {
        min_row_count = m;
        for (const int k : a.dense_active) {
          min_row_count = std::min(min_row_count, a.row_count[a.dense_rows[k]]);
        }
      }
      size_t best_cost = std::numeric_limits<size_t>::max();
      for (const auto& [count, c] : a.cands) {
        if (count > 0 &&
            static_cast<size_t>(count - 1) *
                    static_cast<size_t>(std::max(min_row_count - 1, 0)) >=
                best_cost) {
          break;
        }
        int prow;
        double pval = 0.0;
        size_t cost;
        if (!best_in_column(c, prow, pval, cost)) continue;
        if (cost < best_cost) {
          best_cost = cost;
          q = c;
          p = prow;
          pivot = pval;
        }
      }
    }
    if (q < 0) {
      // None of the cheap candidates was numerically usable; scan them all.
      for (int c = 0; c < m && q < 0; ++c) {
        if (!a.col_active[c]) continue;
        int prow;
        double pval = 0.0;
        size_t cost;
        if (best_in_column(c, prow, pval, cost)) {
          q = c;
          p = prow;
          pivot = pval;
        }
      }
    }
    if (q < 0) {
      // The remaining active columns are numerically dependent on the
      // eliminated ones. Report them (and the rows left uncovered) so the
      // solver can swap in row slacks; previous state stays untouched.
      for (int c = 0; c < m; ++c) {
        if (a.col_active[c]) {
          singular_info_.dependent_columns.push_back(basis[c]);
        }
      }
      for (int r = 0; r < m; ++r) {
        if (a.row_active[r]) singular_info_.unpivoted_rows.push_back(r);
      }
      return false;
    }

    // --- Eliminate (p, q). -------------------------------------------------
    // L takes the multipliers l_r = a_rq / a_pq of the pivot column's other
    // rows, U the pivot row's nonzeros; every column j of the pivot row
    // takes a_rj -= l_r * a_pj for the rows r of the pivot column.
    LStep& lstep = a.lsteps[step];
    lstep.pivot_row = p;
    lstep.multipliers.clear();
    URow& urow = a.urows[step];
    urow.pivot_row = p;
    urow.pivot = pivot;
    urow.entries.clear();  // (slot column, u) for now
    if (a.dense_k == 0) {
      // Sparse phase: L and U list their entries in arrival order.
      for (const SparseEntry& e : a.cols[q]) {
        if (e.index == p || e.value == 0.0) continue;
        const double f = e.value / pivot;
        lstep.multipliers.push_back(SparseEntry{e.index, f});
        a.mult[e.index] = f;
      }
      // The pivot row's columns in pattern order: an entry filled again
      // after cancelling is listed twice, and its last listing counts.
      a.pivot_row_cols.clear();
      for (auto it = a.rows[p].rbegin(); it != a.rows[p].rend(); ++it) {
        const int j = *it;
        if (j == q || !a.col_active[j] || a.col_stamp[j] == step) continue;
        a.col_stamp[j] = step;
        a.pivot_row_cols.push_back(j);
      }
      std::reverse(a.pivot_row_cols.begin(), a.pivot_row_cols.end());
      for (const int j : a.pivot_row_cols) {
        std::vector<SparseEntry>& col = a.cols[j];
        size_t at = 0;
        while (col[at].index != p) ++at;
        const double apj = col[at].value;
        if (apj == 0.0) continue;  // cancelled
        urow.entries.push_back(SparseEntry{j, apj});
        ++seen;
        size_t kept = 0;
        int count = 0;
        // mult is 0 off the pivot column, where x - 0 * apj == x exactly:
        // the loop runs without a branch per entry. An entry that cancels
        // stays listed as a zero, so a later fill keeps its position.
        for (size_t k = 0; k < col.size(); ++k) {
          SparseEntry e = col[k];
          const int r = e.index;
          a.seen_stamp[r] = seen;
          const bool was_zero = e.value == 0.0;
          e.value -= a.mult[r] * apj;
          const bool is_zero = e.value == 0.0;
          if (r == p || (is_zero && !a.row_active[r])) {
            continue;  // moved to U, or a cancelled entry of an eliminated row
          }
          if (was_zero != is_zero) {
            if (was_zero) {  // fill where an entry once cancelled
              a.rows[r].push_back(j);
              ++a.row_count[r];
            } else {  // exact cancellation
              --a.row_count[r];
            }
          }
          count += is_zero ? 0 : 1;
          col[kept++] = e;
        }
        col.resize(kept);
        for (const SparseEntry& l : lstep.multipliers) {
          if (a.seen_stamp[l.index] == seen) continue;
          const double fill = 0.0 - l.value * apj;
          if (fill == 0.0) continue;
          col.push_back(SparseEntry{l.index, fill});
          a.rows[l.index].push_back(j);
          ++a.row_count[l.index];
          ++count;
        }
        set_count(j, count);
      }
    } else {
      // Dense phase: L and U list their entries in row and column order.
      const size_t k_size = static_cast<size_t>(a.dense_k);
      const double* col_q = &a.dense[a.local_col[q] * k_size];
      a.mult_local.clear();
      a.mult_value.clear();
      for (const int k : a.dense_active) {
        const int r = a.dense_rows[k];
        if (r == p || col_q[k] == 0.0) continue;
        const double f = col_q[k] / pivot;
        lstep.multipliers.push_back(SparseEntry{r, f});
        a.mult_local.push_back(k);
        a.mult_value.push_back(f);
      }
      const int* mult_local = a.mult_local.data();
      const double* mult_value = a.mult_value.data();
      int* changed = a.changed.data();
      const int n_mult = static_cast<int>(a.mult_local.size());
      const int lp = a.local_row[p];
      for (const int lc : a.dense_active_cols) {
        const int j = a.dense_cols[lc];
        double* col = &a.dense[lc * k_size];
        const double apj = col[lp];
        if (j == q || apj == 0.0) continue;
        col[lp] = 0.0;
        urow.entries.push_back(SparseEntry{j, apj});
        // The update notes, without a branch, the multipliers whose entry
        // turned from zero to nonzero or back; the counts follow after.
        int n_changed = 0;
        for (int i = 0; i < n_mult; ++i) {
          const int k = mult_local[i];
          const double was = col[k];
          const double now = was - mult_value[i] * apj;
          col[k] = now;
          changed[n_changed] = i;
          n_changed += (was == 0.0) != (now == 0.0);
        }
        int count = a.col_count[j] - 1;
        for (int c = 0; c < n_changed; ++c) {
          const int i = changed[c];
          const int delta = col[mult_local[i]] != 0.0 ? 1 : -1;
          a.row_count[lstep.multipliers[i].index] += delta;
          count += delta;
        }
        set_count(j, count);
      }
    }

    // Deactivate the pivot row and column.
    a.row_active[p] = 0;
    if (a.dense_k > 0) {
      a.dense_active.erase(std::lower_bound(
          a.dense_active.begin(), a.dense_active.end(), a.local_row[p]));
      a.dense_active_cols.erase(std::lower_bound(a.dense_active_cols.begin(),
                                                 a.dense_active_cols.end(),
                                                 a.local_col[q]));
    }
    for (const SparseEntry& l : lstep.multipliers) {
      a.mult[l.index] = 0.0;
      --a.row_count[l.index];
    }
    bucket_remove(q);
    active_nnz -= a.col_count[q];
    a.col_active[q] = 0;
    a.col_count[q] = 0;

    l_nnz += lstep.multipliers.size();
    u_nnz += 1 + urow.entries.size();
    a.step_of_col[q] = step;
    a.pivot_rows.push_back(p);
    a.new_basis[p] = basis[q];
  }

  // Translate U entries from slot columns to the pivot rows of the steps
  // that own them, so the substitution passes index the work vector
  // directly. Record the column occupancy for the FT update's deletions.
  u_col_rows_.resize(m);
  for (std::vector<int>& rows : u_col_rows_) rows.clear();
  for (URow& urow : a.urows) {
    for (SparseEntry& e : urow.entries) {
      e.index = a.pivot_rows[a.step_of_col[e.index]];
      u_col_rows_[e.index].push_back(urow.pivot_row);
    }
  }

  // Copied, not swapped, into the live factors: copy-assignment reuses
  // their buffers (with whatever capacity Forrest–Tomlin growth gave
  // them), and the staging set stays at fresh-factor size.
  m_ = m;
  lsteps_ = a.lsteps;
  urows_ = a.urows;
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
  std::copy(a.new_basis.begin(), a.new_basis.end(), basis.begin());
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

  // The leaving row moves to the last position (later rows shift down one)
  // and becomes the new row: a bare diagonal, the spike eliminated away.
  // Its storage stays in the factors for the next refactorization.
  u_nnz_ -= urows_[t].entries.size();
  std::rotate(urows_.begin() + t, urows_.begin() + t + 1, urows_.end());
  for (int k = t; k < n - 1; ++k) row_pos_[urows_[k].pivot_row] = k;
  urows_.back().pivot = d;
  urows_.back().entries.clear();
  row_pos_[slot] = n - 1;

  // Spread the entering column û over the surviving rows.
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
