// The differential privacy constraints of Theorem 1 / Equation 4.
//
// For every user log A_k in the (preprocessed) input D, the output counts
// x = {x_ij} must satisfy
//
//   sum_{(i,j) in A_k}  x_ij * log t_ijk  <=  min{ε, log(1/(1−δ))},
//   t_ijk = c_ij / (c_ij − c_ijk),
//
// one linear row per user. All coefficients are strictly positive (unique
// pairs — where c_ijk = c_ij and t would blow up — must already be removed
// by Condition-1 preprocessing; Build fails otherwise). The feasible region
// {Mx <= b, x >= 0} with M, b > 0 is a bounded polytope (Statement 1).
//
// The coefficients depend only on the log, so building the rows is one
// O(nnz) pass; the session (core/session.h) rebuilds them from scratch on
// every append and removal.
#ifndef PRIVSAN_CORE_CONSTRAINTS_H_
#define PRIVSAN_CORE_CONSTRAINTS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/privacy_params.h"
#include "log/search_log.h"
#include "util/result.h"

namespace privsan {

namespace serve {
class ThreadPool;
}  // namespace serve

struct DpConstraintEntry {
  PairId pair;
  double log_t;  // log t_ijk > 0

  bool operator==(const DpConstraintEntry&) const = default;
};

class DpConstraintSystem {
 public:
  // Builds one row per user with a non-empty log. Fails with
  // FailedPrecondition if `log` still contains unique pairs.
  static Result<DpConstraintSystem> Build(const SearchLog& log,
                                          const PrivacyParams& params);

  // The rows depend only on the log — the t_ijk coefficients never involve
  // (ε, δ) — so a cached system can serve every budget cell of a sweep.
  // BuildRows builds the rows once with budget 0; SetBudget rebinds the
  // shared right-hand side without touching the rows.
  //
  // Rows are independent per user, so the shard-aware overload splits the
  // build across `pool` (nullptr = serial). The output is bit-identical to
  // the serial build: shards are fixed user ranges and every coefficient is
  // computed from the same (c_ij, c_ijk) inputs.
  static Result<DpConstraintSystem> BuildRows(const SearchLog& log);
  static Result<DpConstraintSystem> BuildRows(const SearchLog& log,
                                              serve::ThreadPool* pool);
  void SetBudget(double budget) { budget_ = budget; }

  // Reassembles a system from its parts — the snapshot-restore path
  // (serve/snapshot.h). Performs no validation beyond sizing; callers are
  // expected to hold rows produced by BuildRows on the matching log.
  static DpConstraintSystem FromRows(
      std::vector<std::vector<DpConstraintEntry>> rows,
      std::vector<UserId> row_users, size_t num_pairs);

  size_t num_rows() const { return rows_.size(); }
  size_t num_pairs() const { return num_pairs_; }
  double budget() const { return budget_; }

  std::span<const DpConstraintEntry> Row(size_t r) const {
    return rows_[r];
  }
  UserId RowUser(size_t r) const { return row_users_[r]; }

  // LHS of row r at point x (x indexed by PairId).
  double RowLhs(size_t r, std::span<const double> x) const;
  double RowLhs(size_t r, std::span<const uint64_t> x) const;

  // max_r RowLhs(r, x); 0 when there are no rows.
  double MaxRowLhs(std::span<const uint64_t> x) const;

  // Whether all rows satisfy LHS <= budget + tol.
  static constexpr double kTolerance = 1e-9;
  bool IsSatisfied(std::span<const uint64_t> x,
                   double tol = kTolerance) const;

  // Estimated heap footprint of the rows (serve-layer memory accounting).
  size_t ResidentBytes() const;

 private:
  std::vector<std::vector<DpConstraintEntry>> rows_;
  std::vector<UserId> row_users_;
  double budget_ = 0.0;
  size_t num_pairs_ = 0;
};

}  // namespace privsan

#endif  // PRIVSAN_CORE_CONSTRAINTS_H_
