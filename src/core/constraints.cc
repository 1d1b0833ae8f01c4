#include "core/constraints.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "serve/thread_pool.h"

namespace privsan {

namespace {

// One user's DP row. Returns false on a unique pair (c_ijk == c_ij), which
// Condition-1 preprocessing must have removed.
bool BuildRow(const SearchLog& log, UserId u,
              std::vector<DpConstraintEntry>* row) {
  const auto user_log = log.UserLogOf(u);
  row->clear();
  row->reserve(user_log.size());
  for (const PairCount& cell : user_log) {
    const uint64_t c_ij = log.pair_total(cell.pair);
    const uint64_t c_ijk = cell.count;
    if (c_ijk >= c_ij) return false;
    const double t =
        static_cast<double>(c_ij) / static_cast<double>(c_ij - c_ijk);
    row->push_back(DpConstraintEntry{cell.pair, std::log(t)});
  }
  return true;
}

Status UniquePairError() {
  return Status::FailedPrecondition(
      "log contains a unique query-url pair (c_ijk == c_ij); apply "
      "RemoveUniquePairs first (Condition 1 of Theorem 1)");
}

// Splices per-user rows (built in parallel) into the system in user order —
// the same order the serial build produces.
DpConstraintSystem AssembleRows(
    std::vector<std::vector<DpConstraintEntry>> per_user, size_t num_pairs) {
  std::vector<std::vector<DpConstraintEntry>> rows;
  std::vector<UserId> row_users;
  for (UserId u = 0; u < per_user.size(); ++u) {
    if (per_user[u].empty()) continue;
    rows.push_back(std::move(per_user[u]));
    row_users.push_back(u);
  }
  return DpConstraintSystem::FromRows(std::move(rows), std::move(row_users),
                                      num_pairs);
}

}  // namespace

Result<DpConstraintSystem> DpConstraintSystem::Build(
    const SearchLog& log, const PrivacyParams& params) {
  PRIVSAN_RETURN_IF_ERROR(params.Validate());
  PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem system, BuildRows(log));
  system.budget_ = params.Budget();
  return system;
}

Result<DpConstraintSystem> DpConstraintSystem::BuildRows(
    const SearchLog& log) {
  return BuildRows(log, nullptr);
}

Result<DpConstraintSystem> DpConstraintSystem::BuildRows(
    const SearchLog& log, serve::ThreadPool* pool) {
  const size_t num_users = log.num_users();
  std::vector<std::vector<DpConstraintEntry>> per_user(num_users);
  std::atomic<bool> failed{false};
  serve::ParallelFor(pool, num_users, [&](size_t begin, size_t end) {
    for (UserId u = static_cast<UserId>(begin); u < end; ++u) {
      if (!BuildRow(log, u, &per_user[u])) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (failed.load()) return UniquePairError();
  return AssembleRows(std::move(per_user), log.num_pairs());
}

DpConstraintSystem DpConstraintSystem::FromRows(
    std::vector<std::vector<DpConstraintEntry>> rows,
    std::vector<UserId> row_users, size_t num_pairs) {
  DpConstraintSystem system;
  system.rows_ = std::move(rows);
  system.row_users_ = std::move(row_users);
  system.num_pairs_ = num_pairs;
  system.budget_ = 0.0;
  return system;
}

double DpConstraintSystem::RowLhs(size_t r, std::span<const double> x) const {
  double lhs = 0.0;
  for (const DpConstraintEntry& e : rows_[r]) {
    lhs += e.log_t * x[e.pair];
  }
  return lhs;
}

double DpConstraintSystem::RowLhs(size_t r,
                                  std::span<const uint64_t> x) const {
  double lhs = 0.0;
  for (const DpConstraintEntry& e : rows_[r]) {
    lhs += e.log_t * static_cast<double>(x[e.pair]);
  }
  return lhs;
}

double DpConstraintSystem::MaxRowLhs(std::span<const uint64_t> x) const {
  double max_lhs = 0.0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    max_lhs = std::max(max_lhs, RowLhs(r, x));
  }
  return max_lhs;
}

bool DpConstraintSystem::IsSatisfied(std::span<const uint64_t> x,
                                     double tol) const {
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (RowLhs(r, x) > budget_ + tol) return false;
  }
  return true;
}

size_t DpConstraintSystem::ResidentBytes() const {
  size_t bytes = rows_.capacity() * sizeof(rows_[0]) +
                 row_users_.capacity() * sizeof(UserId);
  for (const auto& row : rows_) {
    bytes += row.capacity() * sizeof(DpConstraintEntry);
  }
  return bytes;
}

}  // namespace privsan
