#include "core/constraints.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace privsan {

Result<DpConstraintSystem> DpConstraintSystem::Build(
    const SearchLog& log, const PrivacyParams& params) {
  PRIVSAN_RETURN_IF_ERROR(params.Validate());
  PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem system, BuildRows(log));
  system.budget_ = params.Budget();
  return system;
}

Result<DpConstraintSystem> DpConstraintSystem::BuildRows(
    const SearchLog& log) {
  DpConstraintSystem system;
  system.num_pairs_ = log.num_pairs();
  for (UserId u = 0; u < log.num_users(); ++u) {
    const auto user_log = log.UserLogOf(u);
    if (user_log.empty()) continue;
    std::vector<DpConstraintEntry> row;
    row.reserve(user_log.size());
    for (const PairCount& cell : user_log) {
      const uint64_t c_ij = log.pair_total(cell.pair);
      const uint64_t c_ijk = cell.count;
      if (c_ijk >= c_ij) {
        return Status::FailedPrecondition(
            "log contains a unique query-url pair (c_ijk == c_ij); apply "
            "RemoveUniquePairs first (Condition 1 of Theorem 1)");
      }
      const double t =
          static_cast<double>(c_ij) / static_cast<double>(c_ij - c_ijk);
      row.push_back(DpConstraintEntry{cell.pair, std::log(t)});
    }
    system.rows_.push_back(std::move(row));
    system.row_users_.push_back(u);
  }
  return system;
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

std::vector<double> DpConstraintSystem::PairMaxWeights() const {
  std::vector<double> max_weight(num_pairs_, 0.0);
  for (const auto& row : rows_) {
    for (const DpConstraintEntry& e : row) {
      max_weight[e.pair] = std::max(max_weight[e.pair], e.log_t);
    }
  }
  return max_weight;
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
