#include "core/rounding.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace privsan {

std::vector<uint64_t> FloorCounts(const DpConstraintSystem& system,
                                  std::span<const double> relaxed,
                                  std::vector<double>* remainder) {
  std::vector<uint64_t> x(relaxed.size());
  remainder->resize(relaxed.size());
  for (PairId p = 0; p < x.size(); ++p) {
    const double value = std::max(0.0, relaxed[p]);
    x[p] = static_cast<uint64_t>(std::floor(value + 1e-7));
    (*remainder)[p] = value - static_cast<double>(x[p]);  // < 0: snapped up
  }
  // Undoing only lowers rows, so one pass suffices. A row over the limit
  // even without its snap-ups (an infeasible relaxed point) is left alone.
  const double limit = system.budget() + DpConstraintSystem::kTolerance;
  for (size_t r = 0; r < system.num_rows(); ++r) {
    double lhs = 0.0, unsnapped_lhs = 0.0;
    for (const DpConstraintEntry& e : system.Row(r)) {
      const bool up = (*remainder)[e.pair] < 0.0;
      lhs += e.log_t * static_cast<double>(x[e.pair]);
      unsnapped_lhs += e.log_t * static_cast<double>(x[e.pair] - up);
    }
    if (lhs <= limit || unsnapped_lhs > limit) continue;
    for (const DpConstraintEntry& e : system.Row(r)) {
      if ((*remainder)[e.pair] < 0.0) {
        --x[e.pair];
        (*remainder)[e.pair] += 1.0;
      }
    }
  }
  return x;
}

std::vector<uint64_t> RoundCounts(const DpConstraintSystem& system,
                                  std::span<const double> relaxed,
                                  const RoundingOptions& options) {
  const size_t n = relaxed.size();
  PRIVSAN_CHECK(n == system.num_pairs());
  PRIVSAN_CHECK(options.caps.empty() || options.caps.size() == n);

  // Stage 1: floor.
  std::vector<double> remainder;
  std::vector<uint64_t> x = FloorCounts(system, relaxed, &remainder);
  uint64_t total = 0;
  for (PairId p = 0; p < n; ++p) {
    if (!options.caps.empty()) x[p] = std::min(x[p], options.caps[p]);
    total += x[p];
  }
  if (!options.repair && !options.greedy_fill) return x;
  if (options.target_total > 0 && total >= options.target_total) return x;

  // Row state for incremental feasibility checks.
  std::vector<double> row_lhs(system.num_rows(), 0.0);
  for (size_t r = 0; r < system.num_rows(); ++r) {
    row_lhs[r] = system.RowLhs(r, std::span<const uint64_t>(x));
  }
  std::vector<std::vector<std::pair<size_t, double>>> pair_rows(n);
  std::vector<double> max_weight(n, 0.0);
  for (size_t r = 0; r < system.num_rows(); ++r) {
    for (const DpConstraintEntry& e : system.Row(r)) {
      pair_rows[e.pair].emplace_back(r, e.log_t);
      max_weight[e.pair] = std::max(max_weight[e.pair], e.log_t);
    }
  }
  auto admit = [&](PairId p) {
    if (!options.caps.empty() && x[p] + 1 > options.caps[p]) return false;
    for (const auto& [r, weight] : pair_rows[p]) {
      if (row_lhs[r] + weight > system.budget() + 1e-12) return false;
    }
    for (const auto& [r, weight] : pair_rows[p]) row_lhs[r] += weight;
    ++x[p];
    ++total;
    return true;
  };
  auto reached_target = [&]() {
    return options.target_total > 0 && total >= options.target_total;
  };

  // Stage 2: largest-remainder repair.
  if (options.repair) {
    std::vector<PairId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](PairId a, PairId b) {
      return remainder[a] > remainder[b];
    });
    for (PairId p : order) {
      if (reached_target()) return x;
      if (remainder[p] <= 1e-9) break;  // sorted: the rest are zero too
      admit(p);
    }
  }

  // Stage 3: greedy fill, cheapest worst-row weight first; keep sweeping
  // until a full pass admits nothing.
  if (options.greedy_fill) {
    std::vector<PairId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](PairId a, PairId b) {
      return max_weight[a] < max_weight[b];
    });
    bool progress = true;
    while (progress && !reached_target()) {
      progress = false;
      for (PairId p : order) {
        if (reached_target()) break;
        if (admit(p)) progress = true;
      }
    }
  }
  return x;
}

}  // namespace privsan
