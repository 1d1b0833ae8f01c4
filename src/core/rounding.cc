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

RoundingIndex::RoundingIndex(const DpConstraintSystem& system)
    : pair_begin(system.num_pairs() + 1, 0) {
  const size_t n = system.num_pairs();
  size_t nnz = 0;
  for (size_t r = 0; r < system.num_rows(); ++r) {
    for (const DpConstraintEntry& e : system.Row(r)) ++pair_begin[e.pair + 1];
    nnz += system.Row(r).size();
  }
  PRIVSAN_CHECK(nnz <= UINT32_MAX && system.num_rows() <= UINT32_MAX);
  std::partial_sum(pair_begin.begin(), pair_begin.end(), pair_begin.begin());
  rows.resize(nnz);
  weights.resize(nnz);
  std::vector<uint32_t> next(pair_begin.begin(), pair_begin.end() - 1);
  for (size_t r = 0; r < system.num_rows(); ++r) {
    for (const DpConstraintEntry& e : system.Row(r)) {
      const uint32_t k = next[e.pair]++;
      rows[k] = static_cast<uint32_t>(r);
      weights[k] = e.log_t;
    }
  }
  const std::vector<double> max_weight = system.PairMaxWeights();
  fill_order.resize(n);
  std::iota(fill_order.begin(), fill_order.end(), 0);
  std::stable_sort(fill_order.begin(), fill_order.end(),
                   [&](PairId a, PairId b) {
                     return max_weight[a] < max_weight[b];
                   });
}

std::vector<uint64_t> RoundCounts(const DpConstraintSystem& system,
                                  std::span<const double> relaxed,
                                  const RoundingOptions& options) {
  return RoundCounts(system, RoundingIndex(system), relaxed, options);
}

std::vector<uint64_t> RoundCounts(const DpConstraintSystem& system,
                                  const RoundingIndex& index,
                                  std::span<const double> relaxed,
                                  const RoundingOptions& options) {
  const size_t n = relaxed.size();
  PRIVSAN_CHECK(n == system.num_pairs());
  PRIVSAN_CHECK(index.pair_begin.size() == n + 1);
  PRIVSAN_CHECK(options.caps.empty() || options.caps.size() == n);

  // Stage 1: floor.
  std::vector<double> remainder;
  std::vector<uint64_t> x = FloorCounts(system, relaxed, &remainder);
  if (!options.caps.empty()) {
    for (PairId p = 0; p < n; ++p) x[p] = std::min(x[p], options.caps[p]);
  }

  // Row state for incremental feasibility checks.
  std::vector<double> row_lhs(system.num_rows(), 0.0);
  for (size_t r = 0; r < system.num_rows(); ++r) {
    row_lhs[r] = system.RowLhs(r, std::span<const uint64_t>(x));
  }
  auto admit = [&](PairId p) {
    if (!options.caps.empty() && x[p] + 1 > options.caps[p]) return false;
    const uint32_t begin = index.pair_begin[p], end = index.pair_begin[p + 1];
    for (uint32_t k = begin; k < end; ++k) {
      const double lhs = row_lhs[index.rows[k]] + index.weights[k];
      if (lhs > system.budget() + 1e-12) return false;
    }
    for (uint32_t k = begin; k < end; ++k) {
      row_lhs[index.rows[k]] += index.weights[k];
    }
    ++x[p];
    return true;
  };

  // Stage 2: largest-remainder repair.
  std::vector<PairId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](PairId a, PairId b) {
    return remainder[a] > remainder[b];
  });
  for (PairId p : order) {
    if (remainder[p] <= 1e-9) break;  // sorted: the rest are zero too
    admit(p);
  }

  // Stage 3: greedy fill, cheapest worst-row weight first; keep sweeping
  // until a full pass admits nothing.
  if (options.greedy_fill) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (PairId p : index.fill_order) {
        if (admit(p)) progress = true;
      }
    }
  }
  return x;
}

}  // namespace privsan
