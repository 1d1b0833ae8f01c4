#include "lp/ratio_test.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace privsan {
namespace lp {

PrimalRatioChoice PrimalRatioTest(std::span<const double> dir,
                                  int direction_sign, double bound_flip_step,
                                  std::span<const int> basis,
                                  std::span<const double> x,
                                  std::span<const double> lower,
                                  std::span<const double> upper, bool bland,
                                  const SimplexOptions& options) {
  const double kInf = std::numeric_limits<double>::infinity();
  const int m = static_cast<int>(basis.size());

  // The step at which slot i's basic variable hits a bound; infinity when
  // it never blocks.
  auto row_ratio = [&](int i) -> double {
    const double delta = direction_sign * dir[i];
    const int bv = basis[i];
    if (delta > options.pivot_tol) {
      if (!std::isfinite(lower[bv])) return kInf;
      return std::max((x[bv] - lower[bv]) / delta, 0.0);
    }
    if (delta < -options.pivot_tol) {
      if (!std::isfinite(upper[bv])) return kInf;
      return std::max((upper[bv] - x[bv]) / (-delta), 0.0);
    }
    return kInf;
  };

  PrimalRatioChoice choice;

  // Pass 1: the tightest blocking step.
  double t_row_min = kInf;
  for (int i = 0; i < m; ++i) t_row_min = std::min(t_row_min, row_ratio(i));

  if (!std::isfinite(t_row_min) && !std::isfinite(bound_flip_step)) {
    choice.unbounded = true;
    return choice;
  }

  choice.step = bound_flip_step;
  if (t_row_min <= bound_flip_step) {
    // Pass 2 (Harris-style): among the slots within a small tolerance
    // window above the tightest step, prefer the largest pivot magnitude —
    // or the smallest basic index under Bland's rule.
    const double window = t_row_min + std::max(1e-10, 1e-7 * t_row_min);
    double best_pivot = 0.0;
    int best_bv = std::numeric_limits<int>::max();
    for (int i = 0; i < m; ++i) {
      const double t = row_ratio(i);
      if (t > window) continue;
      const double pivot = std::abs(dir[i]);
      const bool take = bland ? basis[i] < best_bv : pivot > best_pivot;
      if (choice.leaving_row < 0 || take) {
        choice.leaving_row = i;
        best_pivot = pivot;
        best_bv = basis[i];
        choice.leaving_at_upper = direction_sign * dir[i] < 0.0;
        choice.step = std::min(t, bound_flip_step);
      }
    }
  }
  return choice;
}

DualRatioChoice DualRatioTest(std::span<const double> alpha,
                              std::span<const double> reduced_costs,
                              std::span<const VarStatus> state,
                              std::span<const double> lower,
                              std::span<const double> upper, bool below,
                              double violation,
                              const SimplexOptions& options) {
  struct DualCand {
    double ratio;
    double abs_alpha;
    int j;
  };
  std::vector<DualCand> heap;
  const int n = static_cast<int>(state.size());
  for (int j = 0; j < n; ++j) {
    const VarStatus st = state[j];
    if (st == VarStatus::kBasic || lower[j] == upper[j]) continue;
    const double a = alpha[j];
    if (std::abs(a) <= options.pivot_tol) continue;
    bool ok;
    if (st == VarStatus::kFree) {
      ok = true;
    } else if (below) {
      // x_B[r] must increase: dx = -a * dt with dt >= 0 from lower
      // (need a < 0) or dt <= 0 from upper (need a > 0).
      ok = st == VarStatus::kAtLower ? a < 0.0 : a > 0.0;
    } else {
      ok = st == VarStatus::kAtLower ? a > 0.0 : a < 0.0;
    }
    if (!ok) continue;
    heap.push_back(
        DualCand{std::abs(reduced_costs[j]) / std::abs(a), std::abs(a), j});
  }
  // Min-heap on (ratio, -|alpha|, j): `later(a, b)` holds when a pops after b.
  auto later = [](const DualCand& a, const DualCand& b) {
    if (a.ratio != b.ratio) return a.ratio > b.ratio;
    if (a.abs_alpha != b.abs_alpha) return a.abs_alpha < b.abs_alpha;
    return a.j > b.j;
  };
  std::make_heap(heap.begin(), heap.end(), later);
  DualRatioChoice choice;
  double remaining = violation;
  for (auto end = heap.end(); end != heap.begin(); --end) {
    std::pop_heap(heap.begin(), end, later);
    const DualCand& c = *(end - 1);
    const double capacity = state[c.j] == VarStatus::kFree
                                ? std::numeric_limits<double>::infinity()
                                : c.abs_alpha * (upper[c.j] - lower[c.j]);
    if (capacity < remaining) {
      remaining -= capacity;
      choice.bound_flips.push_back(c.j);
      continue;
    }
    choice.entering = c.j;
    return choice;
  }
  // Farkas: even flipping every eligible column cannot absorb the
  // violation — the primal is infeasible.
  choice.bound_flips.clear();
  return choice;
}

}  // namespace lp
}  // namespace privsan
