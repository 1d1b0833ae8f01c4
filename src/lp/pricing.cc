#include "lp/pricing.h"

#include <algorithm>
#include <cmath>

#include "lp/column_blocks.h"

namespace privsan {
namespace lp {

double PriceColumn(const PricingView& view, int j, int& sign) {
  sign = 0;
  const VarStatus st = view.state[j];
  if (st == VarStatus::kBasic || view.lower[j] == view.upper[j]) return 0.0;
  const double reduced = view.reduced_costs[j];
  if ((st == VarStatus::kAtLower || st == VarStatus::kFree) &&
      reduced < -kOptimalityTol) {
    sign = +1;
    return -reduced;
  }
  if ((st == VarStatus::kAtUpper || st == VarStatus::kFree) &&
      reduced > kOptimalityTol) {
    sign = -1;
    return reduced;
  }
  return 0.0;
}

// ---- PrimalPricer -----------------------------------------------------------

PrimalPricer::PrimalPricer(int n_total)
    : gamma_(n_total, 1.0), block_best_(ColumnBlockCount(n_total)) {}

void PrimalPricer::ResetReference() {
  std::fill(gamma_.begin(), gamma_.end(), 1.0);
}

PrimalPricer::Choice PrimalPricer::ChooseEntering(const PricingView& view,
                                                  bool bland) const {
  Choice choice;
  double best = 0.0;
  const int n = static_cast<int>(gamma_.size());
  for (int j = 0; j < n; ++j) {
    int sign = 0;
    const double violation = PriceColumn(view, j, sign);
    if (sign == 0) continue;
    if (bland) return Choice{j, sign};  // termination under degeneracy
    const double score = violation * violation / gamma_[j];
    if (score > best) {
      best = score;
      choice = Choice{j, sign};
    }
  }
  return choice;
}

PrimalPricer::Choice PrimalPricer::PriceAfterPivot(
    const SparseMatrix& a, const std::vector<double>& rho,
    const PricingView& view, int entering, int leaving_var, double pivot,
    CallerTask task) {
  std::span<double> d = view.reduced_costs;
  const double theta_d = d[entering] / pivot;
  const double gamma_q = gamma_[entering];
  const double inv_pivot_sq = 1.0 / (pivot * pivot);
  d[entering] = 0.0;
  d[leaving_var] = -theta_d;
  gamma_[leaving_var] = std::max(gamma_q * inv_pivot_sq, 1.0);

  auto price_block = [&](int block, int begin, int end) {
    Choice choice;
    double best = 0.0;
    for (int j = begin; j < end; ++j) {
      if (view.state[j] == VarStatus::kBasic) continue;
      if (j != leaving_var) {
        const double alpha = a.ColumnDot(j, rho);
        d[j] -= theta_d * alpha;
        const double weight = alpha * alpha * inv_pivot_sq * gamma_q;
        if (weight > gamma_[j]) gamma_[j] = weight;
      }
      int sign = 0;
      const double violation = PriceColumn(view, j, sign);
      if (sign == 0) continue;
      const double score = violation * violation / gamma_[j];
      if (score > best) {
        best = score;
        choice = Choice{j, sign};
      }
    }
    block_best_[block] = BlockBest{best, choice};
  };
  ForEachColumnBlock(static_cast<int>(gamma_.size()), price_block, task);
  // In block order with a strict comparison: the lowest index keeps ties,
  // as in one serial scan.
  BlockBest best;
  for (const BlockBest& block : block_best_) {
    if (block.score > best.score) best = block;
  }
  return best.choice;
}

// ---- DualPricer -------------------------------------------------------------

DualPricer::DualPricer(int n_total) : weights_(n_total, 1.0) {}

void DualPricer::ResetReference() {
  std::fill(weights_.begin(), weights_.end(), 1.0);
}

DualPricer::Leaving DualPricer::ChooseLeaving(
    std::span<const double> x, std::span<const int> basis,
    std::span<const double> lower, std::span<const double> upper) const {
  Leaving leaving;
  double best_score = 0.0;
  const int m = static_cast<int>(basis.size());
  for (int i = 0; i < m; ++i) {
    const int bv = basis[i];
    const double v = x[bv];
    double violation = 0.0;
    bool below = false;
    if (v < lower[bv] - 1e-9 * (1.0 + std::abs(lower[bv]))) {
      below = true;
      violation = lower[bv] - v;
    } else if (v > upper[bv] + 1e-9 * (1.0 + std::abs(upper[bv]))) {
      violation = v - upper[bv];
    } else {
      continue;
    }
    const double score = violation * violation / weights_[bv];
    if (score > best_score) {
      best_score = score;
      leaving.slot = i;
      leaving.below = below;
      leaving.violation = violation;
    }
  }
  return leaving;
}

void DualPricer::OnPivot(std::span<const double> direction,
                         int leaving_slot, std::span<const int> basis,
                         int entering) {
  const double pivot = direction[leaving_slot];
  const double gamma_r = weights_[basis[leaving_slot]];
  const double inv_pivot_sq = 1.0 / (pivot * pivot);
  const int m = static_cast<int>(direction.size());
  for (int i = 0; i < m; ++i) {
    const double di = direction[i];
    if (i == leaving_slot || di == 0.0) continue;
    const double candidate = di * di * inv_pivot_sq * gamma_r;
    double& weight = weights_[basis[i]];
    if (candidate > weight) weight = candidate;
  }
  weights_[entering] = std::max(gamma_r * inv_pivot_sq, 1.0);
}

}  // namespace lp
}  // namespace privsan
