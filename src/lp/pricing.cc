#include "lp/pricing.h"

#include <algorithm>
#include <cmath>

namespace privsan {
namespace lp {

double PriceColumn(const PricingView& view, int j, int& sign) {
  sign = 0;
  const VarStatus st = view.state[j];
  if (st == VarStatus::kBasic || view.lower[j] == view.upper[j]) return 0.0;
  const double reduced = view.reduced_costs[j];
  if ((st == VarStatus::kAtLower || st == VarStatus::kFree) &&
      reduced < -view.optimality_tol) {
    sign = +1;
    return -reduced;
  }
  if ((st == VarStatus::kAtUpper || st == VarStatus::kFree) &&
      reduced > view.optimality_tol) {
    sign = -1;
    return reduced;
  }
  return 0.0;
}

// ---- PrimalPricer -----------------------------------------------------------

PrimalPricer::PrimalPricer(int n_total, const SimplexOptions& options)
    : n_total_(n_total),
      candidate_list_size_(std::max(8, options.candidate_list_size)),
      gamma_(n_total, 1.0) {}

void PrimalPricer::ResetReference() {
  std::fill(gamma_.begin(), gamma_.end(), 1.0);
  candidates_.clear();
  refill_best_score_ = 0.0;
  minor_iterations_ = 0;
}

// Full scan by Devex score; refills the candidate list with the top scorers
// and returns the best.
PrimalPricer::Choice PrimalPricer::Refill(const PricingView& view) {
  struct Cand {
    double score;
    int j;
    int sign;
  };
  std::vector<Cand> found;
  Choice choice;
  double best = 0.0;
  for (int j = 0; j < n_total_; ++j) {
    int sign = 0;
    const double violation = PriceColumn(view, j, sign);
    if (sign == 0) continue;
    const double score = violation * violation / gamma_[j];
    found.push_back(Cand{score, j, sign});
    if (score > best) {
      best = score;
      choice.entering = j;
      choice.sign = sign;
    }
  }
  const size_t keep = static_cast<size_t>(candidate_list_size_);
  if (found.size() > keep) {
    std::nth_element(
        found.begin(), found.begin() + keep, found.end(),
        [](const Cand& a, const Cand& b) { return a.score > b.score; });
    found.resize(keep);
  }
  candidates_.clear();
  for (const Cand& c : found) candidates_.push_back(c.j);
  refill_best_score_ = best;
  minor_iterations_ = 0;
  return choice;
}

PrimalPricer::Choice PrimalPricer::ChooseEntering(const PricingView& view,
                                                  bool allow_partial,
                                                  bool bland) {
  if (bland) {
    // First improving index — guarantees termination under degeneracy.
    Choice choice;
    for (int j = 0; j < n_total_; ++j) {
      int sign = 0;
      if (PriceColumn(view, j, sign) > 0.0) {
        choice.entering = j;
        choice.sign = sign;
        return choice;
      }
    }
    return choice;
  }
  if (!allow_partial) return Refill(view);

  // Minor iteration: re-price only the candidate list. Refill when the
  // list drains, after candidate_list_size pivots (classic multiple
  // pricing), or when the surviving candidates' scores have decayed to
  // noise next to what the last full scan saw — stale candidates under
  // degeneracy are worse than the O(n) scan they save.
  Choice choice;
  double best = 0.0;
  size_t out = 0;
  for (size_t k = 0; k < candidates_.size(); ++k) {
    const int j = candidates_[k];
    int sign = 0;
    const double violation = PriceColumn(view, j, sign);
    if (sign == 0) continue;
    candidates_[out++] = j;
    const double score = violation * violation / gamma_[j];
    if (score > best) {
      best = score;
      choice.entering = j;
      choice.sign = sign;
    }
  }
  candidates_.resize(out);
  ++minor_iterations_;
  if (choice.entering < 0 || minor_iterations_ >= candidate_list_size_ ||
      best < 0.05 * refill_best_score_) {
    choice = Refill(view);
  }
  return choice;
}

void PrimalPricer::OnPivot(const PricingView& view, int entering,
                           int leaving_var, double pivot,
                           std::span<const int> alpha_touched,
                           const std::vector<SparseAccumCell>& alpha) {
  const double gamma_q = gamma_[entering];
  const double inv_pivot_sq = 1.0 / (pivot * pivot);
  for (int j : alpha_touched) {
    if (view.state[j] == VarStatus::kBasic) continue;
    const double candidate_weight =
        alpha[j].value * alpha[j].value * inv_pivot_sq * gamma_q;
    if (candidate_weight > gamma_[j]) gamma_[j] = candidate_weight;
  }
  gamma_[leaving_var] = std::max(gamma_q * inv_pivot_sq, 1.0);
}

// ---- DualPricer -------------------------------------------------------------

DualPricer::DualPricer(int m, const SimplexOptions& options)
    : devex_(options.dual_pricing == SimplexOptions::DualPricing::kDevex),
      weights_(m, 1.0) {}

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
    const double score =
        devex_ ? violation * violation / weights_[i] : violation;
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
                         int leaving_slot) {
  if (!devex_) return;
  const double pivot = direction[leaving_slot];
  const double gamma_r = weights_[leaving_slot];
  const double inv_pivot_sq = 1.0 / (pivot * pivot);
  const int m = static_cast<int>(direction.size());
  for (int i = 0; i < m; ++i) {
    const double di = direction[i];
    if (i == leaving_slot || di == 0.0) continue;
    const double candidate = di * di * inv_pivot_sq * gamma_r;
    if (candidate > weights_[i]) weights_[i] = candidate;
  }
  weights_[leaving_slot] = std::max(gamma_r * inv_pivot_sq, 1.0);
}

}  // namespace lp
}  // namespace privsan
