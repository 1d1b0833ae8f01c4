// Pricing for the revised simplex — who enters (primal) and who leaves
// (dual), split out of the iteration driver in lp/simplex.cc.
//
//   * PrimalPricer — Devex reference weights over the columns with
//     candidate-list partial pricing (multiple pricing): a full scan by
//     Devex score refills a small candidate list, minor iterations re-price
//     only the candidates, and a Bland mode (first improving index, full
//     scan) guarantees termination under degeneracy.
//   * DualPricer — the dual simplex's leaving-row choice. Largest bound
//     violation is the legacy rule; the default is dual Devex: row weights
//     approximating the steepest-edge norms ||e_i^T B^-1||^2, updated from
//     the FTRAN image of each entering column, with rows scored by
//     violation^2 / weight. On the long dual repairs of deep B&B children
//     and post-append warm starts this cuts the pivot count the same way
//     primal Devex does on cold solves.
//
// Both pricers hold only pricing state (weights, candidate list); the
// reduced costs, the basis, and the bound data stay in the driver and are
// passed in by view. ResetReference() must be called whenever the driver
// recomputes reduced costs exactly (refactorizations, phase switches) —
// the Devex reference framework moves with them.
#ifndef PRIVSAN_LP_PRICING_H_
#define PRIVSAN_LP_PRICING_H_

#include <span>
#include <vector>

#include "lp/simplex.h"
#include "lp/sparse_matrix.h"

namespace privsan {
namespace lp {

// The per-column data one pricing pass reads.
struct PricingView {
  std::span<const double> reduced_costs;  // maintained d, one per variable
  std::span<const VarStatus> state;
  std::span<const double> lower, upper;
  double optimality_tol = 0.0;
};

// Violation magnitude of column j (0 = not improving); `sign` is +1 when
// the entering variable would increase, -1 when it would decrease.
double PriceColumn(const PricingView& view, int j, int& sign);

class PrimalPricer {
 public:
  PrimalPricer(int n_total, const SimplexOptions& options);

  // The reduced costs were recomputed exactly: reset the Devex reference
  // framework and drop the (now stale) candidate list.
  void ResetReference();

  struct Choice {
    int entering = -1;
    int sign = 0;
  };

  // Picks the entering column off the maintained reduced costs.
  // `allow_partial` enables candidate-list minor iterations (the driver
  // disables them during degenerate stalls); `bland` switches to the first
  // improving index (full scan).
  Choice ChooseEntering(const PricingView& view, bool allow_partial,
                        bool bland);

  // Devex weight update along the pivot row after `entering` replaced
  // `leaving_var` with pivot element `pivot`. `alpha_touched`/`alpha` are
  // the pivot row's computed entries; `view.state` must already reflect the
  // post-pivot statuses.
  void OnPivot(const PricingView& view, int entering, int leaving_var,
               double pivot, std::span<const int> alpha_touched,
               const std::vector<SparseAccumCell>& alpha);

 private:
  Choice Refill(const PricingView& view);

  int n_total_;
  int candidate_list_size_;
  std::vector<double> gamma_;   // Devex reference weights
  std::vector<int> candidates_;
  double refill_best_score_ = 0.0;  // best Devex score at the last refill
  int minor_iterations_ = 0;        // pivots since the last refill
};

class DualPricer {
 public:
  DualPricer(int m, const SimplexOptions& options);

  // The basis was refactorized / reduced costs recomputed: reset the Devex
  // reference framework.
  void ResetReference();

  struct Leaving {
    int slot = -1;          // -1: primal feasible, nothing leaves
    bool below = false;     // violated bound side
    double violation = 0.0; // actual bound violation (not the Devex score)
  };

  // The leaving row: largest violation (legacy) or best violation^2/weight
  // (dual Devex).
  Leaving ChooseLeaving(std::span<const double> x, std::span<const int> basis,
                        std::span<const double> lower,
                        std::span<const double> upper) const;

  // Dual Devex weight update from the FTRAN image of the entering column
  // (`direction` = B^-1 A_entering) pivoting at `leaving_slot`.
  void OnPivot(std::span<const double> direction, int leaving_slot);

 private:
  bool devex_ = true;
  std::vector<double> weights_;
};

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_PRICING_H_
