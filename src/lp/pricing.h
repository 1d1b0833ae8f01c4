// Pricing for the revised simplex — who enters (primal) and who leaves
// (dual), split out of the iteration driver in lp/simplex.cc.
//
//   * PrimalPricer — full Devex pricing fused with PRICE. After each basis
//     change one pass over the nonbasic columns computes the pivot row
//     entry alpha_j = A_j^T rho (rho = B^-T e_r), applies the reduced-cost
//     and Devex reference-weight updates, and prices the column, so the
//     next entering column (best violation^2 / weight, lowest index on
//     ties) comes out of the same walk over A. A standalone full scan
//     serves the iterations no pass preceded (after a reduced-cost
//     refresh, a bound flip or a rejected pivot), and a Bland mode (first
//     improving index) guarantees termination under degeneracy.
//   * DualPricer — the dual simplex's leaving-row choice. Largest bound
//     violation is the legacy rule; the default is dual Devex: row weights
//     approximating the steepest-edge norms ||e_i^T B^-1||^2, updated from
//     the FTRAN image of each entering column, with rows scored by
//     violation^2 / weight. On the long dual repairs of deep B&B children
//     and post-append warm starts this cuts the pivot count the same way
//     primal Devex does on cold solves.
//
// Both pricers hold only their weights; the reduced costs, the basis, and
// the bound data stay in the driver and are passed in by view.
// ResetReference() must be called whenever the driver recomputes reduced
// costs exactly (refactorizations, phase switches) — the Devex reference
// framework moves with them.
#ifndef PRIVSAN_LP_PRICING_H_
#define PRIVSAN_LP_PRICING_H_

#include <span>
#include <vector>

#include "lp/simplex.h"
#include "lp/sparse_matrix.h"

namespace privsan {
namespace lp {

// The per-column data pricing reads. PrimalPricer::PriceAfterPivot also
// updates `reduced_costs` in place.
struct PricingView {
  std::span<double> reduced_costs;  // maintained d, one per variable
  std::span<const VarStatus> state;
  std::span<const double> lower, upper;
  double optimality_tol = 0.0;
};

// Violation magnitude of column j (0 = not improving); `sign` is +1 when
// the entering variable would increase, -1 when it would decrease.
double PriceColumn(const PricingView& view, int j, int& sign);

class PrimalPricer {
 public:
  explicit PrimalPricer(int n_total);

  // The reduced costs were recomputed exactly: reset the Devex reference
  // framework.
  void ResetReference();

  struct Choice {
    int entering = -1;
    int sign = 0;
  };

  // Full scan of the maintained reduced costs: the best Devex score
  // (lowest index on ties), or under `bland` the first improving index.
  Choice ChooseEntering(const PricingView& view, bool bland) const;

  // The fused PRICE pass after `entering` replaced `leaving_var` with pivot
  // element `pivot`. `rho` is B^-T e_r against the basis before the swap;
  // `view.state` already reflects the swap. For every nonbasic column j it
  // computes alpha_j = A_j^T rho (entries summed in row order), applies
  // d_j -= (d_q / pivot) alpha_j and the Devex update
  // w_j = max(w_j, (alpha_j / pivot)^2 w_q), and prices j; the result
  // equals ChooseEntering(view, false) on the updated values.
  Choice PriceAfterPivot(const SparseMatrix& a,
                         const std::vector<double>& rho,
                         const PricingView& view, int entering,
                         int leaving_var, double pivot);

  // Devex reference weights, one per variable.
  std::span<const double> weights() const { return gamma_; }

 private:
  std::vector<double> gamma_;
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
