// Ratio tests for the revised simplex, split out of the iteration driver in
// lp/simplex.cc.
//
//   * PrimalRatioTest — Harris-style two-pass tolerancing over the basic
//     variables: pass 1 finds the tightest blocking step, pass 2 re-scans
//     the slots whose ratio lies within a small window above it and keeps
//     the one with the largest pivot magnitude (numerical stability) — or,
//     under Bland's rule, the smallest basic variable index (termination).
//     A bounded entering variable may also "bound flip": travel to its own
//     opposite bound without any basis change.
//   * DualRatioTest — the bound-flip dual ratio test: walk the
//     sign-eligible columns in ascending |d_j / alpha_j| order (larger
//     |alpha_j|, then lower index, first on ties), popped off a heap so a
//     pivot pays only for the candidates it visits; a candidate
//     whose whole range cannot absorb the leaving variable's violation is
//     queued to bound-flip (its reduced cost crosses zero at the eventual
//     dual step, so the flip keeps dual feasibility), and the first
//     candidate that can absorb what remains enters the basis. Without the
//     flips, degenerate instances thrash for thousands of iterations
//     moving one sliver at a time.
//
// Both are pure functions of the driver's state — they choose, the driver
// applies.
#ifndef PRIVSAN_LP_RATIO_TEST_H_
#define PRIVSAN_LP_RATIO_TEST_H_

#include <span>
#include <vector>

#include "lp/simplex.h"

namespace privsan {
namespace lp {

struct PrimalRatioChoice {
  // Slot of the blocking basic variable; -1 when nothing blocks — then the
  // entering variable bound-flips by `step`, or the LP is unbounded along
  // this column when `unbounded` is set.
  int leaving_row = -1;
  // Nonnegative step magnitude of the entering variable.
  double step = 0.0;
  // Whether the blocking variable leaves at its upper bound.
  bool leaving_at_upper = false;
  // No blocking row and no finite bound flip.
  bool unbounded = false;
};

// `direction` is the FTRAN image B^-1 A_entering; `direction_sign` +1/-1 is
// the travel direction; `bound_flip_step` is how far the entering variable
// may travel before hitting its own opposite bound (infinity when none).
PrimalRatioChoice PrimalRatioTest(std::span<const double> direction,
                                  int direction_sign, double bound_flip_step,
                                  std::span<const int> basis,
                                  std::span<const double> x,
                                  std::span<const double> lower,
                                  std::span<const double> upper, bool bland,
                                  const SimplexOptions& options);

struct DualRatioChoice {
  // Entering column; -1 is a Farkas certificate — the primal is infeasible
  // (even flipping every eligible column cannot absorb the violation).
  int entering = -1;
  // Columns to bound-flip before the dual step (in ratio order).
  std::vector<int> bound_flips;
};

// `alpha` is the leaving slot's pivot row, one entry per variable (the
// entries of basic columns are not read); `below` and `violation` describe
// the leaving variable's bound violation (from DualPricer::ChooseLeaving).
DualRatioChoice DualRatioTest(std::span<const double> alpha,
                              std::span<const double> reduced_costs,
                              std::span<const VarStatus> state,
                              std::span<const double> lower,
                              std::span<const double> upper, bool below,
                              double violation,
                              const SimplexOptions& options);

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_RATIO_TEST_H_
