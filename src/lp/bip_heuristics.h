// Primal heuristics for the non-negative cardinality BIP
//
//     max  sum_j y_j
//     s.t. W y <= b,  W >= 0, b > 0,  y in {0,1}^n,
//
// which is exactly the D-UMP of Section 5.3 (a multidimensional knapsack).
// These play the role of the NEOS `feaspump` heuristic in the paper's
// solver comparison (Table 7 / Figure 5):
//
//   * SolveBipGreedy     — constructive: admit variables in increasing order
//                          of their worst-case row weight while all rows fit;
//   * SolveBipLpRounding — solve the [0,1] LP relaxation with the simplex,
//                          then admit variables by descending fractional
//                          value while all rows fit (feasibility-pump-like);
//   * RoundBipPoint      — that rounding step alone, for a caller that
//                          already holds a relaxation optimum (the D-UMP
//                          session rounds a scaled O-UMP optimum that fits
//                          the unit box, core/ump.h).
//
// The paper's own SPE heuristic (Algorithm 2) lives in core/spe.h; the exact
// solver stand-in is lp/branch_and_bound.h.
#ifndef PRIVSAN_LP_BIP_HEURISTICS_H_
#define PRIVSAN_LP_BIP_HEURISTICS_H_

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "lp/sparse_matrix.h"
#include "util/result.h"

namespace privsan {
namespace lp {

// Column-major representation: columns[j] lists (row, weight) with
// weight > 0; rhs[r] > 0 is row r's capacity.
struct BipProblem {
  int num_rows = 0;
  std::vector<std::vector<SparseEntry>> columns;
  std::vector<double> rhs;

  int num_vars() const { return static_cast<int>(columns.size()); }

  // Checks non-negativity / positivity requirements.
  Status Validate() const;

  // Whether selection `y` satisfies every row within `tol`.
  bool IsFeasible(const std::vector<uint8_t>& y, double tol = 1e-9) const;

  // Equivalent LpModel (binary integrality flags set), for branch & bound.
  LpModel ToLpModel() const;
};

struct BipSolution {
  std::vector<uint8_t> y;
  int64_t selected = 0;  // objective: number of y_j == 1
  // LP effort behind the solution (zero for the pure greedy).
  SolveStats stats;
  // Optimal basis of the LP relaxation (empty for the pure greedy and when
  // the LP fell back), reusable as a warm-start hint for the next solve of
  // a structurally identical relaxation.
  Basis basis;
};

Result<BipSolution> SolveBipGreedy(const BipProblem& problem);

// The rounding step of SolveBipLpRounding: admits variables by descending
// `point` value, ties by ascending largest weight, while every row fits.
// Feasible for any point; as good as LP rounding when `point` is an
// optimum of the [0,1] relaxation. Builds no model and reports no LP
// effort and no basis.
Result<BipSolution> RoundBipPoint(const BipProblem& problem,
                                  const std::vector<double>& point);

// `hint` (optional) warm-starts the LP relaxation from a basis of a
// structurally identical relaxation — e.g. the previous cell of a budget
// sweep, where only the rhs changed.
Result<BipSolution> SolveBipLpRounding(const BipProblem& problem,
                                       const SimplexOptions& options = {},
                                       const Basis* hint = nullptr);

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_BIP_HEURISTICS_H_
