// LP-based branch & bound for mixed / binary integer programs.
//
// This is privsan's stand-in for the exact BIP solvers the paper runs
// (Matlab bintprog, NEOS qsopt_ex / scip): a best-first search on the
// simplex relaxation with most-fractional branching and node / wall-clock
// budgets. On small instances it proves optimality; on D-UMP-sized
// instances the budgets bite and it returns the best incumbent found —
// exactly the regime Table 7 of the paper evaluates.
#ifndef PRIVSAN_LP_BRANCH_AND_BOUND_H_
#define PRIVSAN_LP_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"

namespace privsan {
namespace lp {

struct BnbOptions {
  int64_t max_nodes = 100000;
  double time_limit_seconds = 60.0;
  // Re-solve child nodes from the parent's optimal basis (dual-simplex
  // bound restoration) instead of from scratch.
  bool warm_start = true;
};

struct BnbResult {
  // kOptimal: incumbent proven optimal. kIterationLimit: a budget was hit;
  // `x`/`objective` hold the best incumbent if `has_incumbent`.
  SolveStatus status = SolveStatus::kNumericalFailure;
  bool has_incumbent = false;
  bool proven_optimal = false;
  double objective = 0.0;       // incumbent objective (model sense)
  double best_bound = 0.0;      // dual bound on the true optimum
  std::vector<double> x;        // incumbent point (structural variables)
  int64_t nodes_explored = 0;
  double wall_seconds = 0.0;
  // LP effort summed over every node solve; warm_solves counts the node
  // LPs that ran from the parent basis.
  SolveStats stats;
  // Iterations of the root relaxation alone — the part a `root_hint` from a
  // neighbouring budget cell shrinks (tree totals are not comparable across
  // runs, since a different root vertex reorders the search).
  uint64_t root_lp_iterations = 0;
  // Optimal basis of the root relaxation, reusable as `root_hint` for the
  // next solve of a structurally identical model. Empty if the root LP did
  // not reach optimality.
  Basis root_basis;
  // Whether the root LP itself ran from `root_hint`.
  bool root_warm_started = false;
};

// Solves `model` honoring Variable::is_integer flags. The model must be
// Validate()d. Maximization and minimization both supported. Every node LP
// runs on `simplex`. `root_hint` (optional, not owned) warm-starts the root
// LP when options.warm_start is set — typically the optimal root basis of a
// structurally identical model solved at a different rhs (a neighbouring
// (ε, δ) cell in a budget sweep).
BnbResult SolveBranchAndBound(const LpModel& model,
                              const BnbOptions& options = {},
                              const SimplexOptions& simplex = {},
                              const Basis* root_hint = nullptr);

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_BRANCH_AND_BOUND_H_
