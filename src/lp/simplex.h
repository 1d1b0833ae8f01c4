// Two-phase sparse revised primal simplex with bounded variables, a
// sparse LU basis, Devex pricing in both phases, presolve, and a
// dual-simplex warm start.
//
// This is the LP engine behind all three utility-maximizing problems:
// O-UMP and F-UMP are solved directly as LPs (with linear relaxation, as in
// Section 5 of the paper), and branch & bound uses it per node for D-UMP —
// warm-starting every child node from its parent's optimal basis.
//
// The engine is split into four modules; this file's SimplexSolver is the
// iteration driver tying them together:
//
//  * Factorization (lp/basis_rep.h, lp/lu_factorization.h): FTRAN/BTRAN/
//    UPDATE behind the BasisRep interface. The default is a sparse LU with
//    Markowitz ordering and threshold partial pivoting, updated by
//    Forrest–Tomlin; a dense explicit inverse is the retry of last resort
//    (and the oracle the LU is tested against). Refactorization triggers
//    on update-file growth or numerical drift (residual breach), never on
//    a fixed iteration schedule. A *singular* refactorization no longer
//    forces a cold solve: the dependent columns are swapped for the
//    uncovered rows' slacks and the solve continues
//    (SimplexOptions::repair_policy).
//  * Pricing (lp/pricing.h): full primal Devex fused with PRICE — after
//    each pivot one pass over the nonbasic columns forms the pivot row
//    alpha_j = A_j^T B^-T e_r, updates the reduced costs and Devex weights,
//    and picks the next entering column (optimality is only declared after
//    a scan of exact reduced costs) — and dual Devex reference weights for
//    the dual phase's leaving-row choice. A run of degenerate pivots
//    switches the primal to Bland's rule, which guarantees termination.
//  * Ratio tests (lp/ratio_test.h): Harris-style two-pass tolerancing with
//    bound flips in the primal, and the bound-flip dual ratio test that
//    keeps degenerate dual repairs from thrashing.
//  * Presolve (lp/presolve.h) strips fixed variables, empty and singleton
//    rows, and bound-implied empty columns before phase 1 and maps the
//    reduced solution (primal, duals, and basis) back afterward.
//
// Warm start: Solve(model, hint) starts from a caller-supplied basis —
// typically the parent node's optimal basis in branch & bound. Bound
// changes are restored dual-simplex style (the parent basis stays dual
// feasible under bound changes), followed by a primal cleanup phase. Stale
// hints fall back to a cold solve; singular hints are repaired in place
// when the repair policy allows.
#ifndef PRIVSAN_LP_SIMPLEX_H_
#define PRIVSAN_LP_SIMPLEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.h"

namespace privsan {
namespace lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,
};

const char* SolveStatusToString(SolveStatus status);

// Status of one variable in a basis snapshot.
enum class VarStatus : int8_t {
  kBasic = 0,
  kAtLower = 1,
  kAtUpper = 2,
  kFree = 3,
};

// A simplex basis over the structural + slack variables of a model with
// n structural variables and m rows: `state` has n + m entries, exactly m
// of them kBasic, and `basic` lists the basic variables (slot order is
// irrelevant — warm starts refactorize and re-assign slots).
struct Basis {
  std::vector<int> basic;         // size m
  std::vector<VarStatus> state;   // size n + m
  bool empty() const { return basic.empty(); }
};

struct SimplexOptions {
  // Reduced-cost optimality tolerance.
  double optimality_tol = 1e-7;
  // Pivot magnitude below which a ratio-test row is skipped.
  double pivot_tol = 1e-9;
  // Ratio-test pivots below this are considered numerically unstable: when
  // the tie-break window offers nothing larger, the solver refactorizes and
  // re-prices instead of pivoting (a "pivot" that is pure factorization
  // noise silently makes the basis singular).
  double stable_pivot_tol = 1e-7;
  // Phase-1 objective above this value means infeasible.
  double feasibility_tol = 1e-6;
  // Combined iteration budget across phases (primal and dual).
  int64_t max_iterations = 500000;
  // Degenerate pivots in a row before switching to Bland's rule.
  int bland_trigger = 64;

  // Basis representation: sparse LU with Markowitz ordering and
  // Forrest–Tomlin updates (default), or dense inverse (numerical retry of
  // last resort).
  enum class BasisKind { kDense, kLu };
  BasisKind basis_kind = BasisKind::kLu;

  // Threshold partial pivoting parameter of the LU factorization, in
  // (0, 1]: a pivot must be at least this fraction of its column's largest
  // magnitude. Larger is more stable, smaller is sparser.
  double markowitz_threshold = 0.1;

  // Row/column equilibration (lp/scaling.h): iterative geometric-mean
  // scaling of the constraint matrix into roughly [1/16, 16] with
  // power-of-two factors (exact in floating point), applied inside the
  // solver — costs, bounds, rhs, and the solution are mapped back exactly,
  // and basis hints are scale-invariant, so warm starts are unaffected.
  // Lets markowitz_threshold chase sparsity on badly scaled rows.
  enum class Scaling { kNone, kEquilibrate };
  Scaling scaling = Scaling::kEquilibrate;

  // Dual-phase leaving-row rule: dual Devex (default — violation^2 over a
  // steepest-edge-approximating row weight) or the legacy largest
  // violation. Devex cuts the pivot count of long dual repairs (deep B&B
  // children, post-append warm starts).
  enum class DualPricing { kLargestViolation, kDevex };
  DualPricing dual_pricing = DualPricing::kDevex;

  // What to do when a refactorization finds the basis singular. kRowSlacks
  // (default) swaps the dependent columns for the uncovered rows' slack
  // variables and continues the solve in place; kNone restores the old
  // behavior (numerical failure -> cold solve / dense retry).
  enum class RepairPolicy { kNone, kRowSlacks };
  RepairPolicy repair_policy = RepairPolicy::kRowSlacks;
  // Repair-and-refactorize attempts per factorization before giving up
  // (each attempt can expose further dependencies).
  int max_basis_repairs = 3;

  // Pivot budget of the warm-start dual repair phase: a warm basis is
  // near-optimal, so a long dual run signals a stale hint and the solver
  // bails out to a cold solve (reported as LpSolution::repair_aborted).
  // <= 0 picks the measured default of 4 * rows + 1000.
  int64_t warm_repair_pivot_cap = 0;

  // Refactorization triggers (there is no fixed iteration cadence):
  // pivots since the last refactorization (this also bounds the staleness
  // of the incrementally-maintained reduced costs — keep it <= a few
  // hundred). The LU basis treats the count as a safety net only: its cap
  // is raised 4x and measured fill growth governs instead.
  int refactor_max_updates = 100;
  // ...update-file nonzeros versus the fresh factorization...
  double refactor_growth = 8.0;
  // ...and numerical drift: every `drift_check_interval` iterations the
  // residual |b - A x| is measured and a breach of `drift_tol`
  // (relative to 1 + |b|_inf) forces a refactorization.
  int drift_check_interval = 64;
  double drift_tol = 1e-6;

  // Presolve before cold solves (never applied to warm starts).
  bool presolve = true;

  // When a warm-started dual simplex concludes "primal infeasible",
  // re-derive the verdict with a cold phase-1 solve. Costs extra work on
  // infeasible nodes but makes branch & bound pruning immune to a stale
  // warm basis.
  bool confirm_warm_infeasible = true;

  // Deterministic multiplicative cost perturbation (~1e-9 relative) that
  // breaks the massive dual degeneracy of uniform-cost objectives like
  // O-UMP. The reported objective and duals use the exact costs.
  bool perturb_costs = true;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kNumericalFailure;
  // Objective in the model's own sense; meaningful when status == kOptimal.
  double objective = 0.0;
  // Structural variable values.
  std::vector<double> x;
  // Row duals of the internal minimization; negated for maximize models so
  // they price the *original* objective.
  std::vector<double> duals;
  // Optimal basis (structural + slack variables), usable as a warm-start
  // hint for a re-solve after bound changes. Populated when kOptimal.
  Basis basis;
  int64_t iterations = 0;
  // Dual-simplex pivots spent restoring a warm basis (subset of the work;
  // also counted in `iterations`).
  int64_t dual_iterations = 0;
  int refactorizations = 0;
  // Singular refactorizations repaired in place (dependent columns swapped
  // for row slacks) instead of aborting the solve.
  int basis_repairs = 0;
  // Whether this solve ran from a warm basis (no phase 1).
  bool warm_started = false;
  // The warm-start dual repair exceeded warm_repair_pivot_cap and the
  // solver fell back to a cold solve (whose effort is included above).
  bool repair_aborted = false;
  // Peak nonzeros one FTRAN/BTRAN traversed (factors + update file) across
  // the solve — the fill the kernel work is proportional to.
  size_t factor_nnz = 0;
  // Longest run of basis updates between consecutive refactorizations —
  // how far apart the update scheme pushes them.
  int max_update_run = 0;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {});

  // Solves the LP relaxation of `model` (integrality flags ignored).
  // The model must already be Validate()d.
  LpSolution Solve(const LpModel& model) const;

  // Same, warm-starting from `hint` — a basis of a structurally identical
  // model (same variables and rows; bounds and rhs may differ). Falls back
  // to a cold solve when the hint is empty, stale, or singular.
  LpSolution Solve(const LpModel& model, const Basis* hint) const;

 private:
  SimplexOptions options_;
};

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_SIMPLEX_H_
