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
//  * Column passes (lp/column_blocks.h): the per-pivot loops over the
//    columns — the fused PRICE pass, the exact reduced costs, the dual
//    pivot row with its candidate scan, and the dual reduced-cost update —
//    run in fixed column blocks on the calling thread plus shared helper
//    threads, bit-identical to one serial loop.
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
  // bails out to a cold solve (reported as SolveStats::repair_aborted).
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
};

// Solver effort, the one definition of every counter the simplex reports:
// LpSolution, BipSolution, BnbResult, UmpStats and serve::TenantStats all
// carry it unchanged. `+=` is the only merge rule — counts add, the two
// kernel-health peaks take the maximum.
struct SolveStats {
  uint64_t simplex_iterations = 0;  // primal + dual pivots
  // Dual-simplex pivots spent restoring a warm basis (a subset of the
  // above).
  uint64_t dual_iterations = 0;
  uint64_t refactorizations = 0;
  // Singular refactorizations repaired in place (dependent columns swapped
  // for row slacks) instead of aborting the solve.
  uint64_t basis_repairs = 0;
  uint64_t warm_solves = 0;  // solves answered from a warm basis
  // Warm solves whose dual repair exceeded warm_repair_pivot_cap and fell
  // back to a cold solve (whose effort is counted above).
  uint64_t repair_aborted = 0;
  // Peak nonzeros one FTRAN/BTRAN traversed (factors + update file) — the
  // fill the kernel work is proportional to.
  uint64_t factor_nnz = 0;
  // Longest run of basis updates between consecutive refactorizations —
  // how far apart the update scheme pushes them.
  uint64_t max_update_run = 0;

  SolveStats& operator+=(const SolveStats& other);
};

// Every SolveStats field by name, in wire order, for the codecs and the
// tests that walk them.
struct SolveStatsField {
  const char* name;
  uint64_t SolveStats::* field;
};
inline constexpr SolveStatsField kSolveStatsFields[] = {
    {"simplex_iterations", &SolveStats::simplex_iterations},
    {"dual_iterations", &SolveStats::dual_iterations},
    {"refactorizations", &SolveStats::refactorizations},
    {"basis_repairs", &SolveStats::basis_repairs},
    {"warm_solves", &SolveStats::warm_solves},
    {"repair_aborted", &SolveStats::repair_aborted},
    {"factor_nnz", &SolveStats::factor_nnz},
    {"max_update_run", &SolveStats::max_update_run},
};
static_assert(sizeof(kSolveStatsFields) / sizeof(kSolveStatsFields[0]) *
                      sizeof(uint64_t) ==
                  sizeof(SolveStats),
              "every SolveStats field needs a kSolveStatsFields line");

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
  // The effort of this solve, including a warm attempt that fell back
  // cold. warm_solves is 1 when the answer came from the warm basis (no
  // phase 1), repair_aborted 1 when the warm repair hit its cap.
  SolveStats stats;
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
