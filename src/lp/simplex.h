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
//    after 400 updates, on update-file growth (8x the fresh factors) or on
//    numerical drift (residual breach). A *singular* refactorization no
//    longer forces a cold solve: the dependent columns are swapped for the
//    uncovered rows' slacks and the solve continues.
//  * Pricing (lp/pricing.h): full primal Devex fused with PRICE — after
//    each pivot one pass over the nonbasic columns forms the pivot row
//    alpha_j = A_j^T B^-T e_r, updates the reduced costs and Devex weights,
//    and picks the next entering column (optimality is only declared after
//    a scan of exact reduced costs) — and dual Devex reference weights for
//    the dual phase's leaving-row choice. The Devex references reset at a
//    phase start, at the exact-cost re-checks (optimality, unboundedness)
//    and after a rejected pivot; a scheduled refactorization recomputes
//    the reduced costs exactly but keeps the weights. A run of degenerate
//    pivots switches the primal to Bland's rule, which guarantees
//    termination.
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
//    threads, bit-identical to one serial loop. A primal pivot swaps the
//    statuses first and runs the Forrest–Tomlin update on the calling
//    thread while the helpers start its PRICE pass (the pass never reads
//    the factors); a rejected update undoes the swap and refactorizes.
//
// Warm start: Solve(model, hint) starts from a caller-supplied basis —
// typically the parent node's optimal basis in branch & bound. Bound
// changes are restored dual-simplex style (the parent basis stays dual
// feasible under bound changes), followed by a primal cleanup phase. Stale
// hints fall back to a cold solve; singular hints are repaired in place.
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
  // Combined iteration budget across phases (primal and dual).
  int64_t max_iterations = 500000;

  // Basis representation: sparse LU with Markowitz ordering and
  // Forrest–Tomlin updates (default), or dense inverse (the oracle the LU
  // is tested against; the numerical retry of last resort always uses it).
  enum class BasisKind { kDense, kLu };
  BasisKind basis_kind = BasisKind::kLu;

  // Row/column equilibration (lp/scaling.h): iterative geometric-mean
  // scaling of the constraint matrix into roughly [1/16, 16] with
  // power-of-two factors (exact in floating point), applied inside the
  // solver — costs, bounds, rhs, and the solution are mapped back exactly,
  // and basis hints are scale-invariant, so warm starts are unaffected.
  // Lets the LU's threshold pivoting chase sparsity on badly scaled rows.
  enum class Scaling { kNone, kEquilibrate };
  Scaling scaling = Scaling::kEquilibrate;

  // Pivot budget of the warm-start dual repair phase: a warm basis is
  // near-optimal, so a long dual run signals a stale hint and the solver
  // bails out to a cold solve (reported as SolveStats::repair_aborted).
  // <= 0 picks the measured default of 4 * rows + 1000.
  int64_t warm_repair_pivot_cap = 0;

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

  // Solves the LP relaxation of `model` (integrality flags ignored). The
  // model must already be Validate()d. A non-null `hint` warm-starts from a
  // basis of a structurally identical model (same variables and rows;
  // bounds and rhs may differ); an empty, stale or unrepairable hint falls
  // back to a cold solve.
  LpSolution Solve(const LpModel& model, const Basis* hint = nullptr) const;

 private:
  SimplexOptions options_;
};

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_SIMPLEX_H_
