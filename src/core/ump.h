// The unified utility-maximizing-problem (UMP) interface.
//
// The paper frames O-UMP (§5.1), F-UMP (§5.2) and D-UMP (§5.3) as one
// family of programs over the same DP constraint matrix (Equation 4):
// only the objective differs; the feasible region {Wx <= B·1, x >= 0} is
// shared, and the coefficients of W depend only on the (preprocessed) log —
// never on (ε, δ). A UmpProblem captures that structure:
//
//   * it is bound to one preprocessed log and one shared DpConstraintSystem
//     whose rows are built once and reused by every solve;
//   * its LP / BIP model is built once and cached; a new query rebinds only
//     the right-hand sides and bounds (the privacy budget B, and for F-UMP
//     the output size |O| — the F-UMP LP here is formulated with scaled
//     deviation variables y'_f = |O|·y_f precisely so that |O| never
//     appears in a coefficient);
//   * Solve() accepts an optional WarmStartHint (the optimal basis of a
//     previous solve of the same problem) and returns the new optimal basis
//     in the solution. O-UMP's region at budget B is B times the unit
//     region, so a hinted O-UMP request scales the last simplex optimum and
//     re-rounds without the simplex (unhinted and cap_counts_at_input ones
//     run the simplex and refresh that optimum); F-UMP ignores hints, solves
//     cold; D-UMP warm-starts its root LP from the hint (dual simplex);
//   * every objective reports the same UmpStats block.
//
// SanitizerSession (core/session.h) owns the shared state and the
// basis-chaining policy. A caller holding an already-preprocessed log
// builds the rows once (DpConstraintSystem::BuildRows), makes one problem
// per objective with the factories below, and calls Solve per query.
#ifndef PRIVSAN_CORE_UMP_H_
#define PRIVSAN_CORE_UMP_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/constraints.h"
#include "core/privacy_params.h"
#include "log/search_log.h"
#include "lp/branch_and_bound.h"
#include "lp/simplex.h"
#include "util/concurrency_check.h"
#include "util/result.h"

namespace privsan {

enum class UtilityObjective {
  kOutputSize,     // O-UMP (§5.1): maximize |O|
  kFrequentPairs,  // F-UMP (§5.2): preserve frequent-pair supports
  kDiversity,      // D-UMP (§5.3): maximize distinct retained pairs
};

const char* UtilityObjectiveToString(UtilityObjective objective);

enum class DumpSolverKind {
  kSpe,             // Algorithm 2 (paper's heuristic)
  kGreedy,          // constructive greedy (lp/bip_heuristics.h)
  kLpRounding,      // LP relaxation + rounding (feaspump stand-in)
  kBranchAndBound,  // budgeted exact solver (bintprog/scip/qsopt_ex stand-in)
};

const char* DumpSolverKindToString(DumpSolverKind kind);

// Structural (model-shaping) parameters, fixed for the lifetime of one
// UmpProblem instance. Everything that can change between Solve() calls
// without invalidating a warm-start basis lives in UmpQuery instead.

// O-UMP, the Output-size Utility-Maximizing Problem (§5.1):
//
//   max  sum_ij x_ij
//   s.t. for every user log A_k:  sum_{(i,j) in A_k} x_ij log t_ijk <= B
//        x_ij >= 0 integer,       B = min{ε, log(1/(1−δ))}
//
// solved by linear relaxation, then rounded (⌊x*⌋ still satisfies Mx <= b
// because M, b >= 0). The optimal value λ = sum ⌊x*_ij⌋ is the maximum
// output size used throughout the paper's evaluation (Table 4) and the
// default |O| of F-UMP.
struct OumpSpec {
  // Optional ablation (not in the paper): additionally require
  // x_ij <= c_ij, i.e. never emit a pair more often than the input saw it.
  bool cap_counts_at_input = false;
};

struct FumpSpec {
  // Minimum support s; a pair is frequent iff c_ij / |D| >= s. The frequent
  // set shapes the model (one deviation variable + two rows per frequent
  // pair), so s is structural.
  double min_support = 1.0 / 500;
  // Realize the paper's empirical "Precision = 1" finding structurally:
  // infrequent pairs get the upper bound ⌈s|O|⌉ − 1 in the LP (no pair can
  // become frequent in the output that was not frequent in the input), and
  // after rounding any infrequent count still at/over the threshold of the
  // realized size is clamped below it. The objective never involves
  // infrequent pairs, so their caps do not change the optimal support
  // distances; if the capped LP is infeasible the solver falls back to the
  // uncapped formulation (UmpSolution::used_precision_caps = false).
  bool enforce_precision = true;
};

struct DumpSpec {
  DumpSolverKind solver = DumpSolverKind::kSpe;
  lp::BnbOptions bnb = {};  // used by kBranchAndBound
  // Integer presolve: a DP entry w_j = log t_ijk with w_j > B makes
  // y_j = 1 infeasible on its own, so the *integer* y_j is fixed to 0
  // before branch & bound even though the LP relaxation cannot see it.
  bool integer_presolve = true;
};

// Per-solve parameters. Only right-hand sides and variable bounds of the
// cached model depend on a query, so any previous basis of the same
// UmpProblem stays a valid warm-start hint across queries.
struct UmpQuery {
  PrivacyParams privacy;
  // F-UMP only: the fixed output size |O| in (0, λ]. Must be > 0 there
  // (SanitizerSession resolves 0 to λ by solving its cached O-UMP first).
  uint64_t output_size = 0;
  // D-UMP only: overrides DumpSpec::solver for this query.
  std::optional<DumpSolverKind> solver = std::nullopt;
};

// A warm-start hint: the optimal basis of a previous Solve() of the same
// UmpProblem instance (or of a structurally identical one — same log, same
// spec). Stale or singular hints cost a fallback cold solve, never a wrong
// answer.
struct WarmStartHint {
  lp::Basis basis;
  bool empty() const { return basis.empty(); }
};

// Uniform solver effort block, comparable across objectives.
struct UmpStats {
  int64_t simplex_iterations = 0;    // primal + dual pivots, all LP solves
  int64_t dual_iterations = 0;       // dual pivots (warm-start restores)
  int refactorizations = 0;
  // Singular refactorizations repaired in place (dependent columns swapped
  // for row slacks) instead of failing over to a cold solve.
  int basis_repairs = 0;
  // Warm solves whose dual repair exceeded the configured pivot cap
  // (SimplexOptions::warm_repair_pivot_cap) and fell back to a cold solve
  // — the serve path's "this append was too large to repair" signal.
  int64_t repair_aborted = 0;
  int64_t nodes_explored = 0;        // branch & bound only
  int64_t warm_solves = 0;           // LP solves that ran from a warm basis
  bool warm_started = false;         // the main/root LP ran from the hint
  // Iterations of the main LP alone (for D-UMP branch & bound: the root
  // relaxation) — the part a cross-cell WarmStartHint shrinks directly.
  int64_t root_iterations = 0;
  int integer_fixed = 0;             // D-UMP presolve: y_j fixed to 0
  // Peak basis-factorization nonzeros any FTRAN/BTRAN traversed (factors +
  // update file) — the fill the simplex kernel's work is proportional to.
  size_t factor_nnz = 0;
  // Longest run of basis updates between refactorizations across all LP
  // solves — how far apart the Forrest–Tomlin scheme pushes them.
  int max_update_run = 0;
  double wall_seconds = 0.0;
};

struct UmpSolution {
  UtilityObjective objective = UtilityObjective::kOutputSize;
  // Rounded optimal counts per PairId, feasible for the DP rows.
  std::vector<uint64_t> x;
  // The LP-relaxed optimum (for D-UMP: the 0/1 counts themselves).
  std::vector<double> x_relaxed;
  // The objective in the problem's own units: relaxed λ (O-UMP), minimal
  // support-distance sum (F-UMP), retained pairs (D-UMP).
  double objective_value = 0.0;
  // sum of x — λ for O-UMP, the realized output size for F-UMP, the number
  // of retained pairs for D-UMP.
  uint64_t output_size = 0;
  // Optimal basis for warm-starting the next solve (empty for the LP-free
  // D-UMP heuristics).
  lp::Basis basis;
  UmpStats stats;

  // Objective-specific extras.
  std::vector<PairId> frequent_pairs;  // F-UMP: the input's frequent set S0
  bool used_precision_caps = false;    // F-UMP
  bool proven_optimal = false;         // D-UMP branch & bound
};

// A utility-maximizing problem bound to one preprocessed log. Instances are
// created by the factories below; `log` and `system` must outlive the
// problem. The shared `system`'s budget is rebound on every Solve, so one
// DpConstraintSystem can back several problems (as SanitizerSession does).
//
// Thread-compatibility contract: a UmpProblem mutates its cached model (and
// the shared system's budget) in place, so concurrent Solve calls on one
// instance — or on two instances sharing a DpConstraintSystem — are data
// races. Serialize access (debug builds assert overlapping calls), or go
// through serve::SanitizerService, the only concurrency-safe entry point.
class UmpProblem {
 public:
  virtual ~UmpProblem() = default;

  virtual UtilityObjective objective() const = 0;
  virtual size_t num_pairs() const = 0;

  // Solves at the query's privacy budget. `hint` (optional) warm-starts
  // from a previous solution's basis.
  Result<UmpSolution> Solve(const UmpQuery& query,
                            const WarmStartHint* hint = nullptr) {
    internal::NonConcurrentScope scope(&checker_);
    return DoSolve(query, hint);
  }

 protected:
  virtual Result<UmpSolution> DoSolve(const UmpQuery& query,
                                      const WarmStartHint* hint) = 0;

 private:
  internal::NonConcurrentChecker checker_;
};

// Factories. `system` must hold the rows of `log` (DpConstraintSystem::
// BuildRows); its budget is rebound per query.
Result<std::unique_ptr<UmpProblem>> MakeOumpProblem(
    const SearchLog& log, DpConstraintSystem* system, OumpSpec spec = {},
    lp::SimplexOptions simplex = {});

Result<std::unique_ptr<UmpProblem>> MakeFumpProblem(
    const SearchLog& log, DpConstraintSystem* system, FumpSpec spec = {},
    lp::SimplexOptions simplex = {});

Result<std::unique_ptr<UmpProblem>> MakeDumpProblem(
    const SearchLog& log, DpConstraintSystem* system, DumpSpec spec = {},
    lp::SimplexOptions simplex = {});

}  // namespace privsan

#endif  // PRIVSAN_CORE_UMP_H_
