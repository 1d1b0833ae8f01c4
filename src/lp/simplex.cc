#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "lp/basis_rep.h"
#include "lp/column_blocks.h"
#include "lp/lu_factorization.h"
#include "lp/presolve.h"
#include "lp/pricing.h"
#include "lp/ratio_test.h"
#include "lp/scaling.h"
#include "lp/sparse_matrix.h"
#include "util/logging.h"

namespace privsan {
namespace lp {

SolveStats& SolveStats::operator+=(const SolveStats& other) {
  simplex_iterations += other.simplex_iterations;
  dual_iterations += other.dual_iterations;
  refactorizations += other.refactorizations;
  basis_repairs += other.basis_repairs;
  warm_solves += other.warm_solves;
  repair_aborted += other.repair_aborted;
  // Peaks, not sums: the fill and update-run figures compare against the
  // problem size, so the worst solve is the meaningful one.
  factor_nnz = std::max(factor_nnz, other.factor_nnz);
  max_update_run = std::max(max_update_run, other.max_update_run);
  return *this;
}

const char* SolveStatusToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "Optimal";
    case SolveStatus::kInfeasible:
      return "Infeasible";
    case SolveStatus::kUnbounded:
      return "Unbounded";
    case SolveStatus::kIterationLimit:
      return "IterationLimit";
    case SolveStatus::kNumericalFailure:
      return "NumericalFailure";
  }
  return "?";
}

namespace {

constexpr VarStatus kBasic = VarStatus::kBasic;
constexpr VarStatus kAtLower = VarStatus::kAtLower;
constexpr VarStatus kAtUpper = VarStatus::kAtUpper;
constexpr VarStatus kFree = VarStatus::kFree;

// Ratio-test pivots below this are considered numerically unstable: when
// the tie-break window offers nothing larger, the solver refactorizes and
// re-prices instead of pivoting (a "pivot" that is pure factorization
// noise silently makes the basis singular).
constexpr double kStablePivotTol = 1e-7;
// Phase-1 objective above this value means infeasible.
constexpr double kFeasibilityTol = 1e-6;
// Repair-and-refactorize attempts per factorization before giving up
// (each attempt can expose further dependencies).
constexpr int kMaxBasisRepairs = 3;
// Refactorization triggers besides the update count (there is no fixed
// iteration cadence): the LU's update-file nonzeros versus the fresh
// factorization, and numerical drift — every kDriftCheckInterval
// iterations the residual |b - A x| is measured and a breach of kDriftTol
// (relative to 1 + |b|_inf) forces a refactorization.
constexpr double kRefactorGrowth = 8.0;
constexpr int kDriftCheckInterval = 64;
constexpr double kDriftTol = 1e-6;

// The settings the numerical retry changes (it also switches to the dense
// basis).
struct Attempt {
  // Pivots since the last refactorization; this also bounds the staleness
  // of the incrementally maintained reduced costs. The LU treats it as a
  // safety net only: its cap is raised 4x and measured fill growth governs.
  int max_updates;
  // Degenerate pivots in a row before switching to Bland's rule.
  int bland_after;
  // Pivot magnitude at or below which a primal ratio-test row is skipped
  // and a basis update refused.
  double pivot_tol;
};
constexpr Attempt kFirstAttempt{100, 64, kPivotTol};
// The retry of last resort: aggressive refactorization, early Bland,
// larger pivots.
constexpr Attempt kRetryAttempt{20, 8, 1e-8};

// All mutable solver state for one Solve() call.
struct Work {
  int m = 0;        // rows
  int n_total = 0;  // structural + slacks + artificials
  int n_struct = 0;
  int artificial_begin = 0;  // first artificial index (== n_total if none)

  SparseMatrix cols;           // m x n_total
  std::vector<double> lb, ub;  // per variable
  std::vector<double> cost;    // phase-2 minimization costs (exact)
  std::vector<double> rhs;     // row right-hand sides
  double rhs_scale = 1.0;      // 1 + |rhs|_inf, for drift tolerances

  std::vector<double> x;          // current value of every variable
  std::vector<int> basis;         // slot -> basic variable
  std::vector<VarStatus> state;   // variable -> status
  std::unique_ptr<BasisRep> rep;  // basis factorization

  // Equilibration factors when the options asked for them and the matrix
  // needed them (row empty otherwise); the solve runs scaled,
  // BuildSolution maps back.
  ScalingFactors scaling;

  SolveStats stats;
};

// The update file is largest right before a refactorization wipes it, so
// sampling there (and once more at the end of the solve) captures both the
// peak traversal cost and the longest update run.
void SampleRepStats(Work& w) {
  if (w.rep == nullptr) return;
  w.stats.max_update_run =
      std::max(w.stats.max_update_run,
               static_cast<uint64_t>(w.rep->updates_since_refactor()));
  w.stats.factor_nnz =
      std::max(w.stats.factor_nnz, static_cast<uint64_t>(w.rep->nonzeros()));
}

enum class PhaseStatus { kOptimal, kUnbounded, kIterationLimit, kSingular };
enum class DualStatus {
  kOptimal,  // primal feasibility restored
  kPrimalInfeasible,
  kIterationLimit,
  kRepairAborted,  // warm_repair_pivot_cap exhausted (stale hint)
  kSingular,
};

std::unique_ptr<BasisRep> MakeBasisRep(SimplexOptions::BasisKind kind,
                                       const Attempt& attempt) {
  if (kind == SimplexOptions::BasisKind::kDense) {
    return std::make_unique<DenseBasis>(attempt.max_updates);
  }
  // Forrest–Tomlin keeps U's fill near the data's, so the pivot-count cap
  // stops being the binding trigger: raise it 4x and let the measured
  // nonzero growth (ShouldRefactor) govern.
  return std::make_unique<LuFactorization>(4 * attempt.max_updates,
                                           kRefactorGrowth);
}

// x_B -= step * v over the nonzeros of an FTRAN image v (slot-indexed).
void StepBasics(Work& w, const std::vector<double>& v, double step) {
  for (int i = 0; i < w.m; ++i) {
    if (v[i] != 0.0) w.x[w.basis[i]] -= step * v[i];
  }
}

double InitialNonbasicValue(double lower, double upper, VarStatus& state) {
  if (std::isfinite(lower)) {
    state = kAtLower;
    return lower;
  }
  if (std::isfinite(upper)) {
    state = kAtUpper;
    return upper;
  }
  state = kFree;
  return 0.0;
}

// x_B = B^-1 (rhs - N x_N) with the current factorization.
void RecomputeBasics(Work& w) {
  std::vector<double> effective = w.rhs;
  for (int j = 0; j < w.n_total; ++j) {
    if (w.state[j] == kBasic || w.x[j] == 0.0) continue;
    w.cols.AddColumnTo(j, -w.x[j], effective);
  }
  w.rep->Ftran(effective);
  for (int i = 0; i < w.m; ++i) w.x[w.basis[i]] = effective[i];
}

// Repairs a singular basis in place from the factorization's failure
// report: every dependent column leaves the basis (nonbasic at a usable
// bound) and an uncovered row's slack takes its slot. Returns false when
// the report is unusable (or a needed slack is itself already basic — then
// the dependency is not of the "column duplicates columns" shape this
// repair handles) and the caller should fail over as before.
bool RepairSingularBasis(Work& w) {
  const BasisRep::SingularInfo& info = w.rep->singular_info();
  if (info.empty() ||
      info.dependent_columns.size() != info.unpivoted_rows.size()) {
    return false;
  }
  // Replacement slacks: one uncovered row's slack per dependent column,
  // skipping slacks that are already basic.
  std::vector<int> slacks;
  slacks.reserve(info.unpivoted_rows.size());
  for (int r : info.unpivoted_rows) {
    const int slack = w.n_struct + r;
    if (slack < w.n_total && w.state[slack] != kBasic) slacks.push_back(slack);
  }
  if (slacks.size() < info.dependent_columns.size()) return false;

  // Match each dependent variable to a basis slot (the basis was left
  // unpermuted). A slot is consumed at most once so a report that names
  // the same variable twice — possible only for a corrupt caller-supplied
  // hint holding duplicate columns — still repairs every listed slot.
  std::vector<char> slot_taken(w.m, 0);
  for (size_t k = 0; k < info.dependent_columns.size(); ++k) {
    const int dropped = info.dependent_columns[k];
    int slot = -1;
    for (int i = 0; i < w.m; ++i) {
      if (!slot_taken[i] && w.basis[i] == dropped) {
        slot = i;
        break;
      }
    }
    if (slot < 0) return false;  // defensive; report names a nonbasic var
    slot_taken[slot] = 1;
    const int slack = slacks[k];
    w.basis[slot] = slack;
    w.state[slack] = kBasic;
    w.x[dropped] = InitialNonbasicValue(w.lb[dropped], w.ub[dropped],
                                        w.state[dropped]);
  }
  return true;
}

// Refactorizes the current basis and recomputes the basic values from the
// nonbasic ones. A singular basis is repaired in place (dependent columns
// swapped for row slacks); returns false only when the basis stays
// numerically singular after kMaxBasisRepairs repairs.
bool FactorizeAndRecompute(Work& w) {
  SampleRepStats(w);
  for (int attempt = 0;; ++attempt) {
    if (w.rep->Refactorize(w.cols, w.basis)) {
      ++w.stats.refactorizations;
      RecomputeBasics(w);
      return true;
    }
    if (attempt >= kMaxBasisRepairs || !RepairSingularBasis(w)) {
      return false;
    }
    ++w.stats.basis_repairs;
  }
}

// |rhs - A x|_inf over every variable — the drift monitor. The incremental
// x updates accumulate error; a breach forces a refactorization.
double ResidualInfNorm(const Work& w) {
  std::vector<double> res = w.rhs;
  for (int j = 0; j < w.n_total; ++j) {
    if (w.x[j] != 0.0) w.cols.AddColumnTo(j, -w.x[j], res);
  }
  double norm = 0.0;
  for (double v : res) norm = std::max(norm, std::abs(v));
  return norm;
}

enum class RefactorCheck { kNone, kDone, kSingular };

// The shared refactorization policy of both simplex phases: refactorize on
// update-file growth or on numerical drift (residual breach, checked every
// kDriftCheckInterval iterations) — never on a fixed cadence. Callers must
// refresh their maintained reduced costs on kDone.
RefactorCheck MaybeRefactor(Work& w, int& drift_countdown) {
  bool need = w.rep->ShouldRefactor();
  if (!need && --drift_countdown <= 0) {
    drift_countdown = kDriftCheckInterval;
    if (ResidualInfNorm(w) > kDriftTol * w.rhs_scale) need = true;
  }
  if (!need) return RefactorCheck::kNone;
  return FactorizeAndRecompute(w) ? RefactorCheck::kDone
                                  : RefactorCheck::kSingular;
}

// Exact reduced costs of every variable against the current basis:
// d = cost - A^T B^-T c_B (zero for basics). Shared by the primal phase,
// the dual phase, and the warm-start dual-feasibility repair.
void ComputeReducedCosts(const Work& w, const std::vector<double>& cost,
                         std::vector<double>& d) {
  std::vector<double> y(w.m);
  for (int i = 0; i < w.m; ++i) y[i] = cost[w.basis[i]];
  w.rep->Btran(y);
  d.resize(w.n_total);
  ForEachColumnBlock(w.n_total, [&](int, int begin, int end) {
    for (int j = begin; j < end; ++j) {
      d[j] = w.state[j] == kBasic ? 0.0 : cost[j] - w.cols.ColumnDot(j, y);
    }
  });
}

// rho = B^-T e_slot: the BTRAN half of the pivot row alpha = rho^T A. Both
// phases form alpha_j = A_j^T rho column by column over the nonbasic
// columns (rho is dense on the UMP bases).
void ComputeRho(const Work& w, int slot, std::vector<double>& rho) {
  std::fill(rho.begin(), rho.end(), 0.0);
  rho[slot] = 1.0;
  w.rep->Btran(rho);
}

// One simplex phase: minimize `cost` over the current basis until optimal.
// In phase 1 `cost` is 1 on artificials; unboundedness there indicates a
// numerical problem and is reported as kSingular. The pricing and ratio
// test live in lp/pricing.h and lp/ratio_test.h; this loop owns the state
// updates, the reduced-cost maintenance, and the refactorization policy.
PhaseStatus RunPhase(Work& w, const std::vector<double>& cost, bool phase1,
                     const SimplexOptions& options, const Attempt& attempt) {
  const int m = w.m;
  const double kInf = std::numeric_limits<double>::infinity();

  std::vector<double> direction(m);
  std::vector<double> rho(m);
  // Reduced costs are maintained incrementally across pivots (the classic
  // d'_j = d_j - (d_q / alpha_q) alpha_j update, fused with the Devex
  // weight update and pricing into one pass over the pivot row) and
  // recomputed exactly at refactorizations and before optimality is
  // declared.
  std::vector<double> d(w.n_total);
  PrimalPricer pricer(w.n_total);
  // The fused pass's pick for the next iteration; dropped whenever d, the
  // weights or a status change outside that pass.
  std::optional<PrimalPricer::Choice> priced;
  int stall = 0;
  bool bland = false;
  int update_failures = 0;
  int drift_countdown = kDriftCheckInterval;

  const PricingView view{d, w.state, w.lb, w.ub};

  // Exact reduced costs and a fresh Devex reference framework: at the phase
  // start, at the exact-cost re-checks and after a rejected pivot.
  auto refresh_reduced = [&]() {
    ComputeReducedCosts(w, cost, d);
    pricer.ResetReference();
    priced.reset();
  };
  refresh_reduced();

  auto factorize = [&]() {
    if (!FactorizeAndRecompute(w)) return false;
    refresh_reduced();
    return true;
  };

  while (true) {
    if (static_cast<int64_t>(w.stats.simplex_iterations) >=
        options.max_iterations) {
      return PhaseStatus::kIterationLimit;
    }
    ++w.stats.simplex_iterations;

    switch (MaybeRefactor(w, drift_countdown)) {
      case RefactorCheck::kNone:
        break;
      case RefactorCheck::kDone:
        // New factors of the same basis: exact reduced costs replace the
        // maintained ones, and the Devex weights, which describe the basis
        // rather than its factors, carry on.
        ComputeReducedCosts(w, cost, d);
        priced.reset();
        break;
      case RefactorCheck::kSingular:
        return PhaseStatus::kSingular;
    }

    // Pricing: the previous pivot's fused pass already chose, unless a
    // refresh, a bound flip or a rejected pivot came between (then it was
    // dropped); Bland's rule always scans.
    PrimalPricer::Choice choice =
        priced && !bland ? *priced : pricer.ChooseEntering(view, bland);
    priced.reset();
    if (choice.entering < 0) {
      // The maintained reduced costs say optimal; prove it from exact ones
      // before declaring.
      refresh_reduced();
      choice = pricer.ChooseEntering(view, bland);
      if (choice.entering < 0) return PhaseStatus::kOptimal;
    }
    const int entering = choice.entering;
    const int direction_sign = choice.sign;

    // FTRAN: direction = B^-1 A_entering.
    std::fill(direction.begin(), direction.end(), 0.0);
    for (const SparseEntry& e : w.cols.Column(entering)) {
      direction[e.index] = e.value;
    }
    w.rep->Ftran(direction);

    // How far the entering variable can move before hitting its own bound
    // in the travel direction (finite even for a free-state variable with
    // finite bounds — presolve postsolve can produce those).
    const double entering_bound = direction_sign > 0
                                      ? w.ub[entering]
                                      : w.lb[entering];
    const double bound_flip_t =
        std::isfinite(entering_bound)
            ? std::abs(entering_bound - w.x[entering])
            : kInf;
    const PrimalRatioChoice ratio =
        PrimalRatioTest(direction, direction_sign, bound_flip_t, w.basis,
                        w.x, w.lb, w.ub, bland, attempt.pivot_tol);

    if (ratio.unbounded) {
      if (phase1) return PhaseStatus::kSingular;
      // Unboundedness was derived from the maintained reduced costs;
      // re-verify against exact ones before declaring (a stale entering
      // choice plus an unblocked direction must not abort the solve).
      refresh_reduced();
      int sign = 0;
      if (PriceColumn(view, entering, sign) > 0.0 && sign == direction_sign) {
        return PhaseStatus::kUnbounded;
      }
      continue;  // maintained d was stale; re-price
    }
    const int leaving_row = ratio.leaving_row;
    const double best_t = ratio.step;

    // An unstable pivot right after a refactorization is as good as the
    // arithmetic gets; otherwise refactorize and re-price — tiny window
    // pivots are usually update-file noise, and treating noise as a pivot
    // corrupts the basis (it becomes singular in exact arithmetic).
    if (leaving_row >= 0 &&
        std::abs(direction[leaving_row]) < kStablePivotTol &&
        w.rep->updates_since_refactor() > 0) {
      if (!factorize()) return PhaseStatus::kSingular;
      continue;
    }

    // Degeneracy bookkeeping; switch to Bland's rule on a long stall.
    if (best_t <= 1e-10) {
      if (++stall >= attempt.bland_after) bland = true;
    } else {
      stall = 0;
      bland = false;
    }

    const double step = direction_sign * best_t;
    if (leaving_row < 0) {
      // Bound flip: entering travels to its own bound; basis and reduced
      // costs unchanged.
      StepBasics(w, direction, step);
      w.x[entering] = entering_bound;
      w.state[entering] = direction_sign > 0 ? kAtUpper : kAtLower;
      continue;
    }

    // BTRAN against the basis the pivot row belongs to, before the update
    // replaces it.
    ComputeRho(w, leaving_row, rho);

    // Swap the statuses, then run the Forrest–Tomlin update on this thread
    // while the helpers run the fused PRICE pass: the pass reads rho, A, d,
    // the weights and the statuses, the update only the factors. x and the
    // basis move only once the update is accepted.
    const int leaving_var = w.basis[leaving_row];
    const VarStatus entering_state = w.state[entering];
    w.state[leaving_var] = ratio.leaving_at_upper ? kAtUpper : kAtLower;
    w.state[entering] = kBasic;
    bool updated = false;
    auto update = [&] {
      updated = w.rep->Update(direction, leaving_row, attempt.pivot_tol);
    };
    priced = pricer.PriceAfterPivot(w.cols, rho, view, entering, leaving_var,
                                    direction[leaving_row], CallerTask(update));
    if (!updated) {
      // Undo the swap and refactorize; the refresh that follows replaces
      // what the pass wrote to d and the weights.
      w.state[entering] = entering_state;
      w.state[leaving_var] = kBasic;
      if (++update_failures > 3 || !factorize()) {
        return PhaseStatus::kSingular;
      }
      continue;  // re-price against the fresh factorization
    }
    update_failures = 0;

    StepBasics(w, direction, step);
    w.x[entering] += step;
    // Snap the leaving variable exactly onto the bound it reached.
    w.x[leaving_var] =
        ratio.leaving_at_upper ? w.ub[leaving_var] : w.lb[leaving_var];
    w.basis[leaving_row] = entering;
  }
}

// Bounded-variable dual simplex: restores primal feasibility of a dual
// feasible basis after bound changes (the warm-start workhorse — a child
// node's bound tightening leaves the parent's reduced costs intact, so the
// parent basis is dual feasible for the child). Maintains dual feasibility
// by a min-ratio test; "no eligible entering column" is a Farkas
// certificate of primal infeasibility. The leaving row is picked by
// DualPricer (dual Devex); the entering column and the bound flips by
// DualRatioTest. Only warm starts run it, so it always runs on the first
// attempt's settings.
DualStatus RunDualPhase(Work& w, const std::vector<double>& cost,
                        const SimplexOptions& options) {
  const int m = w.m;
  // A warm basis is near-optimal; long dual runs signal a stale hint.
  // (Measured: completing the repair of a basis remapped across a large
  // AppendUsers costs more pivots than a fresh cold solve, so bailing out
  // here is the right call there too — small appends repair well within
  // this budget.)
  const int64_t budget = options.warm_repair_pivot_cap > 0
                             ? options.warm_repair_pivot_cap
                             : 4 * static_cast<int64_t>(m) + 1000;
  std::vector<double> rho(m), direction(m), flip_delta(m);
  // The pivot row over the nonbasic columns (0 on basic ones).
  std::vector<double> alpha(w.n_total);
  // The ratio test's entering candidates. Block b scans into the front of
  // its own columns' range of `scanned` and counts them in found[b], so the
  // scan allocates nothing; the merge packs them in block order.
  std::vector<DualCandidate> scanned(w.n_total);
  std::vector<int> found(ColumnBlockCount(w.n_total));
  std::vector<DualCandidate> candidates;
  // Reduced costs, maintained incrementally across pivots off the same
  // alpha row that drives the ratio test; recomputed at refactorizations.
  std::vector<double> d(w.n_total);
  DualPricer pricer(w.n_total);
  int update_failures = 0;

  // Exact reduced costs and a fresh Devex reference framework: at the phase
  // start and after a rejected pivot.
  auto refresh_reduced = [&]() {
    ComputeReducedCosts(w, cost, d);
    pricer.ResetReference();
  };
  refresh_reduced();

  auto factorize = [&]() {
    if (!FactorizeAndRecompute(w)) return false;
    refresh_reduced();
    return true;
  };
  int drift_countdown = kDriftCheckInterval;

  for (int64_t iter = 0; iter < budget; ++iter) {
    if (static_cast<int64_t>(w.stats.simplex_iterations) >=
        options.max_iterations) {
      return DualStatus::kIterationLimit;
    }

    // ChooseLeaving reads the incrementally-updated x, so drifted basics
    // would silently mis-drive the leaving choice and the final "primal
    // feasible" verdict.
    switch (MaybeRefactor(w, drift_countdown)) {
      case RefactorCheck::kNone:
        break;
      case RefactorCheck::kDone:
        // As in the primal phase: the weights follow their variables
        // through the refactorization's slot permutation.
        ComputeReducedCosts(w, cost, d);
        break;
      case RefactorCheck::kSingular:
        return DualStatus::kSingular;
    }

    const DualPricer::Leaving leaving =
        pricer.ChooseLeaving(w.x, w.basis, w.lb, w.ub);
    if (leaving.slot < 0) return DualStatus::kOptimal;
    const int leaving_slot = leaving.slot;
    const bool below = leaving.below;

    ++w.stats.simplex_iterations;
    ++w.stats.dual_iterations;

    // The pivot row: feeds eligibility, the ratio test, and the
    // reduced-cost update. Each block scans its columns for entering
    // candidates right after forming their alpha.
    ComputeRho(w, leaving_slot, rho);
    ForEachColumnBlock(w.n_total, [&](int block, int begin, int end) {
      for (int j = begin; j < end; ++j) {
        alpha[j] = w.state[j] == kBasic ? 0.0 : w.cols.ColumnDot(j, rho);
      }
      found[block] =
          ScanDualCandidates(begin, end, alpha, d, w.state, w.lb, w.ub, below,
                             std::span(scanned).subspan(begin));
    });
    candidates.clear();
    for (size_t b = 0; b < found.size(); ++b) {
      const auto first = scanned.begin() + b * kColumnBlockSize;
      candidates.insert(candidates.end(), first, first + found[b]);
    }

    const DualRatioChoice ratio = DualRatioTest(candidates, w.state, w.lb,
                                                w.ub, leaving.violation);
    if (ratio.entering < 0) return DualStatus::kPrimalInfeasible;
    const int entering = ratio.entering;

    // FTRAN the entering column and validate its pivot BEFORE applying
    // the queued flips: a rejected pivot must leave the point untouched —
    // stranded flips without the matching dual step would silently break
    // dual feasibility (flipped columns would sit on the wrong side of
    // their reduced cost).
    std::fill(direction.begin(), direction.end(), 0.0);
    for (const SparseEntry& e : w.cols.Column(entering)) {
      direction[e.index] = e.value;
    }
    w.rep->Ftran(direction);
    const double pivot = direction[leaving_slot];
    if (std::abs(pivot) <= kFirstAttempt.pivot_tol ||
        (std::abs(pivot) < kStablePivotTol &&
         w.rep->updates_since_refactor() > 0)) {
      if (++update_failures > 3 || !factorize()) {
        return DualStatus::kSingular;
      }
      continue;
    }

    if (!ratio.bound_flips.empty()) {
      // Apply all queued flips with a single combined FTRAN. Flips do not
      // change the basis, so `direction` above stays valid.
      std::fill(flip_delta.begin(), flip_delta.end(), 0.0);
      for (int j : ratio.bound_flips) {
        const double delta =
            w.state[j] == kAtLower ? w.ub[j] - w.lb[j] : w.lb[j] - w.ub[j];
        for (const SparseEntry& e : w.cols.Column(j)) {
          flip_delta[e.index] += e.value * delta;
        }
        w.x[j] += delta;
        w.state[j] = w.state[j] == kAtLower ? kAtUpper : kAtLower;
      }
      w.rep->Ftran(flip_delta);
      StepBasics(w, flip_delta, 1.0);
    }

    const int leaving_var = w.basis[leaving_slot];
    const double target = below ? w.lb[leaving_var] : w.ub[leaving_var];
    const double dt = (w.x[leaving_var] - target) / pivot;

    if (!w.rep->Update(direction, leaving_slot, kFirstAttempt.pivot_tol)) {
      if (++update_failures > 3 || !factorize()) {
        return DualStatus::kSingular;
      }
      continue;
    }
    update_failures = 0;

    // Dual Devex weights ride the same FTRAN column the pivot consumes.
    pricer.OnPivot(direction, leaving_slot, w.basis, entering);

    StepBasics(w, direction, dt);
    w.x[entering] += dt;
    w.x[leaving_var] = target;
    w.state[leaving_var] = below ? kAtLower : kAtUpper;
    w.basis[leaving_slot] = entering;
    w.state[entering] = kBasic;

    // Reduced-cost update along the alpha row (dual step theta keeps every
    // d on its feasible side by the min-ratio choice above).
    const double theta_d = d[entering] / pivot;
    ForEachColumnBlock(w.n_total, [&](int, int begin, int end) {
      for (int j = begin; j < end; ++j) {
        if (w.state[j] != kBasic) d[j] -= theta_d * alpha[j];
      }
    });
    d[leaving_var] = -theta_d;
    d[entering] = 0.0;
  }
  return DualStatus::kRepairAborted;
}

// Deterministic hash-based uniform in [0, 1) for cost perturbation.
double PerturbationUnit(uint64_t j) {
  uint64_t z = (j + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

// Applies the deterministic ~1e-9 relative anti-degeneracy perturbation.
// Warm and cold solves must use the *same* formula: warm starts assume the
// parent's (perturbed) reduced costs stay dual feasible for the child.
void PerturbCosts(std::vector<double>& cost) {
  for (size_t j = 0; j < cost.size(); ++j) {
    if (cost[j] != 0.0) {
      cost[j] *= 1.0 + 1e-9 * PerturbationUnit(j);
    }
  }
}

// Bounds, costs, rhs and the structural+slack triplets shared by cold and
// warm solves. Leaves state/x/basis untouched.
void SetupVarsAndSlacks(const LpModel& model, bool maximize, Work& w,
                        std::vector<Triplet>& triplets) {
  const double kInf = std::numeric_limits<double>::infinity();
  const int m = model.num_constraints();
  const int n_struct = model.num_variables();

  w.m = m;
  w.n_struct = n_struct;
  w.lb.reserve(n_struct + m);
  w.ub.reserve(n_struct + m);
  w.cost.reserve(n_struct + m);
  for (int j = 0; j < n_struct; ++j) {
    const Variable& v = model.variable(j);
    w.lb.push_back(v.lower);
    w.ub.push_back(v.upper);
    w.cost.push_back(maximize ? -v.objective : v.objective);
  }
  for (int r = 0; r < m; ++r) {
    switch (model.constraint(r).sense) {
      case ConstraintSense::kLessEqual:
        w.lb.push_back(0.0);
        w.ub.push_back(kInf);
        break;
      case ConstraintSense::kGreaterEqual:
        w.lb.push_back(-kInf);
        w.ub.push_back(0.0);
        break;
      case ConstraintSense::kEqual:
        w.lb.push_back(0.0);
        w.ub.push_back(0.0);
        break;
    }
    w.cost.push_back(0.0);
  }

  w.rhs.resize(m);
  w.rhs_scale = 1.0;
  for (int r = 0; r < m; ++r) {
    w.rhs[r] = model.constraint(r).rhs;
    w.rhs_scale = std::max(w.rhs_scale, 1.0 + std::abs(w.rhs[r]));
  }

  for (int r = 0; r < m; ++r) {
    for (const Coefficient& e : model.constraint(r).entries) {
      if (e.value != 0.0) triplets.push_back(Triplet{r, e.variable, e.value});
    }
  }
  for (int r = 0; r < m; ++r) {
    triplets.push_back(Triplet{r, n_struct + r, 1.0});
  }
}

// Equilibrates the assembled solve data in place when the options ask for
// it and the matrix needs it (triplets still hold the structural + slack
// columns; artificials, added later in the cold path, live in the
// already-scaled space). Equilibration and warm starts compose
// transparently: the factors depend only on the (identical) matrix
// coefficients, and a hint holds only scale-invariant statuses. Column j
// of the scaled system is C_j * original; slack columns take C = 1/R_r,
// which keeps their coefficient exactly 1.0 and their bound signs intact.
// Bounds divide by C, costs and rhs multiply — all by powers of two, so
// every transform is exact and BuildSolution's inverse mapping reproduces
// the unscaled numbers bit for bit.
void Equilibrate(const SimplexOptions& options, Work& w,
                 std::vector<Triplet>& triplets) {
  if (options.scaling != SimplexOptions::Scaling::kEquilibrate) return;
  w.scaling = ComputeEquilibration(w.m, w.n_struct, triplets);
  if (!w.scaling.any) {
    w.scaling = ScalingFactors{};  // all-ones; skip the back-mapping
    return;
  }
  const ScalingFactors& s = w.scaling;
  auto col_scale = [&](int j) {
    return j < w.n_struct ? s.col[j] : 1.0 / s.row[j - w.n_struct];
  };
  for (Triplet& t : triplets) {
    t.value *= s.row[t.row] * col_scale(t.col);
  }
  const int nb = w.n_struct + w.m;
  for (int j = 0; j < nb; ++j) {
    const double c = col_scale(j);
    // +-inf and 0 divide exactly; finite bounds divide by a power of two.
    w.lb[j] /= c;
    w.ub[j] /= c;
    w.cost[j] *= c;
  }
  w.rhs_scale = 1.0;
  for (int r = 0; r < w.m; ++r) {
    w.rhs[r] *= s.row[r];
    w.rhs_scale = std::max(w.rhs_scale, 1.0 + std::abs(w.rhs[r]));
  }
}

// The optimal basis over structural + slack variables. Degenerate basic
// artificials are swapped for their row's slack so the snapshot is usable
// as a warm-start hint.
Basis ExportBasis(const Work& w) {
  Basis basis;
  const int nb = w.n_struct + w.m;
  basis.state.assign(w.state.begin(), w.state.begin() + nb);
  basis.basic.reserve(w.m);
  for (int i = 0; i < w.m; ++i) {
    int v = w.basis[i];
    if (v >= nb) {
      const auto column = w.cols.Column(v);
      const int slack = w.n_struct + column.front().index;
      if (basis.state[slack] != kBasic) {
        v = slack;
      } else {
        v = -1;
        for (int r = 0; r < w.m; ++r) {
          if (basis.state[w.n_struct + r] != kBasic) {
            v = w.n_struct + r;
            break;
          }
        }
        if (v < 0) return Basis{};  // defensive; cannot happen
      }
      basis.state[v] = kBasic;
    }
    basis.basic.push_back(v);
  }
  return basis;
}

LpSolution BuildSolution(Work& w, const LpModel& model, SolveStatus status,
                         bool maximize) {
  SampleRepStats(w);  // the final update run ended here, not at a refactor
  LpSolution solution;
  solution.status = status;
  solution.stats = w.stats;
  if (status != SolveStatus::kOptimal) return solution;

  solution.x.assign(w.x.begin(), w.x.begin() + w.n_struct);
  // Final duals priced on the exact phase-2 costs.
  std::vector<double> cb(w.m);
  for (int i = 0; i < w.m; ++i) cb[i] = w.cost[w.basis[i]];
  solution.duals = cb;
  w.rep->Btran(solution.duals);
  // Undo the equilibration: x = C x', y = R y' (exact — powers of two).
  if (!w.scaling.row.empty()) {
    for (int j = 0; j < w.n_struct; ++j) solution.x[j] *= w.scaling.col[j];
    for (int r = 0; r < w.m; ++r) solution.duals[r] *= w.scaling.row[r];
  }
  solution.objective = model.ObjectiveValue(solution.x);
  if (maximize) {
    for (double& d : solution.duals) d = -d;
  }
  solution.basis = ExportBasis(w);
  return solution;
}

LpSolution SolveImpl(const LpModel& model, const SimplexOptions& options,
                     const Attempt& attempt) {
  const double kInf = std::numeric_limits<double>::infinity();
  const int m = model.num_constraints();
  const int n_struct = model.num_variables();
  const bool maximize = model.sense() == ObjectiveSense::kMaximize;

  Work w;
  std::vector<Triplet> triplets;
  SetupVarsAndSlacks(model, maximize, w, triplets);
  Equilibrate(options, w, triplets);

  // --- Initial point: structurals at a bound, slacks basic. ----------------
  w.state.assign(n_struct + m, kBasic);
  w.x.assign(n_struct + m, 0.0);
  std::vector<double> residual = w.rhs;
  for (int j = 0; j < n_struct; ++j) {
    w.x[j] = InitialNonbasicValue(w.lb[j], w.ub[j], w.state[j]);
  }
  const bool scaled = !w.scaling.row.empty();
  for (int r = 0; r < m; ++r) {
    for (const Coefficient& e : model.constraint(r).entries) {
      // The residual lives in the scaled space the solve runs in.
      const double v = scaled ? e.value * w.scaling.row[r] *
                                    w.scaling.col[e.variable]
                              : e.value;
      residual[r] -= v * w.x[e.variable];
    }
  }

  // --- Decide per row: slack basic, or slack at bound + artificial. --------
  w.basis.resize(m);
  struct PendingArtificial {
    int row;
    double coefficient;
    double value;
  };
  std::vector<PendingArtificial> artificials;
  for (int r = 0; r < m; ++r) {
    const int slack = n_struct + r;
    const double v = residual[r];
    if (v >= w.lb[slack] && v <= w.ub[slack]) {
      w.basis[r] = slack;
      w.state[slack] = kBasic;
      w.x[slack] = v;
    } else if (v > w.ub[slack]) {
      // Slack pinned at its upper bound; artificial absorbs the excess.
      w.state[slack] = kAtUpper;
      w.x[slack] = w.ub[slack];
      artificials.push_back(PendingArtificial{r, 1.0, v - w.ub[slack]});
    } else {
      w.state[slack] = kAtLower;
      w.x[slack] = w.lb[slack];
      artificials.push_back(PendingArtificial{r, -1.0, w.lb[slack] - v});
    }
  }

  w.artificial_begin = n_struct + m;
  std::vector<double> phase1_cost(w.lb.size(), 0.0);
  for (const PendingArtificial& a : artificials) {
    const int var = static_cast<int>(w.lb.size());
    w.lb.push_back(0.0);
    w.ub.push_back(kInf);
    w.cost.push_back(0.0);
    phase1_cost.push_back(1.0);
    w.state.push_back(kBasic);
    w.x.push_back(a.value);
    w.basis[a.row] = var;
    triplets.push_back(Triplet{a.row, var, a.coefficient});
  }
  w.n_total = static_cast<int>(w.lb.size());
  w.cols = SparseMatrix(m, w.n_total, std::move(triplets));

  w.rep = MakeBasisRep(options.basis_kind, attempt);
  auto finish = [&](SolveStatus status) {
    return BuildSolution(w, model, status, maximize);
  };
  if (!FactorizeAndRecompute(w)) {
    return finish(SolveStatus::kNumericalFailure);
  }

  // Anti-degeneracy cost perturbation: tiny deterministic relative noise on
  // every nonzero cost breaks ties among the (often thousands of) columns
  // that price identically in problems like O-UMP. `finish` reports the
  // objective and duals from the exact costs.
  std::vector<double> phase2_cost = w.cost;
  PerturbCosts(phase2_cost);
  PerturbCosts(phase1_cost);

  // --- Phase 1 -------------------------------------------------------------
  if (!artificials.empty()) {
    PhaseStatus status =
        RunPhase(w, phase1_cost, /*phase1=*/true, options, attempt);
    if (status == PhaseStatus::kIterationLimit) {
      return finish(SolveStatus::kIterationLimit);
    }
    if (status == PhaseStatus::kSingular ||
        status == PhaseStatus::kUnbounded) {
      return finish(SolveStatus::kNumericalFailure);
    }
    double infeasibility = 0.0;
    for (int j = w.artificial_begin; j < w.n_total; ++j) {
      infeasibility += w.x[j];
    }
    if (infeasibility > kFeasibilityTol) {
      return finish(SolveStatus::kInfeasible);
    }
    // Pin artificials at zero so they never move again; basic artificials
    // (degenerate, value ~0) stay basic but fixed.
    for (int j = w.artificial_begin; j < w.n_total; ++j) {
      w.lb[j] = 0.0;
      w.ub[j] = 0.0;
      if (w.state[j] != kBasic) {
        w.x[j] = 0.0;
        w.state[j] = kAtLower;
      }
    }
  }

  // --- Phase 2 -------------------------------------------------------------
  PhaseStatus status =
      RunPhase(w, phase2_cost, /*phase1=*/false, options, attempt);
  switch (status) {
    case PhaseStatus::kOptimal:
      return finish(SolveStatus::kOptimal);
    case PhaseStatus::kUnbounded:
      return finish(SolveStatus::kUnbounded);
    case PhaseStatus::kIterationLimit:
      return finish(SolveStatus::kIterationLimit);
    case PhaseStatus::kSingular:
      return finish(SolveStatus::kNumericalFailure);
  }
  return finish(SolveStatus::kNumericalFailure);
}

// Warm start: rebuild the point around the hinted basis, repair dual
// feasibility by bound flips, restore primal feasibility with the dual
// simplex, then let a primal phase certify optimality. Sets `fallback`
// when the hint cannot be used (the caller then cold-solves); the returned
// solution still carries the iteration counters spent.
LpSolution WarmSolveImpl(const LpModel& model, const SimplexOptions& options,
                         const Basis& hint, bool& fallback) {
  fallback = false;
  const int m = model.num_constraints();
  const int n_struct = model.num_variables();
  const bool maximize = model.sense() == ObjectiveSense::kMaximize;

  LpSolution failed;  // counter carrier for fallback returns
  if (static_cast<int>(hint.state.size()) != n_struct + m ||
      static_cast<int>(hint.basic.size()) != m) {
    fallback = true;
    return failed;
  }

  Work w;
  std::vector<Triplet> triplets;
  SetupVarsAndSlacks(model, maximize, w, triplets);
  Equilibrate(options, w, triplets);
  w.n_total = n_struct + m;
  w.artificial_begin = w.n_total;
  w.cols = SparseMatrix(m, w.n_total, std::move(triplets));

  // Hint consistency: every listed basic variable in range and marked
  // basic, no duplicates, exactly m basics.
  w.state = hint.state;
  w.basis = hint.basic;
  {
    int basic_count = 0;
    for (int j = 0; j < w.n_total; ++j) {
      if (w.state[j] == kBasic) ++basic_count;
    }
    std::vector<bool> seen(w.n_total, false);
    bool ok = basic_count == m;
    for (int v : w.basis) {
      if (v < 0 || v >= w.n_total || w.state[v] != kBasic || seen[v]) {
        ok = false;
        break;
      }
      seen[v] = true;
    }
    if (!ok) {
      fallback = true;
      return failed;
    }
  }

  // Nonbasic values under the *current* bounds; a state whose bound is
  // gone (e.g. relaxed to infinity) moves to a usable one.
  w.x.assign(w.n_total, 0.0);
  for (int j = 0; j < w.n_total; ++j) {
    switch (w.state[j]) {
      case kBasic:
        break;
      case kAtLower:
        if (std::isfinite(w.lb[j])) {
          w.x[j] = w.lb[j];
        } else if (std::isfinite(w.ub[j])) {
          w.state[j] = kAtUpper;
          w.x[j] = w.ub[j];
        } else {
          w.state[j] = kFree;
        }
        break;
      case kAtUpper:
        if (std::isfinite(w.ub[j])) {
          w.x[j] = w.ub[j];
        } else if (std::isfinite(w.lb[j])) {
          w.state[j] = kAtLower;
          w.x[j] = w.lb[j];
        } else {
          w.state[j] = kFree;
        }
        break;
      case kFree:
        if (0.0 < w.lb[j]) {
          w.state[j] = kAtLower;
          w.x[j] = w.lb[j];
        } else if (0.0 > w.ub[j]) {
          w.state[j] = kAtUpper;
          w.x[j] = w.ub[j];
        }
        break;
    }
  }

  w.rep = MakeBasisRep(options.basis_kind, kFirstAttempt);
  // A singular hint is repaired in place (the dependent columns leave for
  // row slacks — still a warm start); only an unrepairable one falls back
  // to a cold solve.
  if (!FactorizeAndRecompute(w)) {
    fallback = true;
    failed.stats = w.stats;
    return failed;
  }

  std::vector<double> phase2_cost = w.cost;
  PerturbCosts(phase2_cost);

  // Dual feasibility repair: bound changes never move reduced costs, but a
  // state flip above (or a hint from a structurally shifted model — new
  // columns, changed coefficients after AppendUsers) can leave a nonbasic
  // variable on the wrong side. Flip it to its other bound when one exists;
  // otherwise shift its cost so its reduced cost is zero — the dual phase
  // then runs on the shifted costs, and the concluding primal phase (which
  // prices the true costs) pulls the shifted columns into the basis.
  std::vector<double> dual_cost = phase2_cost;
  {
    std::vector<double> reduced;
    ComputeReducedCosts(w, phase2_cost, reduced);
    const double dual_tol = 10.0 * kOptimalityTol;
    bool flipped = false;
    for (int j = 0; j < w.n_total; ++j) {
      const VarStatus st = w.state[j];
      if (st == kBasic || w.lb[j] == w.ub[j]) continue;
      const double d = reduced[j];
      if (st == kAtLower && d < -dual_tol) {
        if (std::isfinite(w.ub[j])) {
          w.state[j] = kAtUpper;
          w.x[j] = w.ub[j];
          flipped = true;
        } else {
          dual_cost[j] -= d;
        }
      } else if (st == kAtUpper && d > dual_tol) {
        if (std::isfinite(w.lb[j])) {
          w.state[j] = kAtLower;
          w.x[j] = w.lb[j];
          flipped = true;
        } else {
          dual_cost[j] -= d;
        }
      } else if (st == kFree && std::abs(d) > dual_tol) {
        dual_cost[j] -= d;
      }
    }
    if (flipped) RecomputeBasics(w);
  }

  auto finish = [&](SolveStatus status) {
    w.stats.warm_solves = 1;
    return BuildSolution(w, model, status, maximize);
  };
  // The caller folds these counters into the cold solve it runs next.
  auto fall_back = [&](bool repair_aborted = false) {
    fallback = true;
    SampleRepStats(w);
    failed.stats = w.stats;
    failed.stats.repair_aborted = repair_aborted ? 1 : 0;
    return failed;
  };

  switch (RunDualPhase(w, dual_cost, options)) {
    case DualStatus::kOptimal:
      break;
    case DualStatus::kRepairAborted:
      return fall_back(/*repair_aborted=*/true);
    // A "primal infeasible" verdict from a warm basis is re-derived by
    // the cold phase 1, so a stale basis never prunes a branch & bound
    // node.
    case DualStatus::kPrimalInfeasible:
    case DualStatus::kIterationLimit:
    case DualStatus::kSingular:
      return fall_back();
  }

  switch (RunPhase(w, phase2_cost, /*phase1=*/false, options,
                   kFirstAttempt)) {
    case PhaseStatus::kOptimal:
      return finish(SolveStatus::kOptimal);
    case PhaseStatus::kUnbounded:
      return finish(SolveStatus::kUnbounded);
    case PhaseStatus::kIterationLimit:
    case PhaseStatus::kSingular:
      // A warm basis that cannot be polished to optimality is stale;
      // the cold path decides the real status.
      break;
  }
  return fall_back();
}

LpSolution SolveWithRetry(const LpModel& model,
                          const SimplexOptions& options) {
  LpSolution first = SolveImpl(model, options, kFirstAttempt);
  if (first.status != SolveStatus::kNumericalFailure) return first;
  // One conservative retry on the dense basis inverse.
  PRIVSAN_LOG(Warning)
      << "simplex numerical failure; retrying with conservative settings";
  SimplexOptions dense = options;
  dense.basis_kind = SimplexOptions::BasisKind::kDense;
  LpSolution second = SolveImpl(model, dense, kRetryAttempt);
  second.stats += first.stats;
  return second;
}

LpSolution ColdSolve(const LpModel& model, const SimplexOptions& options) {
  if (!options.presolve) return SolveWithRetry(model, options);
  LpModel reduced;
  PresolveInfo info = BuildPresolve(model, &reduced);
  if (info.infeasible) {
    LpSolution solution;
    solution.status = SolveStatus::kInfeasible;
    return solution;
  }
  if (info.NoOp()) return SolveWithRetry(model, options);
  LpSolution solution = SolveWithRetry(reduced, options);
  PostsolveSolution(model, info, &solution);
  return solution;
}

}  // namespace

SimplexSolver::SimplexSolver(SimplexOptions options) : options_(options) {}

LpSolution SimplexSolver::Solve(const LpModel& model,
                                const Basis* hint) const {
  SolveStats fallen_back;  // the effort of a warm attempt that fell back
  if (hint != nullptr && !hint->empty()) {
    bool fallback = false;
    LpSolution warm = WarmSolveImpl(model, options_, *hint, fallback);
    if (!fallback) return warm;
    fallen_back = warm.stats;
  }
  LpSolution cold = ColdSolve(model, options_);
  cold.stats += fallen_back;
  return cold;
}

}  // namespace lp
}  // namespace privsan
