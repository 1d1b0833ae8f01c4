#include "lp/bip_heuristics.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "util/logging.h"

namespace privsan {
namespace lp {

Status BipProblem::Validate() const {
  if (static_cast<int>(rhs.size()) != num_rows) {
    return Status::InvalidArgument("rhs size does not match num_rows");
  }
  for (double b : rhs) {
    if (!std::isfinite(b) || b <= 0.0) {
      return Status::InvalidArgument("BIP rhs entries must be finite and > 0");
    }
  }
  for (const auto& column : columns) {
    for (const SparseEntry& e : column) {
      if (e.index < 0 || e.index >= num_rows) {
        return Status::InvalidArgument("BIP column references unknown row");
      }
      if (!std::isfinite(e.value) || e.value <= 0.0) {
        return Status::InvalidArgument("BIP weights must be finite and > 0");
      }
    }
  }
  return Status::OK();
}

bool BipProblem::IsFeasible(const std::vector<uint8_t>& y, double tol) const {
  std::vector<double> load(num_rows, 0.0);
  for (int j = 0; j < num_vars(); ++j) {
    if (!y[j]) continue;
    for (const SparseEntry& e : columns[j]) load[e.index] += e.value;
  }
  for (int r = 0; r < num_rows; ++r) {
    if (load[r] > rhs[r] + tol) return false;
  }
  return true;
}

LpModel BipProblem::ToLpModel() const {
  LpModel model(ObjectiveSense::kMaximize);
  for (int j = 0; j < num_vars(); ++j) {
    std::string name = "y";
    name += std::to_string(j);
    model.AddVariable(0.0, 1.0, 1.0, std::move(name), /*is_integer=*/true);
  }
  for (int r = 0; r < num_rows; ++r) {
    model.AddConstraint(ConstraintSense::kLessEqual, rhs[r],
                        "row" + std::to_string(r));
  }
  for (int j = 0; j < num_vars(); ++j) {
    for (const SparseEntry& e : columns[j]) {
      model.AddCoefficient(e.index, j, e.value);
    }
  }
  return model;
}

namespace {

// Admits variables in the given order while every row stays within rhs.
BipSolution AdmitGreedily(const BipProblem& problem,
                          const std::vector<int>& order) {
  BipSolution solution;
  solution.y.assign(problem.num_vars(), 0);
  std::vector<double> load(problem.num_rows, 0.0);
  for (int j : order) {
    bool fits = true;
    for (const SparseEntry& e : problem.columns[j]) {
      if (load[e.index] + e.value > problem.rhs[e.index] + 1e-12) {
        fits = false;
        break;
      }
    }
    if (!fits) continue;
    for (const SparseEntry& e : problem.columns[j]) {
      load[e.index] += e.value;
    }
    solution.y[j] = 1;
    ++solution.selected;
  }
  return solution;
}

double MaxWeight(const BipProblem& problem, int j) {
  double max_weight = 0.0;
  for (const SparseEntry& e : problem.columns[j]) {
    max_weight = std::max(max_weight, e.value);
  }
  return max_weight;
}

}  // namespace

Result<BipSolution> SolveBipGreedy(const BipProblem& problem) {
  PRIVSAN_RETURN_IF_ERROR(problem.Validate());
  std::vector<int> order(problem.num_vars());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> key(problem.num_vars());
  for (int j = 0; j < problem.num_vars(); ++j) {
    key[j] = MaxWeight(problem, j);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return key[a] < key[b]; });
  return AdmitGreedily(problem, order);
}

Result<BipSolution> SolveBipLpRounding(const BipProblem& problem,
                                       const SimplexOptions& options,
                                       const Basis* hint) {
  PRIVSAN_RETURN_IF_ERROR(problem.Validate());
  LpModel model = problem.ToLpModel();
  PRIVSAN_RETURN_IF_ERROR(model.Validate());
  SimplexSolver solver(options);
  LpSolution lp = solver.Solve(model, hint);
  if (lp.status == SolveStatus::kInfeasible ||
      lp.status == SolveStatus::kUnbounded) {
    // Cannot happen for a validated BIP relaxation (y = 0 is feasible and
    // the objective is bounded by n); treat it as a solver defect.
    return Status::Internal(std::string("LP relaxation not solved: ") +
                            SolveStatusToString(lp.status));
  }
  if (lp.status != SolveStatus::kOptimal) {
    // Iteration budget or numerical trouble: degrade to the constructive
    // greedy instead of failing the whole sanitization run.
    PRIVSAN_LOG(Warning) << "BIP LP relaxation returned "
                         << SolveStatusToString(lp.status)
                         << "; falling back to greedy rounding order";
    Result<BipSolution> greedy = SolveBipGreedy(problem);
    if (greedy.ok()) {
      greedy->lp_iterations = lp.iterations;
      greedy->lp_dual_iterations = lp.dual_iterations;
      greedy->lp_refactorizations = lp.refactorizations;
      greedy->lp_basis_repairs = lp.basis_repairs;
      greedy->lp_repair_aborted = lp.repair_aborted;
    }
    return greedy;
  }
  std::vector<int> order(problem.num_vars());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (lp.x[a] != lp.x[b]) return lp.x[a] > lp.x[b];
    return MaxWeight(problem, a) < MaxWeight(problem, b);
  });
  Result<BipSolution> rounded = AdmitGreedily(problem, order);
  if (rounded.ok()) {
    rounded->lp_iterations = lp.iterations;
    rounded->lp_dual_iterations = lp.dual_iterations;
    rounded->lp_refactorizations = lp.refactorizations;
    rounded->lp_basis_repairs = lp.basis_repairs;
    rounded->lp_repair_aborted = lp.repair_aborted;
    rounded->basis = std::move(lp.basis);
    rounded->lp_warm_started = lp.warm_started;
  }
  return rounded;
}

}  // namespace lp
}  // namespace privsan
