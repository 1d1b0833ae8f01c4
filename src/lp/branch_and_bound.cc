#include "lp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "util/logging.h"
#include "util/timer.h"

namespace privsan {
namespace lp {

namespace {

// Distance from an integer within which a value counts as integral.
constexpr double kIntegralityTol = 1e-6;
// Relative optimality gap at which a node is fathomed.
constexpr double kGapTol = 1e-9;

struct Node {
  // Bound overrides relative to the root model: (variable, lower, upper).
  std::vector<std::tuple<int, double, double>> bound_changes;
  double lp_bound = 0.0;  // parent LP objective, in minimization sense
  // Parent's optimal basis: the child differs only in one variable bound,
  // so it re-solves dual-simplex style from here instead of from scratch.
  std::shared_ptr<const Basis> warm;
};

struct NodeOrder {
  // Best-first: smallest minimization bound first.
  bool operator()(const std::shared_ptr<Node>& a,
                  const std::shared_ptr<Node>& b) const {
    return a->lp_bound > b->lp_bound;
  }
};

// Rounds an LP point to integrality and keeps it only if feasible.
bool TryRoundedIncumbent(const LpModel& model,
                         const std::vector<double>& x_lp, double tol,
                         std::vector<double>& x_out) {
  std::vector<double> x = x_lp;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.variable(j).is_integer) {
      x[j] = std::floor(x[j] + tol);
      x[j] = std::clamp(x[j], model.variable(j).lower,
                        model.variable(j).upper);
    }
  }
  if (!model.IsFeasible(x, 1e-6)) return false;
  x_out = std::move(x);
  return true;
}

}  // namespace

BnbResult SolveBranchAndBound(const LpModel& model,
                              const BnbOptions& options,
                              const SimplexOptions& simplex,
                              const Basis* root_hint) {
  BnbResult result;
  WallTimer timer;

  const bool maximize = model.sense() == ObjectiveSense::kMaximize;
  // Work in minimization internally: min_obj = maximize ? -obj : obj.
  auto to_internal = [&](double v) { return maximize ? -v : v; };
  auto to_external = [&](double v) { return maximize ? -v : v; };

  LpModel scratch = model;  // bounds are mutated per node and restored
  SimplexSolver solver(simplex);

  double incumbent_internal = std::numeric_limits<double>::infinity();
  std::vector<double> incumbent_x;

  std::priority_queue<std::shared_ptr<Node>,
                      std::vector<std::shared_ptr<Node>>, NodeOrder>
      open;
  open.push(std::make_shared<Node>());
  open.top()->lp_bound = -std::numeric_limits<double>::infinity();

  double best_open_bound = -std::numeric_limits<double>::infinity();
  bool budget_hit = false;
  bool dropped_subtree = false;
  double dropped_bound = std::numeric_limits<double>::infinity();

  while (!open.empty()) {
    if (result.nodes_explored >= options.max_nodes ||
        timer.ElapsedSeconds() > options.time_limit_seconds) {
      budget_hit = true;
      best_open_bound = open.top()->lp_bound;
      break;
    }
    std::shared_ptr<Node> node = open.top();
    open.pop();
    // Fathom by bound.
    if (node->lp_bound >=
        incumbent_internal - std::abs(incumbent_internal) * kGapTol - 1e-12) {
      continue;
    }
    ++result.nodes_explored;

    // Apply node bounds.
    std::vector<std::tuple<int, double, double>> saved;
    saved.reserve(node->bound_changes.size());
    for (const auto& [var, lo, hi] : node->bound_changes) {
      Variable& v = scratch.mutable_variable(var);
      saved.emplace_back(var, v.lower, v.upper);
      v.lower = std::max(v.lower, lo);
      v.upper = std::min(v.upper, hi);
    }
    const bool is_root = node->bound_changes.empty();
    const Basis* hint = nullptr;
    if (options.warm_start) {
      hint = node->warm.get();
      if (hint == nullptr && is_root) hint = root_hint;
    }
    LpSolution lp = solver.Solve(scratch, hint);
    // Restore bounds.
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      Variable& v = scratch.mutable_variable(std::get<0>(*it));
      v.lower = std::get<1>(*it);
      v.upper = std::get<2>(*it);
    }
    result.stats += lp.stats;
    if (is_root) {
      result.root_warm_started = lp.stats.warm_solves > 0;
      result.root_lp_iterations = lp.stats.simplex_iterations;
      if (lp.status == SolveStatus::kOptimal) result.root_basis = lp.basis;
    }

    if (lp.status == SolveStatus::kInfeasible) continue;
    if (lp.status == SolveStatus::kUnbounded) {
      result.status = SolveStatus::kUnbounded;
      return result;
    }
    if (lp.status != SolveStatus::kOptimal) {
      // Numerical trouble on this node: its subtree is lost, so the run
      // can no longer prove optimality; fold the parent bound into the
      // dual bound so best_bound stays valid.
      dropped_subtree = true;
      dropped_bound = std::min(dropped_bound, node->lp_bound);
      continue;
    }

    const double node_bound = to_internal(lp.objective);
    if (node_bound >=
        incumbent_internal - std::abs(incumbent_internal) * kGapTol - 1e-12) {
      continue;
    }

    // Find the most fractional integer variable.
    int branch_var = -1;
    double branch_score = kIntegralityTol;
    for (int j = 0; j < model.num_variables(); ++j) {
      if (!model.variable(j).is_integer) continue;
      const double frac = lp.x[j] - std::floor(lp.x[j]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > branch_score) {
        branch_score = dist;
        branch_var = j;
      }
    }

    if (branch_var < 0) {
      // Integral LP optimum: new incumbent.
      if (node_bound < incumbent_internal) {
        incumbent_internal = node_bound;
        incumbent_x = lp.x;
        // Snap integer values exactly.
        for (int j = 0; j < model.num_variables(); ++j) {
          if (model.variable(j).is_integer) {
            incumbent_x[j] = std::round(incumbent_x[j]);
          }
        }
      }
      continue;
    }

    // Rounding heuristic: cheap incumbent from the fractional point.
    std::vector<double> rounded;
    if (TryRoundedIncumbent(model, lp.x, kIntegralityTol, rounded)) {
      const double rounded_obj = to_internal(model.ObjectiveValue(rounded));
      if (rounded_obj < incumbent_internal) {
        incumbent_internal = rounded_obj;
        incumbent_x = rounded;
      }
    }

    // Branch. Both children start the dual simplex from this node's
    // optimal basis (shared, immutable).
    const double value = lp.x[branch_var];
    std::shared_ptr<const Basis> warm;
    if (options.warm_start && !lp.basis.empty()) {
      warm = std::make_shared<const Basis>(std::move(lp.basis));
    }
    auto down = std::make_shared<Node>(*node);
    down->lp_bound = node_bound;
    down->warm = warm;
    down->bound_changes.emplace_back(
        branch_var, -std::numeric_limits<double>::infinity(),
        std::floor(value));
    open.push(std::move(down));

    auto up = std::make_shared<Node>(*node);
    up->lp_bound = node_bound;
    up->warm = warm;
    up->bound_changes.emplace_back(branch_var, std::ceil(value),
                                   std::numeric_limits<double>::infinity());
    open.push(std::move(up));
  }

  result.wall_seconds = timer.ElapsedSeconds();
  result.has_incumbent = !incumbent_x.empty();
  if (result.has_incumbent) {
    result.x = std::move(incumbent_x);
    result.objective = to_external(incumbent_internal);
  }
  if (budget_hit || dropped_subtree) {
    // Either a budget bit or a node LP failed (its subtree was lost):
    // the incumbent stands but optimality is unproven.
    result.status = SolveStatus::kIterationLimit;
    result.proven_optimal = false;
    double bound = incumbent_internal;
    if (budget_hit) bound = std::min(bound, best_open_bound);
    if (dropped_subtree) bound = std::min(bound, dropped_bound);
    result.best_bound = to_external(bound);
  } else {
    result.status = result.has_incumbent ? SolveStatus::kOptimal
                                         : SolveStatus::kInfeasible;
    result.proven_optimal = result.has_incumbent;
    result.best_bound = result.objective;
  }
  return result;
}

}  // namespace lp
}  // namespace privsan
