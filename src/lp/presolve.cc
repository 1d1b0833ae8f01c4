#include "lp/presolve.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace privsan {
namespace lp {

namespace {

// Feasibility slack for presolve decisions, relative to the magnitudes in
// play. Presolve must never declare a feasible problem infeasible.
double Tol(double reference) { return 1e-9 * (1.0 + std::abs(reference)); }

}  // namespace

PresolveInfo BuildPresolve(const LpModel& model, LpModel* reduced) {
  const int n = model.num_variables();
  const int m = model.num_constraints();
  const bool maximize = model.sense() == ObjectiveSense::kMaximize;

  PresolveInfo info;
  info.original_vars = n;
  info.original_rows = m;

  std::vector<double> lb(n), ub(n);
  for (int j = 0; j < n; ++j) {
    lb[j] = model.variable(j).lower;
    ub[j] = model.variable(j).upper;
  }
  std::vector<bool> var_removed(n, false);
  std::vector<double> value(n, 0.0);
  std::vector<bool> row_removed(m, false);
  std::vector<double> rhs(m);
  for (int r = 0; r < m; ++r) rhs[r] = model.constraint(r).rhs;

  // Column structure: rows touching each variable.
  std::vector<std::vector<std::pair<int, double>>> columns(n);
  for (int r = 0; r < m; ++r) {
    for (const Coefficient& e : model.constraint(r).entries) {
      if (e.value != 0.0) columns[e.variable].emplace_back(r, e.value);
    }
  }

  auto fix_variable = [&](int j, double v) {
    var_removed[j] = true;
    value[j] = v;
    for (const auto& [r, a] : columns[j]) {
      if (!row_removed[r]) rhs[r] -= a * v;
    }
  };

  bool changed = true;
  while (changed && !info.infeasible) {
    changed = false;

    // Fixed variables.
    for (int j = 0; j < n; ++j) {
      if (var_removed[j] || lb[j] != ub[j]) continue;
      fix_variable(j, lb[j]);
      changed = true;
    }

    // Empty and singleton rows.
    for (int r = 0; r < m && !info.infeasible; ++r) {
      if (row_removed[r]) continue;
      int live = 0;
      int single_var = -1;
      double single_coeff = 0.0;
      for (const Coefficient& e : model.constraint(r).entries) {
        if (e.value == 0.0 || var_removed[e.variable]) continue;
        ++live;
        if (live > 1) break;
        single_var = e.variable;
        single_coeff = e.value;
      }
      if (live > 1) continue;

      const ConstraintSense sense = model.constraint(r).sense;
      if (live == 0) {
        // 0 (sense) rhs must hold trivially.
        const double tol = Tol(model.constraint(r).rhs);
        const bool ok = sense == ConstraintSense::kLessEqual ? rhs[r] >= -tol
                        : sense == ConstraintSense::kGreaterEqual
                            ? rhs[r] <= tol
                            : std::abs(rhs[r]) <= tol;
        if (!ok) {
          info.infeasible = true;
          break;
        }
        row_removed[r] = true;
        changed = true;
        continue;
      }

      // Singleton row: a * x (sense) rhs becomes a bound on x.
      const int j = single_var;
      const double bound = rhs[r] / single_coeff;
      double new_lb = lb[j];
      double new_ub = ub[j];
      const bool imposes_upper =
          sense == ConstraintSense::kEqual ||
          (sense == ConstraintSense::kLessEqual) == (single_coeff > 0.0);
      const bool imposes_lower =
          sense == ConstraintSense::kEqual || !imposes_upper;
      if (imposes_upper) new_ub = std::min(new_ub, bound);
      if (imposes_lower) new_lb = std::max(new_lb, bound);
      if (new_lb > new_ub) {
        if (new_lb - new_ub > Tol(bound)) {
          info.infeasible = true;
          break;
        }
        new_lb = new_ub = 0.5 * (new_lb + new_ub);
      }
      info.singleton_rows.push_back(
          PresolveInfo::SingletonRow{r, j, single_coeff, sense, rhs[r]});
      lb[j] = new_lb;
      ub[j] = new_ub;
      row_removed[r] = true;
      changed = true;
    }
  }

  if (info.infeasible) return info;

  // Empty columns: pin to the objective-favorable bound when finite. An
  // infinite favorable bound means a potentially unbounded ray; the column
  // is kept so the solver reports kUnbounded itself (after proving the rest
  // feasible).
  for (int j = 0; j < n; ++j) {
    if (var_removed[j]) continue;
    bool live = false;
    for (const auto& [r, a] : columns[j]) {
      if (!row_removed[r]) {
        live = true;
        break;
      }
    }
    if (live) continue;
    const double c = model.variable(j).objective;
    // Internal preference: which bound improves the objective.
    const bool wants_upper = maximize ? c > 0.0 : c < 0.0;
    double pick;
    if (c == 0.0) {
      pick = std::isfinite(lb[j]) ? lb[j] : std::isfinite(ub[j]) ? ub[j] : 0.0;
    } else if (wants_upper) {
      if (!std::isfinite(ub[j])) continue;  // keep: unbounded direction
      pick = ub[j];
    } else {
      if (!std::isfinite(lb[j])) continue;
      pick = lb[j];
    }
    fix_variable(j, pick);
  }

  // Build the reduced model.
  *reduced = LpModel(model.sense());
  info.var_map.assign(n, -1);
  info.row_map.assign(m, -1);
  info.removed_value = value;
  for (int j = 0; j < n; ++j) {
    if (var_removed[j]) continue;
    const Variable& v = model.variable(j);
    info.var_map[j] =
        reduced->AddVariable(lb[j], ub[j], v.objective, v.name, v.is_integer);
  }
  for (int r = 0; r < m; ++r) {
    if (row_removed[r]) continue;
    const Constraint& c = model.constraint(r);
    info.row_map[r] = reduced->AddConstraint(c.sense, rhs[r], c.name);
    for (const Coefficient& e : c.entries) {
      if (e.value == 0.0 || var_removed[e.variable]) continue;
      reduced->AddCoefficient(info.row_map[r], info.var_map[e.variable],
                              e.value);
    }
  }
  info.reduced_vars = reduced->num_variables();
  info.reduced_rows = reduced->num_constraints();
  return info;
}

void PostsolveSolution(const LpModel& model, const PresolveInfo& info,
                       LpSolution* solution) {
  const int n = info.original_vars;
  const int m = info.original_rows;

  if (solution->status != SolveStatus::kOptimal) {
    solution->x.clear();
    solution->duals.clear();
    solution->basis = Basis{};
    return;
  }

  // Primal.
  std::vector<double> x(n);
  for (int j = 0; j < n; ++j) {
    x[j] = info.var_map[j] >= 0 ? solution->x[info.var_map[j]]
                                : info.removed_value[j];
  }

  // Duals: kept rows carry their reduced duals, dropped rows start at zero.
  std::vector<double> duals(m, 0.0);
  for (int r = 0; r < m; ++r) {
    if (info.row_map[r] >= 0) duals[r] = solution->duals[info.row_map[r]];
  }

  // Recover duals of dropped singleton rows, newest first: when the row's
  // implied bound is active at x_j, the variable's remaining reduced cost
  // d_j = c_j - y^T A_j belongs to this row (y_r = d_j / a_rj zeroes it),
  // otherwise the row is slack and its dual stays zero. This restores the
  // KKT certificate on the original model.
  if (!info.singleton_rows.empty()) {
    std::vector<std::vector<std::pair<int, double>>> columns(n);
    for (int r = 0; r < m; ++r) {
      for (const Coefficient& e : model.constraint(r).entries) {
        if (e.value != 0.0) columns[e.variable].emplace_back(r, e.value);
      }
    }
    for (auto it = info.singleton_rows.rbegin();
         it != info.singleton_rows.rend(); ++it) {
      const double bound = it->rhs / it->coeff;
      if (std::abs(x[it->var] - bound) > 1e-7 * (1.0 + std::abs(bound))) {
        continue;
      }
      double d = model.variable(it->var).objective;
      for (const auto& [r, a] : columns[it->var]) d -= duals[r] * a;
      duals[it->row] = d / it->coeff;
    }
  }

  // Basis: kept variables map their status back; removed variables sit at
  // the bound (or value) they were pinned to; dropped rows contribute their
  // slack as basic, which keeps the full basis nonsingular (the dropped
  // block is triangular with unit slack diagonal).
  Basis basis;
  basis.state.assign(n + m, VarStatus::kAtLower);
  const int reduced_n = info.reduced_vars;
  for (int j = 0; j < n; ++j) {
    if (info.var_map[j] >= 0) {
      basis.state[j] = solution->basis.state[info.var_map[j]];
      continue;
    }
    // Pick the nearest finite bound as the hint state. kFree is reserved
    // for genuinely unbounded variables: a finite-bounded variable marked
    // kFree would mislead a warm start (the simplex treats kFree as
    // "no bound to flip against").
    const Variable& v = model.variable(j);
    const double val = info.removed_value[j];
    const bool lower_finite = std::isfinite(v.lower);
    const bool upper_finite = std::isfinite(v.upper);
    if (lower_finite &&
        (!upper_finite || val - v.lower <= v.upper - val)) {
      basis.state[j] = VarStatus::kAtLower;
    } else if (upper_finite) {
      basis.state[j] = VarStatus::kAtUpper;
    } else {
      basis.state[j] = VarStatus::kFree;
    }
  }
  for (int r = 0; r < m; ++r) {
    if (info.row_map[r] >= 0) {
      basis.state[n + r] = solution->basis.state[reduced_n + info.row_map[r]];
    } else {
      basis.state[n + r] = VarStatus::kBasic;
    }
  }
  std::vector<int> var_preimage(info.reduced_vars, -1);
  std::vector<int> row_preimage(info.reduced_rows, -1);
  for (int j = 0; j < n; ++j) {
    if (info.var_map[j] >= 0) var_preimage[info.var_map[j]] = j;
  }
  for (int r = 0; r < m; ++r) {
    if (info.row_map[r] >= 0) row_preimage[info.row_map[r]] = r;
  }
  for (int v : solution->basis.basic) {
    basis.basic.push_back(v < reduced_n ? var_preimage[v]
                                        : n + row_preimage[v - reduced_n]);
  }
  for (int r = 0; r < m; ++r) {
    if (info.row_map[r] < 0) basis.basic.push_back(n + r);
  }

  solution->x = std::move(x);
  solution->duals = std::move(duals);
  solution->basis = std::move(basis);
  solution->objective = model.ObjectiveValue(solution->x);
}

}  // namespace lp
}  // namespace privsan
