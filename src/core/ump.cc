#include "core/ump.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/dump.h"
#include "core/fump.h"
#include "core/rounding.h"
#include "core/spe.h"
#include "lp/bip_heuristics.h"
#include "lp/model.h"
#include "util/timer.h"

namespace privsan {

const char* UtilityObjectiveToString(UtilityObjective objective) {
  switch (objective) {
    case UtilityObjective::kOutputSize:
      return "O-UMP";
    case UtilityObjective::kFrequentPairs:
      return "F-UMP";
    case UtilityObjective::kDiversity:
      return "D-UMP";
  }
  return "?";
}

const char* DumpSolverKindToString(DumpSolverKind kind) {
  switch (kind) {
    case DumpSolverKind::kSpe:
      return "SPE";
    case DumpSolverKind::kGreedy:
      return "Greedy";
    case DumpSolverKind::kLpRounding:
      return "LP-round";
    case DumpSolverKind::kBranchAndBound:
      return "B&B";
  }
  return "?";
}

namespace {

void FillLpStats(const lp::LpSolution& lp, UmpStats* stats) {
  stats->simplex_iterations += lp.iterations;
  stats->dual_iterations += lp.dual_iterations;
  stats->refactorizations += lp.refactorizations;
  stats->basis_repairs += lp.basis_repairs;
  if (lp.repair_aborted) ++stats->repair_aborted;
  if (lp.warm_started) ++stats->warm_solves;
  // Peaks, not sums: the fill and update-run figures compare against the
  // problem size, so the worst solve is the meaningful one.
  stats->factor_nnz = std::max(stats->factor_nnz, lp.factor_nnz);
  stats->max_update_run = std::max(stats->max_update_run, lp.max_update_run);
}

// Appends one <= row per DP constraint (rhs rebound per query) and records
// each pair's largest coefficient — the source of the implied bound
// x_p <= B / max_weight[p] that keeps every variable finitely bounded.
void AddDpRows(const DpConstraintSystem& system, lp::LpModel* model,
               std::vector<double>* max_weight) {
  max_weight->assign(system.num_pairs(), 0.0);
  for (size_t r = 0; r < system.num_rows(); ++r) {
    const int row = model->AddConstraint(lp::ConstraintSense::kLessEqual, 1.0);
    for (const DpConstraintEntry& e : system.Row(r)) {
      model->AddCoefficient(row, static_cast<int>(e.pair), e.log_t);
      (*max_weight)[e.pair] = std::max((*max_weight)[e.pair], e.log_t);
    }
  }
}

// ---- O-UMP ------------------------------------------------------------------

class OumpProblem final : public UmpProblem {
 public:
  OumpProblem(const SearchLog& log, DpConstraintSystem* system, OumpSpec spec,
              lp::SimplexOptions simplex)
      : log_(&log), system_(system), spec_(spec), solver_(simplex) {}

  Status Build() {
    model_ = lp::LpModel(lp::ObjectiveSense::kMaximize);
    for (PairId p = 0; p < log_->num_pairs(); ++p) {
      model_.AddVariable(0.0, lp::kInfinity, 1.0);
    }
    AddDpRows(*system_, &model_, &max_weight_);
    if (spec_.cap_counts_at_input) {
      caps_.resize(log_->num_pairs());
      for (PairId p = 0; p < log_->num_pairs(); ++p) {
        caps_[p] = log_->pair_total(p);
      }
    }
    return model_.Validate();
  }

  UtilityObjective objective() const override {
    return UtilityObjective::kOutputSize;
  }
  size_t num_pairs() const override { return log_->num_pairs(); }

  Result<UmpSolution> DoSolve(const UmpQuery& query,
                              const WarmStartHint* hint) override {
    PRIVSAN_RETURN_IF_ERROR(query.privacy.Validate());
    WallTimer timer;
    const double budget = query.privacy.Budget();
    system_->SetBudget(budget);

    UmpSolution solution;
    solution.objective = UtilityObjective::kOutputSize;
    const bool warm = hint != nullptr && !hint->empty();
    if (!warm || optimum_budget_ == 0.0 || spec_.cap_counts_at_input) {
      for (int r = 0; r < model_.num_constraints(); ++r) {
        model_.set_constraint_rhs(r, budget);
      }
      // Implied finite bounds: row k alone caps x_p at B / log t_pk. Finite
      // bounds on every variable let a warm start repair dual infeasibility
      // by bound flips — without them a remapped basis with a newly
      // attractive column (AppendUsers) would force a cold fallback.
      for (PairId p = 0; p < log_->num_pairs(); ++p) {
        double upper = max_weight_[p] > 0.0 ? budget / max_weight_[p]
                                            : lp::kInfinity;
        if (spec_.cap_counts_at_input) {
          upper = std::min(upper, static_cast<double>(caps_[p]));
        }
        model_.mutable_variable(static_cast<int>(p)).upper = upper;
      }
      lp::LpSolution lp =
          solver_.Solve(model_, warm ? &hint->basis : nullptr);
      if (lp.status != lp::SolveStatus::kOptimal) {
        return Status::Internal(std::string("O-UMP LP solve failed: ") +
                                lp::SolveStatusToString(lp.status));
      }
      solution.stats.warm_started = lp.warm_started;
      solution.stats.root_iterations = lp.iterations;
      FillLpStats(lp, &solution.stats);
      optimum_ = std::move(lp);
      optimum_budget_ = budget;
    } else {
      solution.stats.warm_started = true;
      solution.stats.warm_solves = 1;
    }
    // Every rhs and implied bound is linear in B, so the optimal basis at
    // B0 stays optimal at B and the point scales: x*(B) = (B/B0)·x*(B0).
    // Right after a simplex solve the scale is exactly 1.
    const double scale = budget / optimum_budget_;
    solution.x_relaxed.resize(optimum_.x.size());
    for (size_t p = 0; p < optimum_.x.size(); ++p) {
      solution.x_relaxed[p] = optimum_.x[p] * scale;
    }
    solution.objective_value = optimum_.objective * scale;
    solution.basis = optimum_.basis;

    RoundingOptions rounding;
    if (spec_.cap_counts_at_input) rounding.caps = caps_;
    solution.x = RoundCounts(*system_, solution.x_relaxed, rounding);
    for (uint64_t v : solution.x) solution.output_size += v;
    solution.stats.wall_seconds = timer.ElapsedSeconds();
    return solution;
  }

 private:
  const SearchLog* log_;
  DpConstraintSystem* system_;
  OumpSpec spec_;
  lp::SimplexSolver solver_;
  lp::LpModel model_;
  std::vector<uint64_t> caps_;
  std::vector<double> max_weight_;  // per pair, max log t over its DP rows
  // The last simplex optimum and its budget (0 = none yet). It answers warm
  // requests at any budget until the session drops the problem with its
  // log version.
  lp::LpSolution optimum_;
  double optimum_budget_ = 0.0;
};

// ---- F-UMP ------------------------------------------------------------------

// Largest x an infrequent pair may take while staying strictly below
// support `s` of an output of size `total`: x < s * total.
uint64_t InfrequentCap(double min_support, double total) {
  const double threshold = min_support * total;
  double cap = std::ceil(threshold) - 1.0;
  if (std::floor(threshold) == threshold) cap = threshold - 1.0;
  return cap <= 0.0 ? 0 : static_cast<uint64_t>(cap);
}

// The F-UMP LP in scaled form. The paper's Statement-2 LP divides x_f by
// |O| and has deviation variables y_f in support units; multiplying the
// absolute-value rows and the objective through by |O| (y'_f = |O|·y_f)
// leaves an equivalent LP in which |O| appears only in right-hand sides and
// bounds:
//
//   min  sum_f y'_f
//   s.t. DP rows (Eq. 4)          sum log t · x       <= B
//        output size              sum x                = |O|
//        per frequent f           x_f − y'_f          <= s_f·|O|
//                                 x_f + y'_f          >= s_f·|O|
//        0 <= x  (infrequent x capped at ⌈s|O|⌉−1 when enforcing precision)
//
// so the coefficient matrix is fixed per (log, s) and one cached model
// serves every (B, |O|) cell. Each cell solves cold: warm-starting from a
// neighbouring cell's basis never beat a cold presolved solve on a
// measured log. The reported support-distance sum is the optimal sum y'_f
// divided back by |O|.
class FumpProblem final : public UmpProblem {
 public:
  FumpProblem(const SearchLog& log, DpConstraintSystem* system, FumpSpec spec,
              lp::SimplexOptions simplex)
      : log_(&log), system_(system), spec_(spec), solver_(simplex) {}

  Status Build() {
    if (!(spec_.min_support > 0.0) || spec_.min_support > 1.0) {
      return Status::InvalidArgument("min_support must lie in (0, 1]");
    }
    if (log_->total_clicks() == 0) {
      return Status::InvalidArgument("input log is empty");
    }
    const double total = static_cast<double>(log_->total_clicks());
    frequent_ = FrequentPairs(*log_, spec_.min_support);
    is_frequent_.assign(log_->num_pairs(), false);
    for (PairId p : frequent_) is_frequent_[p] = true;

    model_ = lp::LpModel(lp::ObjectiveSense::kMinimize);
    for (PairId p = 0; p < log_->num_pairs(); ++p) {
      model_.AddVariable(0.0, lp::kInfinity, 0.0);
    }
    support_.resize(frequent_.size());
    for (size_t i = 0; i < frequent_.size(); ++i) {
      model_.AddVariable(0.0, lp::kInfinity, 1.0);
      support_[i] =
          static_cast<double>(log_->pair_total(frequent_[i])) / total;
    }
    const int y_base = static_cast<int>(log_->num_pairs());

    AddDpRows(*system_, &model_, &max_weight_);
    output_row_ = model_.AddConstraint(lp::ConstraintSense::kEqual, 1.0,
                                       "output_size");
    for (PairId p = 0; p < log_->num_pairs(); ++p) {
      model_.AddCoefficient(output_row_, static_cast<int>(p), 1.0);
    }
    abs_row_base_ = output_row_ + 1;
    for (size_t i = 0; i < frequent_.size(); ++i) {
      const int x_var = static_cast<int>(frequent_[i]);
      const int y_var = y_base + static_cast<int>(i);
      int row = model_.AddConstraint(lp::ConstraintSense::kLessEqual, 0.0);
      model_.AddCoefficient(row, x_var, 1.0);
      model_.AddCoefficient(row, y_var, -1.0);
      row = model_.AddConstraint(lp::ConstraintSense::kGreaterEqual, 0.0);
      model_.AddCoefficient(row, x_var, 1.0);
      model_.AddCoefficient(row, y_var, 1.0);
    }
    return model_.Validate();
  }

  UtilityObjective objective() const override {
    return UtilityObjective::kFrequentPairs;
  }
  size_t num_pairs() const override { return log_->num_pairs(); }

  Result<UmpSolution> DoSolve(const UmpQuery& query,
                              const WarmStartHint* /*hint*/) override {
    PRIVSAN_RETURN_IF_ERROR(query.privacy.Validate());
    if (query.output_size == 0) {
      return Status::InvalidArgument("F-UMP requires output_size > 0");
    }
    WallTimer timer;
    const double budget = query.privacy.Budget();
    const double output_size = static_cast<double>(query.output_size);
    system_->SetBudget(budget);

    const int m = static_cast<int>(system_->num_rows());
    for (int r = 0; r < m; ++r) model_.set_constraint_rhs(r, budget);
    model_.set_constraint_rhs(output_row_, output_size);
    for (size_t i = 0; i < frequent_.size(); ++i) {
      const double rhs = support_[i] * output_size;
      model_.set_constraint_rhs(abs_row_base_ + 2 * static_cast<int>(i), rhs);
      model_.set_constraint_rhs(abs_row_base_ + 2 * static_cast<int>(i) + 1,
                                rhs);
    }

    UmpSolution solution;
    solution.objective = UtilityObjective::kFrequentPairs;
    solution.frequent_pairs = frequent_;

    const uint64_t lp_cap = InfrequentCap(spec_.min_support, output_size);

    // Solve with precision caps first; fall back to the paper's plain
    // formulation if the caps make the fixed output size unreachable.
    lp::LpSolution lp;
    if (spec_.enforce_precision) {
      SetVariableBounds(budget, output_size, static_cast<double>(lp_cap));
      lp = solver_.Solve(model_);
      solution.used_precision_caps = lp.status == lp::SolveStatus::kOptimal;
      FillLpStats(lp, &solution.stats);
    }
    if (!solution.used_precision_caps) {
      SetVariableBounds(budget, output_size, lp::kInfinity);
      lp = solver_.Solve(model_);
      FillLpStats(lp, &solution.stats);
    }
    if (lp.status == lp::SolveStatus::kInfeasible) {
      return Status::Infeasible(
          "F-UMP infeasible: requested output_size exceeds the maximum "
          "output size lambda for these privacy parameters");
    }
    if (lp.status != lp::SolveStatus::kOptimal) {
      return Status::Internal(std::string("F-UMP LP solve failed: ") +
                              lp::SolveStatusToString(lp.status));
    }
    solution.stats.warm_started = lp.warm_started;
    solution.stats.root_iterations = lp.iterations;
    // Scale the optimal deviation sum back to support units.
    solution.objective_value = lp.objective / output_size;
    solution.x_relaxed.assign(lp.x.begin(),
                              lp.x.begin() + log_->num_pairs());
    solution.basis = std::move(lp.basis);

    RoundSolution(query, lp_cap, &solution);
    solution.stats.wall_seconds = timer.ElapsedSeconds();
    return solution;
  }

 private:
  // Rebinds all variable bounds for one (B, |O|) query. Every bound is
  // finite and implied by the constraints — row k alone caps x_p at
  // B / log t_pk, the output row caps x_p and the deviations y'_f at |O| —
  // so they never cut the optimum. Infrequent pairs additionally get the
  // precision cap when one is active.
  void SetVariableBounds(double budget, double output_size,
                         double infrequent_cap) {
    for (PairId p = 0; p < log_->num_pairs(); ++p) {
      double upper = max_weight_[p] > 0.0 ? budget / max_weight_[p]
                                          : output_size;
      upper = std::min(upper, output_size);
      if (!is_frequent_[p]) upper = std::min(upper, infrequent_cap);
      model_.mutable_variable(static_cast<int>(p)).upper = upper;
    }
    const int y_base = static_cast<int>(log_->num_pairs());
    for (size_t i = 0; i < frequent_.size(); ++i) {
      model_.mutable_variable(y_base + static_cast<int>(i)).upper =
          output_size;
    }
  }

  // Floor, then distribute the lost mass by largest fractional remainder
  // while the DP rows keep fitting; finally clamp infrequent pairs below
  // the frequency threshold of the realized size (Precision = 1).
  void RoundSolution(const UmpQuery& query, uint64_t lp_cap,
                     UmpSolution* solution) const {
    const size_t n = log_->num_pairs();
    std::vector<double> remainder;
    solution->x = FloorCounts(*system_, solution->x_relaxed, &remainder);
    const uint64_t floored_total = std::accumulate(
        solution->x.begin(), solution->x.end(), static_cast<uint64_t>(0));

    if (floored_total < query.output_size) {
      std::vector<double> row_lhs(system_->num_rows(), 0.0);
      for (size_t r = 0; r < system_->num_rows(); ++r) {
        row_lhs[r] =
            system_->RowLhs(r, std::span<const uint64_t>(solution->x));
      }
      std::vector<std::vector<std::pair<size_t, double>>> pair_rows(n);
      for (size_t r = 0; r < system_->num_rows(); ++r) {
        for (const DpConstraintEntry& e : system_->Row(r)) {
          pair_rows[e.pair].emplace_back(r, e.log_t);
        }
      }
      std::vector<PairId> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](PairId a, PairId b) {
        if (is_frequent_[a] != is_frequent_[b]) {
          return static_cast<bool>(is_frequent_[a]);
        }
        return remainder[a] > remainder[b];
      });
      uint64_t deficit = query.output_size - floored_total;
      for (PairId p : order) {
        if (deficit == 0) break;
        if (remainder[p] <= 1e-9) continue;  // only top up rounded-down mass
        if (solution->used_precision_caps && !is_frequent_[p] &&
            solution->x[p] + 1 > lp_cap) {
          continue;
        }
        bool fits = true;
        for (const auto& [r, weight] : pair_rows[p]) {
          if (row_lhs[r] + weight > system_->budget() + 1e-12) {
            fits = false;
            break;
          }
        }
        if (!fits) continue;
        for (const auto& [r, weight] : pair_rows[p]) row_lhs[r] += weight;
        ++solution->x[p];
        --deficit;
      }
    }

    if (spec_.enforce_precision) {
      while (true) {
        const uint64_t realized = std::accumulate(
            solution->x.begin(), solution->x.end(), static_cast<uint64_t>(0));
        if (realized == 0) break;
        const uint64_t cap =
            InfrequentCap(spec_.min_support, static_cast<double>(realized));
        bool changed = false;
        for (PairId p = 0; p < n; ++p) {
          if (!is_frequent_[p] && solution->x[p] > cap) {
            solution->x[p] = cap;
            changed = true;
          }
        }
        if (!changed) break;
      }
    }

    solution->output_size = std::accumulate(
        solution->x.begin(), solution->x.end(), static_cast<uint64_t>(0));
  }

  const SearchLog* log_;
  DpConstraintSystem* system_;
  FumpSpec spec_;
  lp::SimplexSolver solver_;
  lp::LpModel model_;
  std::vector<PairId> frequent_;
  std::vector<bool> is_frequent_;
  std::vector<double> support_;  // s_f per frequent pair, input units
  std::vector<double> max_weight_;  // per pair, max log t over its DP rows
  int output_row_ = 0;
  int abs_row_base_ = 0;
};

// ---- D-UMP ------------------------------------------------------------------

class DumpProblem final : public UmpProblem {
 public:
  DumpProblem(const SearchLog& log, DpConstraintSystem* system, DumpSpec spec,
              lp::SimplexOptions simplex)
      : log_(&log), system_(system), spec_(spec), simplex_(simplex) {}

  Status Build() {
    // One source of truth for the LP kernel configuration: the node LPs of
    // branch & bound run on the problem-level simplex options
    // (factorization, pricing, repair policy), not on whatever
    // DumpSpec::bnb.simplex defaulted to — so B&B children ride the same
    // kernel as every other solve of this session.
    spec_.bnb.simplex = simplex_;
    bip_ = BipFromConstraintRows(*system_);
    bip_.rhs.assign(bip_.num_rows, 1.0);  // rebound per query
    col_max_weight_.resize(log_->num_pairs());
    for (PairId p = 0; p < log_->num_pairs(); ++p) {
      double max_weight = 0.0;
      for (const lp::SparseEntry& e : bip_.columns[p]) {
        max_weight = std::max(max_weight, e.value);
      }
      col_max_weight_[p] = max_weight;
    }
    bnb_model_ = bip_.ToLpModel();
    return bnb_model_.Validate();
  }

  UtilityObjective objective() const override {
    return UtilityObjective::kDiversity;
  }
  size_t num_pairs() const override { return log_->num_pairs(); }

  Result<UmpSolution> DoSolve(const UmpQuery& query,
                              const WarmStartHint* hint) override {
    PRIVSAN_RETURN_IF_ERROR(query.privacy.Validate());
    WallTimer timer;
    const double budget = query.privacy.Budget();
    system_->SetBudget(budget);
    bip_.rhs.assign(bip_.num_rows, budget);

    const DumpSolverKind kind = query.solver.value_or(spec_.solver);
    const lp::Basis* basis_hint =
        hint != nullptr && !hint->empty() ? &hint->basis : nullptr;

    UmpSolution solution;
    solution.objective = UtilityObjective::kDiversity;

    std::vector<uint8_t> y;
    switch (kind) {
      case DumpSolverKind::kSpe: {
        PRIVSAN_ASSIGN_OR_RETURN(lp::BipSolution s, SolveSpe(bip_));
        y = std::move(s.y);
        break;
      }
      case DumpSolverKind::kGreedy: {
        PRIVSAN_ASSIGN_OR_RETURN(lp::BipSolution s, SolveBipGreedy(bip_));
        y = std::move(s.y);
        break;
      }
      case DumpSolverKind::kLpRounding: {
        PRIVSAN_ASSIGN_OR_RETURN(
            lp::BipSolution s, SolveBipLpRounding(bip_, simplex_, basis_hint));
        y = std::move(s.y);
        solution.stats.simplex_iterations = s.lp_iterations;
        solution.stats.dual_iterations = s.lp_dual_iterations;
        solution.stats.refactorizations = s.lp_refactorizations;
        solution.stats.basis_repairs = s.lp_basis_repairs;
        if (s.lp_repair_aborted) solution.stats.repair_aborted = 1;
        solution.stats.root_iterations = s.lp_iterations;
        solution.stats.warm_started = s.lp_warm_started;
        if (s.lp_warm_started) solution.stats.warm_solves = 1;
        solution.basis = std::move(s.basis);
        break;
      }
      case DumpSolverKind::kBranchAndBound: {
        // Integer presolve: a single entry w_j > B already overruns row j's
        // budget, so y_j = 1 is integrally infeasible — fix the variable
        // before the tree search (the LP relaxation only sees y_j <= B/w_j).
        int fixed = 0;
        for (PairId p = 0; p < log_->num_pairs(); ++p) {
          const bool fix = spec_.integer_presolve &&
                           col_max_weight_[p] > budget + 1e-12;
          bnb_model_.mutable_variable(static_cast<int>(p)).upper =
              fix ? 0.0 : 1.0;
          if (fix) ++fixed;
        }
        for (int r = 0; r < bip_.num_rows; ++r) {
          bnb_model_.set_constraint_rhs(r, budget);
        }
        lp::BnbOptions bnb_options = spec_.bnb;
        bnb_options.root_hint = basis_hint;
        lp::BnbResult bnb = SolveBranchAndBound(bnb_model_, bnb_options);
        if (!bnb.has_incumbent) {
          return Status::Internal("branch & bound found no incumbent");
        }
        y.resize(bip_.num_vars());
        for (int j = 0; j < bip_.num_vars(); ++j) {
          y[j] = bnb.x[j] > 0.5 ? 1 : 0;
        }
        solution.proven_optimal = bnb.proven_optimal;
        solution.stats.simplex_iterations = bnb.lp_iterations;
        solution.stats.dual_iterations = bnb.lp_dual_iterations;
        solution.stats.refactorizations = bnb.lp_refactorizations;
        solution.stats.basis_repairs = bnb.lp_basis_repairs;
        solution.stats.repair_aborted = bnb.repair_aborted;
        solution.stats.nodes_explored = bnb.nodes_explored;
        solution.stats.warm_solves = bnb.warm_solves;
        solution.stats.warm_started = bnb.root_warm_started;
        solution.stats.root_iterations = bnb.root_lp_iterations;
        solution.stats.integer_fixed = fixed;
        solution.basis = std::move(bnb.root_basis);
        break;
      }
    }

    solution.x.assign(y.begin(), y.end());
    for (uint64_t v : solution.x) solution.output_size += v;
    solution.objective_value = static_cast<double>(solution.output_size);
    solution.x_relaxed.assign(solution.x.begin(), solution.x.end());
    solution.stats.wall_seconds = timer.ElapsedSeconds();
    return solution;
  }

 private:
  const SearchLog* log_;
  DpConstraintSystem* system_;
  DumpSpec spec_;
  lp::SimplexOptions simplex_;
  lp::BipProblem bip_;
  lp::LpModel bnb_model_;
  std::vector<double> col_max_weight_;
};

}  // namespace

Result<std::unique_ptr<UmpProblem>> MakeOumpProblem(
    const SearchLog& log, DpConstraintSystem* system, OumpSpec spec,
    lp::SimplexOptions simplex) {
  auto problem = std::make_unique<OumpProblem>(log, system, spec, simplex);
  PRIVSAN_RETURN_IF_ERROR(problem->Build());
  return std::unique_ptr<UmpProblem>(std::move(problem));
}

Result<std::unique_ptr<UmpProblem>> MakeFumpProblem(
    const SearchLog& log, DpConstraintSystem* system, FumpSpec spec,
    lp::SimplexOptions simplex) {
  auto problem = std::make_unique<FumpProblem>(log, system, spec, simplex);
  PRIVSAN_RETURN_IF_ERROR(problem->Build());
  return std::unique_ptr<UmpProblem>(std::move(problem));
}

Result<std::unique_ptr<UmpProblem>> MakeDumpProblem(
    const SearchLog& log, DpConstraintSystem* system, DumpSpec spec,
    lp::SimplexOptions simplex) {
  auto problem = std::make_unique<DumpProblem>(log, system, spec, simplex);
  PRIVSAN_RETURN_IF_ERROR(problem->Build());
  return std::unique_ptr<UmpProblem>(std::move(problem));
}

}  // namespace privsan
