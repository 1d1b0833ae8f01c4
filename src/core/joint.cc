#include "core/joint.h"

#include <cmath>
#include <memory>

#include "core/constraints.h"
#include "core/fump.h"
#include "core/rounding.h"
#include "core/ump.h"
#include "lp/model.h"

namespace privsan {

Result<JointUmpResult> SolveJointUmp(const SearchLog& log,
                                     const PrivacyParams& params,
                                     const JointUmpOptions& options) {
  if (options.size_weight < 0 || options.distance_weight < 0 ||
      (options.size_weight == 0 && options.distance_weight == 0)) {
    return Status::InvalidArgument(
        "joint UMP weights must be >= 0 and not both zero");
  }
  if (!(options.min_support > 0.0) || options.min_support > 1.0) {
    return Status::InvalidArgument("min_support must lie in (0, 1]");
  }
  if (log.total_clicks() == 0) {
    return Status::InvalidArgument("input log is empty");
  }
  PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem system,
                           DpConstraintSystem::Build(log, params));

  JointUmpResult result;
  // Normalizer: the O-UMP optimum under the same budget, on the same rows.
  PRIVSAN_ASSIGN_OR_RETURN(std::unique_ptr<UmpProblem> oump_problem,
                           MakeOumpProblem(log, &system, {}, options.simplex));
  PRIVSAN_ASSIGN_OR_RETURN(UmpSolution oump,
                           oump_problem->Solve({.privacy = params}));
  result.lambda = oump.output_size;
  const double norm = std::max(1.0, oump.objective_value);

  const double total = static_cast<double>(log.total_clicks());
  std::vector<PairId> frequent = FrequentPairs(log, options.min_support);

  lp::LpModel model(lp::ObjectiveSense::kMaximize);
  // x variables: objective contribution size_weight / norm each.
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    model.AddVariable(0.0, lp::kInfinity, options.size_weight / norm);
  }
  // y variables: the abs-value of the *count-space* support gap
  // |x_f − s_f · norm| / norm, penalized by distance_weight.
  std::vector<int> y_var(log.num_pairs(), -1);
  for (PairId f : frequent) {
    y_var[f] = model.AddVariable(0.0, lp::kInfinity,
                                 -options.distance_weight / norm);
  }
  for (size_t r = 0; r < system.num_rows(); ++r) {
    const int row =
        model.AddConstraint(lp::ConstraintSense::kLessEqual, system.budget());
    for (const DpConstraintEntry& e : system.Row(r)) {
      model.AddCoefficient(row, static_cast<int>(e.pair), e.log_t);
    }
  }
  for (PairId f : frequent) {
    const double anchor =
        static_cast<double>(log.pair_total(f)) / total * norm;
    int row = model.AddConstraint(lp::ConstraintSense::kLessEqual, anchor);
    model.AddCoefficient(row, static_cast<int>(f), 1.0);
    model.AddCoefficient(row, y_var[f], -1.0);
    row = model.AddConstraint(lp::ConstraintSense::kGreaterEqual, anchor);
    model.AddCoefficient(row, static_cast<int>(f), 1.0);
    model.AddCoefficient(row, y_var[f], 1.0);
  }
  PRIVSAN_RETURN_IF_ERROR(model.Validate());

  lp::SimplexSolver solver(options.simplex);
  lp::LpSolution lp = solver.Solve(model);
  if (lp.status != lp::SolveStatus::kOptimal) {
    return Status::Internal(std::string("joint UMP LP solve failed: ") +
                            lp::SolveStatusToString(lp.status));
  }

  result.objective = lp.objective;
  result.x_relaxed.assign(lp.x.begin(), lp.x.begin() + log.num_pairs());
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    result.relaxed_size += result.x_relaxed[p];
  }
  for (PairId f : frequent) {
    const double support = static_cast<double>(log.pair_total(f)) / total;
    result.relaxed_distance_sum +=
        std::abs(result.x_relaxed[f] / norm - support);
  }

  // Round without the greedy fill: filling blindly past the relaxed point
  // would trade the distance term away; the remainder repair alone keeps
  // the rounded point near the scalarized optimum.
  RoundingOptions rounding;
  rounding.greedy_fill = options.distance_weight == 0.0;
  result.x = RoundCounts(system, result.x_relaxed, rounding);
  for (uint64_t v : result.x) result.output_size += v;
  return result;
}

}  // namespace privsan
