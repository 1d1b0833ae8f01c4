#include "core/pbmp.h"

#include <cmath>

#include "core/constraints.h"
#include "core/privacy_params.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace privsan {

Result<PbmpResult> SolvePbmp(const SearchLog& log,
                             const PbmpOptions& options) {
  if (options.required_output_size == 0) {
    return Status::InvalidArgument("required_output_size must be > 0");
  }
  // Build the t_ijk rows with placeholder privacy parameters: only the
  // coefficients matter here, the budget becomes the variable z.
  PRIVSAN_ASSIGN_OR_RETURN(
      DpConstraintSystem system,
      DpConstraintSystem::Build(log, PrivacyParams{1.0, 0.5}));

  lp::LpModel model(lp::ObjectiveSense::kMinimize);
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    model.AddVariable(0.0, lp::kInfinity, 0.0);
  }
  const int z = model.AddVariable(0.0, lp::kInfinity, 1.0);

  for (size_t r = 0; r < system.num_rows(); ++r) {
    // sum x log t − z <= 0.
    const int row = model.AddConstraint(lp::ConstraintSense::kLessEqual, 0.0);
    for (const DpConstraintEntry& e : system.Row(r)) {
      model.AddCoefficient(row, static_cast<int>(e.pair), e.log_t);
    }
    model.AddCoefficient(row, z, -1.0);
  }
  {
    const int row = model.AddConstraint(
        lp::ConstraintSense::kGreaterEqual,
        static_cast<double>(options.required_output_size));
    for (PairId p = 0; p < log.num_pairs(); ++p) {
      model.AddCoefficient(row, static_cast<int>(p), 1.0);
    }
  }
  PRIVSAN_RETURN_IF_ERROR(model.Validate());

  lp::LpSolution lp = lp::SimplexSolver().Solve(model);
  if (lp.status != lp::SolveStatus::kOptimal) {
    return Status::Internal(std::string("PBMP LP solve failed: ") +
                            lp::SolveStatusToString(lp.status));
  }

  PbmpResult result;
  result.min_budget = lp.objective;
  result.min_epsilon = lp.objective;
  result.min_delta = -std::expm1(-lp.objective);
  result.x.assign(lp.x.begin(), lp.x.begin() + log.num_pairs());
  return result;
}

}  // namespace privsan
