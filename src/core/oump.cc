#include "core/oump.h"

#include <memory>
#include <utility>

namespace privsan {

Result<OumpResult> SolveOump(const SearchLog& log, const PrivacyParams& params,
                             const OumpOptions& options) {
  PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem system,
                           DpConstraintSystem::BuildRows(log));
  OumpSpec spec;
  spec.cap_counts_at_input = options.cap_counts_at_input;
  PRIVSAN_ASSIGN_OR_RETURN(
      std::unique_ptr<UmpProblem> problem,
      MakeOumpProblem(log, &system, spec, options.simplex));
  UmpQuery query;
  query.privacy = params;
  PRIVSAN_ASSIGN_OR_RETURN(UmpSolution solution, problem->Solve(query));

  OumpResult result;
  result.x = std::move(solution.x);
  result.x_relaxed = std::move(solution.x_relaxed);
  result.lambda = solution.output_size;
  result.lp_objective = solution.objective_value;
  result.simplex_iterations = solution.stats.simplex_iterations;
  result.simplex_refactorizations = solution.stats.refactorizations;
  return result;
}

}  // namespace privsan
