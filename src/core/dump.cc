#include "core/dump.h"

namespace privsan {

lp::BipProblem BipFromConstraintRows(const DpConstraintSystem& system) {
  lp::BipProblem problem;
  problem.num_rows = static_cast<int>(system.num_rows());
  problem.rhs.assign(system.num_rows(), system.budget());
  problem.columns.assign(system.num_pairs(), {});
  for (size_t r = 0; r < system.num_rows(); ++r) {
    for (const DpConstraintEntry& e : system.Row(r)) {
      problem.columns[e.pair].push_back(
          lp::SparseEntry{static_cast<int>(r), e.log_t});
    }
  }
  return problem;
}

Result<lp::BipProblem> BuildDumpBip(const SearchLog& log,
                                    const PrivacyParams& params) {
  PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem system,
                           DpConstraintSystem::Build(log, params));
  return BipFromConstraintRows(system);
}

}  // namespace privsan
