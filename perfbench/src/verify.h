// Answer verification shared by the workloads. It runs untimed, after a
// pass, on what the pass returned.
#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/constraints.h"
#include "core/privacy_params.h"
#include "log/search_log.h"

namespace perfbench {

// Theorem 1 on a released count vector `x`, indexed by the PairIds of the
// preprocessed `log` whose DP rows are `rows`: the exact audit
// (AuditSolution) and the linear rows (DpConstraintSystem::IsSatisfied at
// the query's budget) must both accept it. On rejection `why` says which.
bool CountsSatisfyPrivacy(const privsan::SearchLog& log,
                          privsan::DpConstraintSystem* rows,
                          const privsan::PrivacyParams& privacy,
                          std::span<const uint64_t> x, std::string* why);

// LP objectives agree to 1e-6 relative.
bool SameObjective(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
