#include "verify.h"

#include <algorithm>
#include <cmath>

#include "core/audit.h"

namespace perfbench {

bool CountsSatisfyPrivacy(const privsan::SearchLog& log,
                          privsan::DpConstraintSystem* rows,
                          const privsan::PrivacyParams& privacy,
                          std::span<const uint64_t> x, std::string* why) {
  if (x.size() != log.num_pairs() || rows->num_pairs() != log.num_pairs()) {
    *why = "count vector has " + std::to_string(x.size()) + " entries for " +
           std::to_string(log.num_pairs()) + " pairs";
    return false;
  }
  const privsan::Result<privsan::AuditReport> audit =
      privsan::AuditSolution(log, privacy, x);
  if (!audit.ok()) {
    *why = "audit error: " + audit.status().ToString();
    return false;
  }
  if (!audit->satisfies_privacy) {
    *why = "audit rejects: " + audit->ToString();
    return false;
  }
  rows->SetBudget(privacy.Budget());
  if (!rows->IsSatisfied(x)) {
    *why = "a DP row exceeds the budget " + std::to_string(privacy.Budget());
    return false;
  }
  return true;
}

bool SameObjective(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace perfbench
