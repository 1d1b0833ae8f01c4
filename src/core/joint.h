// Joint utility maximization — the multi-objective extension sketched in
// Section 7 of the paper ("explore ways of combining different utility
// notions to create a single joint objective").
//
// privsan implements the natural scalarization of O-UMP and F-UMP:
//
//   max  size_weight · (sum_ij x_ij) / λ_norm
//        − distance_weight · (sum over frequent f of |x_f/λ_norm − s_f|·|D|/λ_norm)
//
// subject to the Theorem-1 DP rows. Rather than fixing the output size |O|
// (F-UMP) or ignoring support fidelity entirely (O-UMP), the weights trade
// the two off along a Pareto frontier:
//   * distance_weight = 0 recovers O-UMP exactly;
//   * size_weight → 0 drives the solution to the support-optimal shape.
// Normalization uses λ (the O-UMP optimum) so both terms are O(1) and the
// weights are scale-free.
#ifndef PRIVSAN_CORE_JOINT_H_
#define PRIVSAN_CORE_JOINT_H_

#include <cstdint>
#include <vector>

#include "core/privacy_params.h"
#include "log/search_log.h"
#include "util/result.h"

namespace privsan {

struct JointUmpOptions {
  double size_weight = 1.0;      // >= 0
  double distance_weight = 1.0;  // >= 0; both zero is invalid
  double min_support = 1.0 / 500;
};

struct JointUmpResult {
  std::vector<uint64_t> x;        // rounded counts per PairId
  std::vector<double> x_relaxed;  // LP optimum
  uint64_t output_size = 0;
  double objective = 0.0;  // scalarized LP objective
  // Components at the relaxed optimum, for Pareto analysis.
  double relaxed_size = 0.0;
  double relaxed_distance_sum = 0.0;
  uint64_t lambda = 0;  // the O-UMP optimum used for normalization
};

// `log` must be preprocessed (no unique pairs).
Result<JointUmpResult> SolveJointUmp(const SearchLog& log,
                                     const PrivacyParams& params,
                                     const JointUmpOptions& options = {});

}  // namespace privsan

#endif  // PRIVSAN_CORE_JOINT_H_
