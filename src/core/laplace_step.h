// End-to-end differential privacy for the count computation step (§4.2).
//
// The multinomial sampler is differentially private given the counts, but
// computing the optimal counts x* from D is itself a query against D. The
// paper makes that step ε′-differentially private the generic way:
//
//   1. bound the sensitivity of every pair's optimal count by d, by removing
//      any user log whose deletion would shift some optimal count by more
//      than d (leave-one-user-out re-solves of the same UMP);
//   2. add Lap(d/ε′) noise to every optimal count.
//
// Noise can push the counts outside the DP polytope; the paper accepts this
// as "likely fine" (zero-mean noise). privsan additionally offers a repair
// mode that scales the noisy vector back into the polytope, restoring the
// sampling-stage guarantee exactly at a small utility cost.
#ifndef PRIVSAN_CORE_LAPLACE_STEP_H_
#define PRIVSAN_CORE_LAPLACE_STEP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/constraints.h"
#include "core/privacy_params.h"
#include "log/search_log.h"
#include "util/result.h"

namespace privsan {

struct LaplaceStepOptions {
  // Sensitivity bound d (>0) and the count-computation privacy budget ε′.
  double d = 1.0;
  double epsilon_prime = 1.0;
  uint64_t seed = 42;
  // If true, rescale the noisy counts so every DP row fits its budget again
  // (multiplying all counts by one factor preserves their relative shape).
  bool repair_feasibility = true;
};

struct LaplaceStepResult {
  std::vector<uint64_t> x;  // noisy (and possibly repaired) counts
  double scale_applied = 1.0;  // 1.0 when no repair was needed
  uint64_t total = 0;
};

// Adds Lap(d/ε′) to each optimal count, clamps at 0, floors, and (optionally)
// repairs feasibility against the DP rows of `log`.
Result<LaplaceStepResult> AddLaplaceNoise(const SearchLog& log,
                                          const PrivacyParams& params,
                                          std::span<const double> x_optimal,
                                          const LaplaceStepOptions& options);

struct SensitivityBoundResult {
  SearchLog log;             // input with offending user logs removed
  size_t users_removed = 0;
  // Largest per-pair optimal-count shift observed among *retained* users.
  double max_shift_retained = 0.0;
};

// The §4.2 preprocessing pass for O-UMP: for every user log A_k, re-solve
// O-UMP on D − A_k and drop A_k if any pair's optimal count moves by more
// than d. One pass over the users of `log` (the paper leaves the iteration
// order unspecified; a single pass is the cheapest faithful reading).
// Cost: one LP solve per user — intended for small logs and the ablation
// bench, not the hot path.
Result<SensitivityBoundResult> BoundOumpSensitivity(
    const SearchLog& log, const PrivacyParams& params, double d);

}  // namespace privsan

#endif  // PRIVSAN_CORE_LAPLACE_STEP_H_
