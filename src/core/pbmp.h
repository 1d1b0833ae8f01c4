// PBMP: the Privacy-Breach Minimizing Problem (extension).
//
// Section 7 of the paper sketches the dual of the UMPs as future work:
// instead of maximizing utility under a privacy budget, minimize the privacy
// exposure needed to reach a required utility. privsan implements the
// output-size flavor:
//
//   min  z
//   s.t. for every user log A_k: sum_{(i,j) in A_k} x_ij log t_ijk <= z,
//        sum_ij x_ij >= U,   x >= 0, z >= 0,
//
// an LP whose optimum z* is the smallest per-user exposure budget that
// still admits an output of size U. From z* one reads off the achievable
// privacy frontier: ε >= z*, or δ >= 1 − e^{−z*} when the δ condition is
// the binding one.
#ifndef PRIVSAN_CORE_PBMP_H_
#define PRIVSAN_CORE_PBMP_H_

#include <cstdint>
#include <vector>

#include "log/search_log.h"
#include "util/result.h"

namespace privsan {

struct PbmpOptions {
  uint64_t required_output_size = 0;  // U > 0
};

struct PbmpResult {
  // Minimum per-user exposure budget z*.
  double min_budget = 0.0;
  // Privacy frontier implied by z*.
  double min_epsilon = 0.0;   // = z*
  double min_delta = 0.0;     // = 1 − e^{−z*}
  // A count vector achieving it (relaxed; not floored — utility target U is
  // a hard constraint, flooring would undercut it).
  std::vector<double> x;
};

// `log` must be preprocessed (no unique pairs).
Result<PbmpResult> SolvePbmp(const SearchLog& log, const PbmpOptions& options);

}  // namespace privsan

#endif  // PRIVSAN_CORE_PBMP_H_
