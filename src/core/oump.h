// O-UMP: the Output-size Utility-Maximizing Problem (Section 5.1).
//
//   max  sum_ij x_ij
//   s.t. for every user log A_k:  sum_{(i,j) in A_k} x_ij log t_ijk <= B
//        x_ij >= 0 integer,       B = min{ε, log(1/(1−δ))}
//
// Solved by linear relaxation with the privsan simplex, then floored
// (Section 5.1: ⌊x*⌋ still satisfies Mx <= b because M, b >= 0). The optimal
// value λ = sum ⌊x*_ij⌋ is the maximum output size used throughout the
// paper's evaluation (Table 4) and as the |O| cap for F-UMP.
//
// The feasible region at budget B is B times the unit region, so one LP
// answers every budget: MakeOumpProblem (core/ump.h) keeps the optimum of
// its last simplex solve and answers warm requests at any other budget by
// scaling it, and SanitizerSession sweeps chain through that.
#ifndef PRIVSAN_CORE_OUMP_H_
#define PRIVSAN_CORE_OUMP_H_

#include <cstdint>
#include <vector>

#include "core/constraints.h"
#include "core/privacy_params.h"
#include "core/ump.h"
#include "log/search_log.h"
#include "lp/simplex.h"
#include "util/result.h"

namespace privsan {

struct OumpOptions {
  lp::SimplexOptions simplex;
  // Optional ablation (not in the paper): additionally require
  // x_ij <= c_ij, i.e. never emit a pair more often than the input saw it.
  bool cap_counts_at_input = false;
};

struct OumpResult {
  // Floored optimal counts per PairId of the input log.
  std::vector<uint64_t> x;
  // The LP-relaxed optimum.
  std::vector<double> x_relaxed;
  // λ = sum of floored counts (the maximum output size).
  uint64_t lambda = 0;
  // LP objective (sum of relaxed counts).
  double lp_objective = 0.0;
  int64_t simplex_iterations = 0;
  int simplex_refactorizations = 0;
};

// `log` must be preprocessed (no unique pairs). Fails with
// FailedPrecondition otherwise.
//
// DEPRECATED: one-shot compatibility wrapper over MakeOumpProblem
// (core/ump.h). It rebuilds the DP rows and the LP model on every call;
// use UmpProblem / SanitizerSession (core/session.h) for repeated solves.
PRIVSAN_DEPRECATED("use MakeOumpProblem / SanitizerSession (core/ump.h)")
Result<OumpResult> SolveOump(const SearchLog& log, const PrivacyParams& params,
                             const OumpOptions& options = {});

}  // namespace privsan

#endif  // PRIVSAN_CORE_OUMP_H_
