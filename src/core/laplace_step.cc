#include "core/laplace_step.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/ump.h"
#include "log/preprocess.h"
#include "rng/distributions.h"
#include "rng/random.h"

namespace privsan {

Result<LaplaceStepResult> AddLaplaceNoise(const SearchLog& log,
                                          const PrivacyParams& params,
                                          std::span<const double> x_optimal,
                                          const LaplaceStepOptions& options) {
  if (x_optimal.size() != log.num_pairs()) {
    return Status::InvalidArgument(
        "count vector size does not match the log's pair count");
  }
  if (!(options.d > 0.0) || !(options.epsilon_prime > 0.0)) {
    return Status::InvalidArgument("d and epsilon_prime must be > 0");
  }
  PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem system,
                           DpConstraintSystem::Build(log, params));

  Rng rng(options.seed);
  const double scale = options.d / options.epsilon_prime;
  std::vector<double> noisy(x_optimal.begin(), x_optimal.end());
  for (double& v : noisy) {
    v = std::max(0.0, v + SampleLaplace(rng, scale));
  }

  LaplaceStepResult result;
  if (options.repair_feasibility) {
    // One multiplicative shrink restores every row: the rows are linear in
    // x with non-negative coefficients.
    double worst = 1.0;
    for (size_t r = 0; r < system.num_rows(); ++r) {
      const double lhs = system.RowLhs(r, std::span<const double>(noisy));
      if (lhs > system.budget()) {
        worst = std::max(worst, lhs / system.budget());
      }
    }
    if (worst > 1.0) {
      const double factor = 1.0 / worst;
      for (double& v : noisy) v *= factor;
      result.scale_applied = factor;
    }
  }

  result.x.resize(noisy.size());
  for (size_t p = 0; p < noisy.size(); ++p) {
    result.x[p] = static_cast<uint64_t>(std::floor(noisy[p]));
    result.total += result.x[p];
  }
  return result;
}

Result<SensitivityBoundResult> BoundOumpSensitivity(
    const SearchLog& log, const PrivacyParams& params, double d,
    const lp::SimplexOptions& simplex) {
  if (!(d > 0.0)) {
    return Status::InvalidArgument("d must be > 0");
  }
  PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem base_rows,
                           DpConstraintSystem::BuildRows(log));
  PRIVSAN_ASSIGN_OR_RETURN(std::unique_ptr<UmpProblem> base_problem,
                           MakeOumpProblem(log, &base_rows, {}, simplex));
  PRIVSAN_ASSIGN_OR_RETURN(UmpSolution base,
                           base_problem->Solve({.privacy = params}));

  SensitivityBoundResult result;
  std::vector<bool> drop(log.num_users(), false);
  for (UserId u = 0; u < log.num_users(); ++u) {
    if (log.UserLogOf(u).empty()) continue;
    // Rebuild D − A_k. Pairs held only by u become unique (or empty) in the
    // leave-one-out log and are removed there, matching the paper's
    // preprocessing of the neighboring input.
    SearchLogBuilder builder;
    for (UserId v = 0; v < log.num_users(); ++v) {
      if (v == u) continue;
      for (const PairCount& cell : log.UserLogOf(v)) {
        builder.Add(log.user_name(v),
                    log.query_name(log.pair_query(cell.pair)),
                    log.url_name(log.pair_url(cell.pair)), cell.count);
      }
    }
    PreprocessResult cleaned = RemoveUniquePairs(builder.Build());
    PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem rows,
                             DpConstraintSystem::BuildRows(cleaned.log));
    PRIVSAN_ASSIGN_OR_RETURN(
        std::unique_ptr<UmpProblem> problem,
        MakeOumpProblem(cleaned.log, &rows, {}, simplex));
    PRIVSAN_ASSIGN_OR_RETURN(UmpSolution without,
                             problem->Solve({.privacy = params}));

    // Compare per-pair counts by (query, url) identity.
    double max_shift = 0.0;
    std::vector<double> matched(log.num_pairs(), 0.0);
    for (PairId q = 0; q < cleaned.log.num_pairs(); ++q) {
      auto found = log.FindPair(
          cleaned.log.query_name(cleaned.log.pair_query(q)),
          cleaned.log.url_name(cleaned.log.pair_url(q)));
      if (found.ok()) matched[*found] = without.x_relaxed[q];
    }
    for (PairId p = 0; p < log.num_pairs(); ++p) {
      max_shift = std::max(max_shift,
                           std::abs(base.x_relaxed[p] - matched[p]));
    }
    if (max_shift > d) {
      drop[u] = true;
      ++result.users_removed;
    } else {
      result.max_shift_retained =
          std::max(result.max_shift_retained, max_shift);
    }
  }

  SearchLogBuilder retained;
  for (UserId u = 0; u < log.num_users(); ++u) {
    if (drop[u]) continue;
    for (const PairCount& cell : log.UserLogOf(u)) {
      retained.Add(log.user_name(u),
                   log.query_name(log.pair_query(cell.pair)),
                   log.url_name(log.pair_url(cell.pair)), cell.count);
    }
  }
  // Dropping users can create fresh unique pairs; re-apply Condition 1.
  result.log = RemoveUniquePairs(retained.Build()).log;
  return result;
}

}  // namespace privsan
