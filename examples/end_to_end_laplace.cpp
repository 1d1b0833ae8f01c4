// End-to-end differential privacy (Section 4.2): making the *count
// computation* private, not just the sampling.
//
// The optimal counts x* are a function of the whole input, so releasing
// them verbatim leaks. The paper's remedy: (1) bound each pair's count
// sensitivity by d via leave-one-user-out preprocessing, (2) add Lap(d/eps')
// noise to the counts. This example runs both steps on a small workload and
// shows the utility cost of decreasing d (more users dropped) and of
// decreasing eps' (more noise).
#include <iostream>
#include <memory>
#include <numeric>

#include "core/constraints.h"
#include "core/laplace_step.h"
#include "core/sampler.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "synth/generator.h"

using namespace privsan;

int main() {
  SyntheticLogConfig config = TinyConfig();
  config.num_events = 1200;
  config.num_users = 25;
  config.num_queries = 150;
  Result<SearchLog> generated = GenerateSearchLog(config);
  if (!generated.ok()) {
    std::cerr << "failed to generate workload: " << generated.status()
              << std::endl;
    return 1;
  }
  SearchLog log = RemoveUniquePairs(*generated).log;
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);

  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  Result<UmpSolution> solved =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params});
  if (!solved.ok()) {
    std::cerr << "O-UMP solve failed: " << solved.status() << std::endl;
    return 1;
  }
  UmpSolution base = std::move(solved).value();
  std::cout << "workload: " << log.num_pairs() << " pairs, "
            << log.num_users() << " users; noise-free lambda = "
            << base.output_size << "\n\n";

  // --- Step 1: sensitivity bounding for a range of d. ----------------------
  std::cout << "sensitivity bounding (leave-one-user-out O-UMP re-solves):\n";
  for (double d : {20.0, 5.0, 1.0}) {
    Result<SensitivityBoundResult> bounded =
        BoundOumpSensitivity(log, params, d);
    if (!bounded.ok()) {
      std::cerr << "  d=" << d << ": " << bounded.status() << std::endl;
      continue;
    }
    std::cout << "  d=" << d << ": removed " << bounded->users_removed
              << " user logs; max retained per-pair shift = "
              << bounded->max_shift_retained << "\n";
  }

  // --- Step 2: Laplace noise on the counts for a range of eps'. ------------
  std::cout << "\nLap(d/eps') noise on the optimal counts (d = 2):\n";
  for (double eps_prime : {4.0, 1.0, 0.25}) {
    LaplaceStepOptions options;
    options.d = 2.0;
    options.epsilon_prime = eps_prime;
    options.seed = 7;
    options.repair_feasibility = true;
    LaplaceStepResult noisy =
        AddLaplaceNoise(log, params, base.x_relaxed, options).value();
    // L1 distortion between noise-free and noisy counts.
    uint64_t l1 = 0;
    for (PairId p = 0; p < log.num_pairs(); ++p) {
      l1 += noisy.x[p] > base.x[p] ? noisy.x[p] - base.x[p]
                                   : base.x[p] - noisy.x[p];
    }
    std::cout << "  eps'=" << eps_prime << ": output size " << noisy.total
              << " (vs " << base.output_size << "), L1 distortion " << l1
              << ", feasibility repair scale " << noisy.scale_applied
              << "\n";

    // The noisy counts still sample into a valid output log.
    SearchLog output = SampleOutput(log, noisy.x, 99).value();
    std::cout << "        sampled output: " << output.num_pairs()
              << " pairs, " << output.total_clicks() << " clicks\n";
  }

  std::cout << "\nNote: with repair_feasibility=true the sampling stage's "
               "(eps, delta) guarantee holds exactly even after noise; "
               "without it, noise may push counts outside the DP polytope "
               "(the paper accepts this, as the noise is zero-mean).\n";
  return 0;
}
