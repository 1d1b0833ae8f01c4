// Ablation — the end-to-end Laplace step (Section 4.2).
//
// Utility cost of making the count computation differentially private:
// output size and support fidelity as functions of the sensitivity bound d
// and the count-computation budget ε′. The paper discusses but does not
// evaluate this step ("the price of guaranteeing complete differential
// privacy"); this ablation fills that in.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/constraints.h"
#include "core/laplace_step.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "metrics/utility_metrics.h"
#include "util/table_printer.h"

using namespace privsan;

int main() {
  // Small slice: the sensitivity-bounding pass is O(#users) LP solves.
  SyntheticLogConfig config = BenchScaleConfig();
  config.num_users = 60;
  config.num_events = 6000;
  config.num_queries = 400;
  config.url_pool = 500;
  SearchLog log = RemoveUniquePairs(GenerateSearchLog(config).value()).log;
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution base =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  std::cout << "# slice: " << log.num_pairs() << " pairs, " << log.num_users()
            << " users, noise-free lambda = " << base.output_size << "\n\n";

  {
    TablePrinter table("Sensitivity bounding: users dropped vs d");
    table.SetHeader({"d", "users removed", "max retained shift",
                     "lambda afterwards"});
    for (double d : {16.0, 8.0, 4.0, 2.0, 1.0}) {
      auto bounded = BoundOumpSensitivity(log, params, d);
      if (!bounded.ok()) continue;
      std::string lambda = "-";
      if (bounded->log.num_pairs() > 0) {
        // The bounded log is a new log: its own rows and problem.
        DpConstraintSystem bounded_rows =
            DpConstraintSystem::BuildRows(bounded->log).value();
        auto after = MakeOumpProblem(bounded->log, &bounded_rows)
                         .value()
                         ->Solve({.privacy = params});
        if (after.ok()) lambda = std::to_string(after->output_size);
      }
      table.AddRow({bench::Shorten(d, 1),
                    std::to_string(bounded->users_removed),
                    bench::Shorten(bounded->max_shift_retained, 3), lambda});
    }
    table.Print(std::cout);
  }
  std::cout << "\n";
  {
    TablePrinter table("Laplace noise: utility vs eps' (d = 2, repaired)");
    table.SetHeader({"eps'", "noise scale d/eps'", "output size",
                     "repair scale", "L1 distortion"});
    for (double eps_prime : {8.0, 4.0, 2.0, 1.0, 0.5}) {
      LaplaceStepOptions options;
      options.d = 2.0;
      options.epsilon_prime = eps_prime;
      options.seed = 99;
      auto noisy = AddLaplaceNoise(log, params, base.x_relaxed, options);
      if (!noisy.ok()) continue;
      uint64_t l1 = 0;
      for (PairId p = 0; p < log.num_pairs(); ++p) {
        l1 += noisy->x[p] > base.x[p] ? noisy->x[p] - base.x[p]
                                      : base.x[p] - noisy->x[p];
      }
      table.AddRow({bench::Shorten(eps_prime, 1),
                    bench::Shorten(options.d / eps_prime, 2),
                    std::to_string(noisy->total),
                    bench::Shorten(noisy->scale_applied, 3),
                    std::to_string(l1)});
    }
    table.Print(std::cout);
  }
  std::cout << "\nreading: smaller d costs users up front but allows less "
               "noise for the same eps'; the repair scale shows how far "
               "noise pushed the counts outside the DP polytope.\n";
  return 0;
}
