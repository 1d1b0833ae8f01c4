// Ablation — simplex scaling with problem size.
//
// O-UMP LP cost versus the number of users (constraints) and pairs
// (variables), on growing slices of the synthetic workload: one cold solve
// per slice (DP rows, LP model and simplex, timed together) on the sparse
// LU basis with Forrest–Tomlin updates. Documents how iterations and
// per-pivot cost grow toward paper scale (PRIVSAN_BENCH_SCALE=full).
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/constraints.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace privsan;

int main() {
  TablePrinter table("Ablation — O-UMP simplex cost vs dataset size");
  table.SetHeader({"users", "pairs", "|D|", "iterations", "seconds",
                   "lambda"});
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);

  for (size_t users : {50, 100, 200, 400}) {
    SyntheticLogConfig config = BenchScaleConfig();
    config.num_users = users;
    config.num_events = users * 90;
    config.num_queries = users * 6;
    config.url_pool = users * 8;
    SearchLog log = RemoveUniquePairs(
        GenerateSearchLog(config).value()).log;
    if (log.num_pairs() == 0) continue;
    WallTimer timer;
    DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
    Result<UmpSolution> result = MakeOumpProblem(log, &rows).value()->Solve(
        {.privacy = params});
    if (!result.ok()) {
      std::cout << "users=" << users << ": " << result.status() << "\n";
      continue;
    }
    table.AddRow({std::to_string(log.num_users()),
                  std::to_string(log.num_pairs()),
                  std::to_string(log.total_clicks()),
                  std::to_string(result->stats.simplex_iterations),
                  bench::Shorten(timer.ElapsedSeconds(), 3),
                  std::to_string(result->output_size)});
  }
  table.Print(std::cout);
  std::cout << "\nreading: iterations grow faster than m (= users), about "
               "3x per doubling of the slice; each pivot's cost grows with "
               "the problem's nonzeros: sparse LU FTRAN/BTRAN with "
               "Forrest-Tomlin updates plus one pricing pass over the "
               "nonbasic columns.\n";
  return 0;
}
