// Figure 5 — Computational performance for solving D-UMP
// (e^ε = 1.7, δ = 1e-3; the paper plots log-scale runtime).
//
// Expected shape: SPE runs orders of magnitude faster than every LP-based
// solver (the paper: SPE ~ seconds vs 10^2-10^4 seconds for the rest).
// Absolute times are hardware-bound; the ordering is the reproduced result.
//
// Both cells run per solver through one SanitizerSession: the cold sweep
// is the figure (per-cell runtimes comparable to the paper's one-shot
// setup); a second, warm-started sweep over the same two cells reports in
// the JSON what basis chaining saves the LP-based solvers.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/session.h"
#include "util/table_printer.h"

using namespace privsan;

namespace {

struct CellSpec {
  double e_eps;
  double delta;
  std::string note;
};

}  // namespace

int main() {
  bench::BenchDataset dataset = bench::LoadDataset();
  bench::JsonReport report("fig5_solver_runtime");

  SessionOptions options;
  options.objective = UtilityObjective::kDiversity;
  options.dump.bnb.max_nodes = 50;
  options.dump.bnb.time_limit_seconds = 20.0;
  SanitizerSession session =
      SanitizerSession::Create(dataset.raw, options).value();

  // The paper's cell first. Under the equation-faithful budget (README,
  // "Fidelity notes", note 2) delta = 1e-3 admits no retained pairs, so its
  // runtimes measure pure solver overhead on a degenerate instance; the
  // second cell is non-degenerate and carries the meaningful comparison.
  const std::vector<CellSpec> cells = {{1.7, 1e-3, "  [paper's cell]"},
                                       {1.7, 0.5, "  [non-degenerate cell]"}};
  const std::vector<DumpSolverKind> solvers = {
      DumpSolverKind::kSpe, DumpSolverKind::kGreedy,
      DumpSolverKind::kLpRounding, DumpSolverKind::kBranchAndBound};

  std::vector<UmpQuery> grid;
  for (const CellSpec& cell : cells) {
    UmpQuery query;
    query.privacy = PrivacyParams::FromEEpsilon(cell.e_eps, cell.delta);
    grid.push_back(query);
  }

  // cold[s] / warm[s]: the sweep of both cells for solver s.
  std::vector<SweepResult> cold, warm;
  for (DumpSolverKind kind : solvers) {
    std::vector<UmpQuery> solver_grid = grid;
    for (UmpQuery& query : solver_grid) query.solver = kind;
    bench::WarmColdSweeps sweeps =
        bench::RunWarmColdSweeps(session, UtilityObjective::kDiversity,
                                 solver_grid)
            .value();
    cold.push_back(std::move(sweeps.cold));
    warm.push_back(std::move(sweeps.warm));
  }

  for (size_t c = 0; c < cells.size(); ++c) {
    TablePrinter table("Figure 5 — D-UMP solver runtime (e^eps = " +
                       bench::Shorten(cells[c].e_eps, 2) + ", delta = " +
                       bench::Shorten(cells[c].delta, 3) + ")" +
                       cells[c].note);
    table.SetHeader(
        {"solver", "retained", "seconds", "log10(s)", "slowdown vs SPE"});
    double spe_seconds = 0.0;
    for (size_t s = 0; s < solvers.size(); ++s) {
      const UmpSolution& solution = cold[s].cells[c];
      if (solvers[s] == DumpSolverKind::kSpe) {
        spe_seconds = solution.stats.wall_seconds;
      }
      const double seconds = std::max(solution.stats.wall_seconds, 1e-9);
      table.AddRow({DumpSolverKindToString(solvers[s]),
                    std::to_string(solution.output_size),
                    bench::Shorten(seconds, 6),
                    bench::Shorten(std::log10(seconds), 2),
                    spe_seconds > 0
                        ? bench::Shorten(seconds / spe_seconds, 1) + "x"
                        : "1.0x"});
      bench::JsonRecord record;
      record.Add("solver", DumpSolverKindToString(solvers[s]))
          .Add("e_eps", cells[c].e_eps)
          .Add("delta", cells[c].delta)
          .Add("pairs", static_cast<int64_t>(session.log().num_pairs()))
          .Add("users", static_cast<int64_t>(session.log().num_users()))
          .Add("retained", solution.output_size)
          .Add("seconds", seconds)
          .Add("lp_iterations", solution.stats.simplex_iterations)
          .Add("lp_refactorizations", solution.stats.refactorizations)
          .Add("bnb_nodes", solution.stats.nodes_explored)
          .Add("bnb_warm_solves", solution.stats.warm_solves)
          .Add("warm_retained", warm[s].cells[c].output_size)
          .Add("warm_seconds", warm[s].cells[c].stats.wall_seconds)
          .Add("warm_lp_iterations",
               warm[s].cells[c].stats.simplex_iterations);
      report.Add(std::move(record));
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  for (size_t s = 0; s < solvers.size(); ++s) {
    report.Add(bench::SweepComparisonRecord(
        std::string("fig5_") + DumpSolverKindToString(solvers[s]), warm[s],
        cold[s], bench::DumpObjectiveMismatches(warm[s], cold[s])));
  }
  std::cout << "paper Fig. 5 (log-scale runtime): SPE < bintprog < "
               "qsopt_ex < scip < feaspump, spanning ~4 orders of "
               "magnitude.\n";
  return 0;
}
