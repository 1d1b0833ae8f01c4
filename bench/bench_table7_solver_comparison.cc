// Table 7 — Retained Diversity Utility of Different BIP Solvers.
//
// Paper setup: (a) e^ε = 2 fixed, δ swept; (b) δ = 0.1 fixed, e^ε swept.
// Solvers: SPE (Algorithm 2) vs Matlab bintprog / NEOS qsopt_ex / scip
// (exact solvers under practical limits — privsan's budgeted branch &
// bound) and NEOS feaspump (privsan's LP rounding), plus the constructive
// greedy as an extra baseline.
//
// Each solver row runs through SanitizerSession::SweepBudgets twice: a cold
// per-cell baseline, then the warm sweep in which every LP-based cell
// (LP rounding, and the branch & bound root) dual-warm-starts from the
// previous cell's optimal basis — the cells share the BIP constraint
// matrix, only the budget rhs moves. SPE and the greedy solve no LPs, so
// their two runs coincide.
//
// Expected shape: all solvers track the same rising trend; SPE is
// competitive with the LP-based heuristic at a fraction of its cost, and
// the budgeted exact solver trails on large instances.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/session.h"
#include "util/table_printer.h"

using namespace privsan;

namespace {

struct PartSpec {
  std::string name;
  std::string title;
  std::string axis;                 // row-header label
  std::vector<double> e_epsilons;   // one entry = fixed
  std::vector<double> deltas;       // one entry = fixed
};

void RunPart(SanitizerSession& session, const PartSpec& part,
             const std::vector<DumpSolverKind>& solvers,
             bench::JsonReport& report) {
  const std::vector<UmpQuery> base_grid =
      bench::BudgetGrid(part.e_epsilons, part.deltas);
  const std::vector<double>& swept =
      part.deltas.size() > 1 ? part.deltas : part.e_epsilons;

  TablePrinter table(part.title);
  std::vector<std::string> header = {part.axis};
  for (double value : swept) {
    header.push_back(bench::Shorten(value, value < 0.01 ? 3 : 2));
  }
  table.SetHeader(header);

  // Part-level totals across all solvers: the B&B tree totals alone are
  // not warm-vs-cold comparable (a different root vertex reorders the
  // budgeted search), but the whole part and the root LPs are.
  int64_t warm_total = 0, cold_total = 0, warm_root = 0, cold_root = 0;
  int64_t warm_cells = 0;
  int mismatches = 0;
  for (DumpSolverKind kind : solvers) {
    std::vector<UmpQuery> grid = base_grid;
    for (UmpQuery& query : grid) query.solver = kind;

    Result<bench::WarmColdSweeps> sweeps = bench::RunWarmColdSweeps(
        session, UtilityObjective::kDiversity, grid);
    if (!sweeps.ok()) {
      table.AddRow({DumpSolverKindToString(kind), "err"});
      continue;
    }
    const SweepResult& cold = sweeps->cold;
    const SweepResult& warm = sweeps->warm;

    const double pairs = static_cast<double>(session.log().num_pairs());
    std::vector<std::string> row = {DumpSolverKindToString(kind)};
    const int row_mismatches = bench::DumpObjectiveMismatches(warm, cold);
    for (size_t i = 0; i < warm.cells.size(); ++i) {
      const UmpSolution& solution = warm.cells[i];
      const double ratio =
          pairs == 0.0 ? 0.0
                       : static_cast<double>(solution.output_size) / pairs;
      row.push_back(bench::Percent(ratio, 1));
      bench::JsonRecord record;
      record.Add("part", part.name)
          .Add("solver", DumpSolverKindToString(kind))
          .Add("e_eps", std::exp(grid[i].privacy.epsilon))
          .Add("delta", grid[i].privacy.delta)
          .Add("pairs", static_cast<int64_t>(session.log().num_pairs()))
          .Add("diversity_ratio", ratio)
          .Add("retained", solution.output_size)
          .Add("cold_retained", cold.cells[i].output_size)
          .Add("seconds", solution.stats.wall_seconds)
          .Add("warm_started",
               static_cast<int64_t>(solution.stats.warm_started))
          .Add("lp_iterations", solution.stats.simplex_iterations)
          .Add("cold_lp_iterations", cold.cells[i].stats.simplex_iterations)
          .Add("lp_refactorizations", solution.stats.refactorizations)
          .Add("bnb_nodes", solution.stats.nodes_explored)
          .Add("bnb_warm_solves", solution.stats.warm_solves)
          .Add("integer_fixed", solution.stats.integer_fixed)
          .Add("proven_optimal",
               static_cast<int64_t>(solution.proven_optimal));
      report.Add(std::move(record));
    }
    table.AddRow(std::move(row));
    report.Add(bench::SweepComparisonRecord(
        part.name + "_" + DumpSolverKindToString(kind), warm, cold,
        row_mismatches));
    warm_total += warm.totals().simplex_iterations;
    cold_total += cold.totals().simplex_iterations;
    warm_root += bench::RootIterations(warm);
    cold_root += bench::RootIterations(cold);
    warm_cells += warm.warm_cells();
    mismatches += row_mismatches;
  }
  table.Print(std::cout);

  bench::JsonRecord total;
  total.Add("record", "sweep_aggregate")
      .Add("label", part.name + "_total")
      .Add("warm_cells", warm_cells)
      .Add("warm_total_simplex_iterations", warm_total)
      .Add("cold_total_simplex_iterations", cold_total)
      .Add("warm_root_iterations", warm_root)
      .Add("cold_root_iterations", cold_root)
      .Add("objective_mismatches", mismatches);
  report.Add(std::move(total));
  std::cout << part.name << ": " << warm_cells
            << " warm-started cells; simplex iterations " << warm_total
            << " warm vs " << cold_total << " cold (root LPs only: "
            << warm_root << " vs " << cold_root << "); " << mismatches
            << " objective mismatches\n";
}

}  // namespace

int main() {
  bench::BenchDataset dataset = bench::LoadDataset();
  bench::JsonReport report("table7_solver_comparison");

  SessionOptions options;
  options.objective = UtilityObjective::kDiversity;
  options.dump.bnb.max_nodes = 50;
  options.dump.bnb.time_limit_seconds = 8.0;
  SanitizerSession session =
      SanitizerSession::Create(dataset.raw, options).value();

  const std::vector<DumpSolverKind> solvers = {
      DumpSolverKind::kSpe, DumpSolverKind::kGreedy,
      DumpSolverKind::kLpRounding, DumpSolverKind::kBranchAndBound};

  RunPart(session,
          {"table7a", "Table 7(a) — retained diversity, e^eps = 2",
           "solver \\ delta", {2.0}, {1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8}},
          solvers, report);
  std::cout << "\n";
  RunPart(session,
          {"table7b", "Table 7(b) — retained diversity, delta = 0.1",
           "solver \\ e^eps", {1.01, 1.1, 1.4, 1.7, 2.0, 2.3}, {0.1}},
          solvers, report);

  std::cout << "\npaper Table 7: SPE 9.5%-30.6%, within ~1 percentage point "
               "of the best solver in every cell and above the exact "
               "solvers under limits in most.\n";
  return 0;
}
