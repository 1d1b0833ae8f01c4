// Table 4 — Maximum Output Size λ on e^ε and δ.
//
// Reproduces the paper's 7x7 grid of O-UMP optima. Expected shape (the
// paper's own): every column with a tiny δ is constant down the rows (the
// δ-term binds regardless of ε); every row plateaus once ε exceeds
// log(1/(1−δ)); λ is monotone in both parameters.
//
// Implementation note: the grid runs twice through one SanitizerSession —
// once with per-cell cold solves (the one-shot baseline) and once as a
// warm SweepBudgets. The O-UMP region at budget B is B times the unit
// region, so the warm sweep runs the simplex for its first cell only and
// answers every later cell by scaling that optimum and re-rounding; the
// objectives are identical by construction and cross-checked below.
//
// Fidelity note (also in EXPERIMENTS.md): the paper's absolute λ values
// (7–26% of |D|) are not attainable under its own Equation 4 — for every
// pair, sum_k log t_ijk >= sum_k c_ijk/c_ij = 1, which caps λ at
// (#users · B); privsan reports the equation-faithful values and reproduces
// the shape.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/session.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace privsan;

int main() {
  bench::BenchDataset dataset = bench::LoadDataset();
  bench::JsonReport report("table4_max_output");

  WallTimer timer;
  SanitizerSession session =
      SanitizerSession::Create(dataset.raw).value();
  const std::vector<UmpQuery> grid =
      bench::BudgetGrid(bench::EEpsilonGrid(), bench::DeltaGrid());

  bench::WarmColdSweeps sweeps =
      bench::RunWarmColdSweeps(session, UtilityObjective::kOutputSize, grid)
          .value();
  const SweepResult& cold = sweeps.cold;
  const SweepResult& warm = sweeps.warm;

  TablePrinter table("Table 4 — maximum output size lambda on e^eps and delta"
                     " (|D| = " +
                     std::to_string(session.log().total_clicks()) + ")");
  std::vector<std::string> header = {"e^eps \\ delta"};
  for (double delta : bench::DeltaGrid()) {
    header.push_back(bench::Shorten(delta, delta < 0.01 ? 4 : 2));
  }
  table.SetHeader(header);

  uint64_t min_lambda = ~0ull, max_lambda = 0;
  size_t cell = 0;
  for (double e_eps : bench::EEpsilonGrid()) {
    std::vector<std::string> row = {bench::Shorten(e_eps, 3)};
    for (double delta : bench::DeltaGrid()) {
      const UmpSolution& solution = warm.cells[cell];
      row.push_back(std::to_string(solution.output_size));
      min_lambda = std::min(min_lambda, solution.output_size);
      max_lambda = std::max(max_lambda, solution.output_size);
      bench::JsonRecord record;
      record.Add("e_eps", e_eps)
          .Add("delta", delta)
          .Add("lambda", solution.output_size)
          .Add("lp_objective", solution.objective_value)
          .Add("warm_started", static_cast<int64_t>(solution.stats.warm_started))
          .Add("warm_iterations", solution.stats.simplex_iterations)
          .Add("cold_iterations", cold.cells[cell].stats.simplex_iterations);
      report.Add(std::move(record));
      ++cell;
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  const int mismatches = bench::ObjectiveMismatches(warm, cold);
  report.Add(bench::SweepComparisonRecord("table4_oump_grid", warm, cold));

  const double total = static_cast<double>(session.log().total_clicks());
  std::cout << "\nlambda range: " << min_lambda << " .. " << max_lambda
            << "  (" << bench::Percent(min_lambda / total, 2) << " .. "
            << bench::Percent(max_lambda / total, 2)
            << " of |D|; paper reports 7.08% .. 26.2% — see fidelity note)\n";
  std::cout << "sweep: " << warm.warm_solves << "/" << grid.size()
            << " warm-started cells; simplex iterations "
            << warm.total_simplex_iterations << " warm vs "
            << cold.total_simplex_iterations << " cold; "
            << bench::Shorten(warm.wall_seconds, 2) << "s warm vs "
            << bench::Shorten(cold.wall_seconds, 2) << "s cold; "
            << mismatches << " objective mismatches\n";
  std::cout << "total wall time: " << bench::Shorten(timer.ElapsedSeconds(), 2)
            << "s\n";
  return mismatches == 0 ? 0 : 1;
}
