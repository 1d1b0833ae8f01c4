// Figure 4 — Maximum query-url pair diversity on (ε, δ), SPE heuristic.
//
// D-UMP retained-pair percentage over the same (ε, δ) sweep as Figure 3(a).
// Expected shape: identical trend to F-UMP recall — rising in ε until the
// δ cap binds, higher δ curves higher; the paper tops out around 30%.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/constraints.h"
#include "core/ump.h"
#include "metrics/utility_metrics.h"
#include "util/table_printer.h"

using namespace privsan;

int main() {
  bench::BenchDataset dataset = bench::LoadDataset();
  bench::JsonReport report("fig4_diversity");
  const std::vector<double> deltas = {0.01, 0.1, 0.5, 0.8};
  // One set of DP rows and one SPE problem; each cell rebinds the budget.
  DpConstraintSystem rows =
      DpConstraintSystem::BuildRows(dataset.log).value();
  std::unique_ptr<UmpProblem> dump =
      MakeDumpProblem(dataset.log, &rows, {.solver = DumpSolverKind::kSpe})
          .value();

  TablePrinter table(
      "Figure 4 — max retained query-url pairs (%) via SPE (Algorithm 2)");
  std::vector<std::string> header = {"delta \\ e^eps"};
  for (double e_eps : bench::EEpsilonGrid()) {
    header.push_back(bench::Shorten(e_eps, 3));
  }
  table.SetHeader(header);

  for (double delta : deltas) {
    std::vector<std::string> row = {bench::Shorten(delta, 2)};
    for (double e_eps : bench::EEpsilonGrid()) {
      PrivacyParams params = PrivacyParams::FromEEpsilon(e_eps, delta);
      auto result = dump->Solve({.privacy = params});
      if (!result.ok()) {
        row.push_back("err");
        continue;
      }
      const double diversity_ratio = DiversityRatio(result->x);
      row.push_back(bench::Percent(diversity_ratio, 2));
      bench::JsonRecord record;
      record.Add("e_eps", e_eps)
          .Add("delta", delta)
          .Add("retained", result->output_size)
          .Add("diversity_ratio", diversity_ratio)
          .Add("seconds", result->stats.wall_seconds);
      report.Add(std::move(record));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: same rising-then-plateau trend as "
               "Figure 3(a); the paper reaches ~30% at (e^eps=2.3, "
               "delta=0.8).\n";
  return 0;
}
