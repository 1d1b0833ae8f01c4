// Ablation — which Theorem-1 condition binds where.
//
// Equation 4 merges Condition 2 (ratio, budget ε) and Condition 3 (leak,
// budget log(1/(1−δ))) into min{·,·}. This ablation maps the (ε, δ) grid to
// the binding condition and shows the resulting λ plateau structure — the
// mechanism behind Table 4's constant columns/rows. One SanitizerSession
// answers the whole grid from one O-UMP LP.
#include <iostream>

#include "bench_common.h"
#include "core/session.h"
#include "util/table_printer.h"

using namespace privsan;

int main() {
  bench::BenchDataset dataset = bench::LoadDataset();
  SanitizerSession session = SanitizerSession::Create(dataset.raw).value();

  TablePrinter table(
      "Ablation — binding condition (E = epsilon/Condition 2, "
      "D = delta/Condition 3) and lambda");
  std::vector<std::string> header = {"e^eps \\ delta"};
  for (double delta : bench::DeltaGrid()) {
    header.push_back(bench::Shorten(delta, delta < 0.01 ? 4 : 2));
  }
  table.SetHeader(header);

  for (double e_eps : bench::EEpsilonGrid()) {
    std::vector<std::string> row = {bench::Shorten(e_eps, 3)};
    for (double delta : bench::DeltaGrid()) {
      UmpQuery query;
      query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
      const UmpSolution cell =
          session.Solve(UtilityObjective::kOutputSize, query).value();
      row.push_back(std::string(query.privacy.DeltaBound() ? "D " : "E ") +
                    std::to_string(cell.output_size));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nreading: within a row, cells marked E share one lambda "
               "(epsilon binds); within a column, cells marked D share one "
               "lambda (delta binds). The E/D boundary is "
               "epsilon = log(1/(1-delta)).\n";
  return 0;
}
