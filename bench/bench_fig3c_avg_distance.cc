// Figure 3(c) — Average Support Distance on (s, |O|).
//
// Paper setup: e^ε = 2, δ = 0.5 fixed; sweep the minimum support s
// (log-scale x-axis) for six output sizes. Expected shape: the average
// support distance decreases as s increases (fewer, heavier pairs are easier
// to preserve), and larger |O| sits higher at fixed s.
#include <algorithm>
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
  bench::JsonReport report("fig3c_avg_distance");
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  // One set of DP rows for the log; the cells below rebind the budget and
  // |O| on one F-UMP problem per support.
  DpConstraintSystem rows =
      DpConstraintSystem::BuildRows(dataset.log).value();

  UmpSolution oump = MakeOumpProblem(dataset.log, &rows)
                         .value()
                         ->Solve({.privacy = params})
                         .value();
  const uint64_t lambda = oump.output_size;
  std::cout << "lambda(e^eps=2, delta=0.5) = " << lambda << "\n";
  if (lambda == 0) {
    std::cout << "budget too tight on this dataset scale; nothing to sweep\n";
    return 0;
  }
  // Six output sizes spanning (0, lambda], mirroring the paper's
  // |O| in {3000..8000} against lambda = 13088.
  std::vector<uint64_t> sizes;
  for (int i = 1; i <= 6; ++i) {
    uint64_t size = lambda * (22 + 10 * i) / 100;  // 32% .. 82%
    if (size == 0) size = 1;
    sizes.push_back(size);
  }

  TablePrinter table(
      "Figure 3(c) — average frequent-pair support distance "
      "(e^eps = 2, delta = 0.5)");
  std::vector<std::string> header = {"s \\ |O|"};
  for (uint64_t size : sizes) header.push_back(std::to_string(size));
  table.SetHeader(header);

  for (double support : bench::SupportGrid()) {
    std::vector<std::string> row = {"1/" + std::to_string(static_cast<int>(
                                               1.0 / support + 0.5))};
    std::unique_ptr<UmpProblem> fump =
        MakeFumpProblem(dataset.log, &rows, {.min_support = support}).value();
    for (uint64_t size : sizes) {
      auto result = fump->Solve({.privacy = params, .output_size = size});
      if (!result.ok()) {
        row.push_back("err");
        continue;
      }
      const double avg =
          SupportDistanceAverage(dataset.log, result->x, support);
      row.push_back(bench::Shorten(avg, 5));
      bench::JsonRecord record;
      record.Add("support", support)
          .Add("output_size", size)
          .Add("avg_distance", avg);
      report.Add(std::move(record));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: each column decreases as s grows "
               "(paper Fig. 3c; their x-axis is log-scale s).\n";
  return 0;
}
