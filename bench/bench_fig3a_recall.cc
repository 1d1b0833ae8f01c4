// Figure 3(a) — F-UMP Recall on (ε, δ).
//
// Paper setup: |O| = 3000, s = 1/500, δ ∈ {0.01, 0.1, 0.5, 0.8} against the
// e^ε grid. Expected shape: fixing δ, recall rises with ε until
// ε = log(1/(1−δ)), then stays flat; larger δ lifts the plateau.
//
// privsan picks the fixed |O| as 75% of the largest λ over the swept cells
// (the paper's 3000 plays the same role against its Table 4), clamping
// per-cell when a tight budget makes λ smaller. Every cell runs through
// one SanitizerSession, so its O-UMP solves share one LP: the first solve
// runs the simplex and every later λ is a scaled answer.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/session.h"
#include "metrics/utility_metrics.h"
#include "util/table_printer.h"

using namespace privsan;

int main() {
  bench::BenchDataset dataset = bench::LoadDataset();
  bench::JsonReport report("fig3a_recall");
  const double min_support = 1.0 / 500;
  const std::vector<double> deltas = {0.01, 0.1, 0.5, 0.8};

  SessionOptions options;
  options.fump.min_support = min_support;
  SanitizerSession session =
      SanitizerSession::Create(dataset.raw, options).value();
  auto lambda_at = [&](const PrivacyParams& params) {
    UmpQuery query;
    query.privacy = params;
    return session.Solve(UtilityObjective::kOutputSize, query)
        .value()
        .output_size;
  };

  // Fixed target |O|: 75% of the largest grid λ, the role the paper's
  // |O| = 3000 plays against its Table 4 values.
  uint64_t max_lambda = 0;
  for (double e_eps : bench::EEpsilonGrid()) {
    for (double delta : deltas) {
      max_lambda = std::max(
          max_lambda, lambda_at(PrivacyParams::FromEEpsilon(e_eps, delta)));
    }
  }
  const uint64_t target = std::max<uint64_t>(1, max_lambda * 3 / 4);
  std::cout << "fixed output size |O| = " << target
            << " (clamped per cell to that cell's lambda), s = 1/500\n\n";

  TablePrinter table("Figure 3(a) — Recall of frequent query-url pairs");
  std::vector<std::string> header = {"delta \\ e^eps"};
  for (double e_eps : bench::EEpsilonGrid()) {
    header.push_back(bench::Shorten(e_eps, 3));
  }
  table.SetHeader(header);

  for (double delta : deltas) {
    std::vector<std::string> row = {bench::Shorten(delta, 2)};
    for (double e_eps : bench::EEpsilonGrid()) {
      UmpQuery query;
      query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
      const uint64_t lambda = lambda_at(query.privacy);
      if (lambda == 0) {
        row.push_back("0 (lambda=0)");
        continue;
      }
      query.output_size = std::min(target, lambda);
      auto result = session.Solve(UtilityObjective::kFrequentPairs, query);
      if (!result.ok()) {
        row.push_back("err");
        continue;
      }
      PrecisionRecall pr =
          FrequentPairMetrics(session.log(), result->x, min_support);
      row.push_back(bench::Shorten(pr.recall, 4));
      bench::JsonRecord record;
      record.Add("e_eps", e_eps)
          .Add("delta", delta)
          .Add("lambda", lambda)
          .Add("output_size", query.output_size)
          .Add("recall", pr.recall)
          .Add("precision", pr.precision);
      report.Add(std::move(record));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: recall non-decreasing along each row, "
               "plateau once eps >= log(1/(1-delta)); higher delta rows "
               "plateau higher (paper Fig. 3a).\n";
  return 0;
}
