// Figure 3(b) — F-UMP Sum of Support Distances on (ε, δ).
//
// Same sweep as Figure 3(a); the metric is Equation 5 evaluated on the
// rounded counts. Expected shape: the inverse of 3(a) — distances shrink as
// ε grows, flatten at the δ cap, and larger δ gives lower curves. As in
// 3(a), one SanitizerSession answers every cell's λ from one O-UMP LP.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/session.h"
#include "metrics/utility_metrics.h"
#include "util/table_printer.h"

using namespace privsan;

int main() {
  bench::BenchDataset dataset = bench::LoadDataset();
  bench::JsonReport report("fig3b_support_distance");
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

  uint64_t max_lambda = 0;
  for (double e_eps : bench::EEpsilonGrid()) {
    for (double delta : deltas) {
      max_lambda = std::max(
          max_lambda, lambda_at(PrivacyParams::FromEEpsilon(e_eps, delta)));
    }
  }
  const uint64_t target = std::max<uint64_t>(1, max_lambda * 3 / 4);
  std::cout << "fixed output size |O| = " << target << ", s = 1/500\n\n";

  TablePrinter table(
      "Figure 3(b) — sum of frequent-pair support distances (Eq. 5)");
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
        // No output at all: every frequent pair is at full distance.
        row.push_back(bench::Shorten(
            SupportDistanceSum(session.log(),
                               std::vector<uint64_t>(
                                   session.log().num_pairs(), 0),
                               min_support),
            4));
        continue;
      }
      query.output_size = std::min(target, lambda);
      auto result = session.Solve(UtilityObjective::kFrequentPairs, query);
      if (!result.ok()) {
        row.push_back("err");
        continue;
      }
      const double distance =
          SupportDistanceSum(session.log(), result->x, min_support);
      row.push_back(bench::Shorten(distance, 4));
      bench::JsonRecord record;
      record.Add("e_eps", e_eps)
          .Add("delta", delta)
          .Add("output_size", query.output_size)
          .Add("distance_sum", distance);
      report.Add(std::move(record));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: inverse of Figure 3(a) — distances fall "
               "with eps, flatten at the delta cap, larger delta lower "
               "(paper Fig. 3b).\n";
  return 0;
}
