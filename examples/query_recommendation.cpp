// Query recommendation scenario (the F-UMP use case from the paper's
// introduction): a search engine wants to release a sanitized log from which
// a downstream team builds query -> url click-through recommendations.
// Recommendation quality depends on the *frequent* query-url pairs keeping
// their relative supports, which is exactly what F-UMP maximizes.
//
// The example sanitizes a workload with F-UMP, then compares the top-N
// click-through ranking mined from the input against the one mined from the
// sanitized output, alongside the paper's Precision/Recall metrics.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/session.h"
#include "metrics/utility_metrics.h"
#include "synth/generator.h"

using namespace privsan;

namespace {

// Returns pairs sorted by descending count: a trivial "recommendation
// ranking" (most clicked query-url associations first).
std::vector<std::pair<std::string, uint64_t>> TopPairs(const SearchLog& log,
                                                       size_t n) {
  std::vector<std::pair<std::string, uint64_t>> ranked;
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    ranked.emplace_back(log.query_name(log.pair_query(p)) + " -> " +
                            log.url_name(log.pair_url(p)),
                        log.pair_total(p));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (ranked.size() > n) ranked.resize(n);
  return ranked;
}

}  // namespace

int main() {
  SyntheticLogConfig config = TinyConfig();
  config.num_events = 6000;
  config.num_users = 120;
  config.num_queries = 800;
  SearchLog input = GenerateSearchLog(config).value();

  const double min_support = 1.0 / 200;

  SessionOptions options;
  options.objective = UtilityObjective::kFrequentPairs;
  options.fump.min_support = min_support;
  options.output_size = 0;  // auto: the maximum size lambda
  Result<SanitizerSession> session = SanitizerSession::Create(input, options);
  if (!session.ok()) {
    std::cerr << "sanitization failed: " << session.status() << std::endl;
    return 1;
  }

  Result<SanitizeReport> report =
      session->Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5));
  if (!report.ok()) {
    std::cerr << "sanitization failed: " << report.status() << std::endl;
    return 1;
  }
  const SearchLog& reference = report->preprocessed_input;

  // Paper metrics (Section 6.3) on the optimal counts.
  PrecisionRecall pr =
      FrequentPairMetrics(reference, report->optimal_counts, min_support);
  std::cout << "F-UMP sanitization with s = 1/200, " << "e^eps = 2, "
            << "delta = 0.5\n";
  std::cout << "frequent pairs: input " << pr.input_frequent << ", output "
            << pr.output_frequent << ", common " << pr.common << "\n";
  std::cout << "Precision = " << pr.precision << ", Recall = " << pr.recall
            << "\n";
  std::cout << "sum of support distances = "
            << SupportDistanceSum(reference, report->optimal_counts,
                                  min_support)
            << "\n";
  std::cout << "privacy audit: " << report->audit.ToString() << "\n\n";

  // Recommendation ranking comparison: input vs sanitized output.
  constexpr size_t kTop = 8;
  auto input_top = TopPairs(reference, kTop);
  auto output_top = TopPairs(report->output, kTop);
  std::cout << std::left << std::setw(44) << "top input click-throughs"
            << "top sanitized click-throughs\n";
  for (size_t i = 0; i < kTop; ++i) {
    std::string left = i < input_top.size()
                           ? input_top[i].first + " (" +
                                 std::to_string(input_top[i].second) + ")"
                           : "";
    std::string right = i < output_top.size()
                            ? output_top[i].first + " (" +
                                  std::to_string(output_top[i].second) + ")"
                            : "";
    std::cout << std::left << std::setw(44) << left << right << "\n";
  }

  // Overlap of the two rankings — a proxy for recommendation fidelity.
  size_t overlap = 0;
  for (const auto& [name, count] : output_top) {
    for (const auto& [input_name, input_count] : input_top) {
      if (name == input_name) {
        ++overlap;
        break;
      }
    }
  }
  std::cout << "\ntop-" << kTop << " ranking overlap: " << overlap << "/"
            << kTop << "\n";
  return 0;
}
