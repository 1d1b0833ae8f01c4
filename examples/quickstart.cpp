// Quickstart: sanitize a search log with (ε, δ)-probabilistic differential
// privacy and maximum output size (O-UMP), end to end.
//
//   ./quickstart [input.tsv]
//
// Without an argument a synthetic AOL-profile workload is generated. With a
// TSV path (`user<TAB>query<TAB>url<TAB>count` rows) your own log is used.
#include <iostream>

#include "core/session.h"
#include "log/log_io.h"
#include "synth/characteristics.h"
#include "synth/generator.h"

using namespace privsan;

int main(int argc, char** argv) {
  // 1. Obtain an input search log.
  SearchLog input;
  if (argc > 1) {
    Result<SearchLog> loaded = ReadSearchLogTsv(argv[1]);
    if (!loaded.ok()) {
      std::cerr << "failed to read " << argv[1] << ": " << loaded.status()
                << std::endl;
      return 1;
    }
    input = std::move(loaded).value();
  } else {
    SyntheticLogConfig config = TinyConfig();
    config.num_events = 4000;
    config.num_users = 80;
    config.num_queries = 500;
    Result<SearchLog> generated = GenerateSearchLog(config);
    if (!generated.ok()) {
      std::cerr << "failed to generate workload: " << generated.status()
                << std::endl;
      return 1;
    }
    input = std::move(generated).value();
  }
  std::cout << "input:  " << ComputeCharacteristics(input).ToString()
            << "\n";

  // 2. Configure the sanitizer: maximize output size, sample with seed 42.
  //    Creating the session runs Condition-1 preprocessing and builds the
  //    DP rows.
  SessionOptions options;
  options.objective = UtilityObjective::kOutputSize;
  options.seed = 42;
  Result<SanitizerSession> session = SanitizerSession::Create(input, options);
  if (!session.ok()) {
    std::cerr << "sanitization failed: " << session.status() << std::endl;
    return 1;
  }

  // 3. Run Algorithm 1 at e^eps = 2, delta = 0.5 (a mid-grid point of the
  //    paper's evaluation): optimize -> multinomial sampling -> audit.
  Result<SanitizeReport> report =
      session->Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5));
  if (!report.ok()) {
    std::cerr << "sanitization failed: " << report.status() << std::endl;
    return 1;
  }

  // 4. Inspect the result. The output log has the input's schema and can be
  //    analyzed exactly like the input.
  std::cout << "after Condition-1 preprocessing: "
            << report->preprocessed_input.num_pairs()
            << " shared query-url pairs ("
            << report->preprocess_stats.pairs_removed
            << " unique pairs removed)\n";
  std::cout << "output: " << ComputeCharacteristics(report->output).ToString()
            << "\n";
  std::cout << "maximum output size lambda = " << report->output_size << " ("
            << (100.0 * static_cast<double>(report->output_size) /
                static_cast<double>(
                    report->preprocessed_input.total_clicks()))
            << "% of the preprocessed input)\n";
  std::cout << "privacy audit: " << report->audit.ToString() << "\n";

  // 5. A few sample output tuples.
  const SearchLog& output = report->output;
  std::cout << "\nsample output tuples (user, query, url, count):\n";
  size_t shown = 0;
  for (UserId u = 0; u < output.num_users() && shown < 5; ++u) {
    for (const PairCount& cell : output.UserLogOf(u)) {
      std::cout << "  " << output.user_name(u) << "\t"
                << output.query_name(output.pair_query(cell.pair)) << "\t"
                << output.url_name(output.pair_url(cell.pair)) << "\t"
                << cell.count << "\n";
      if (++shown >= 5) break;
    }
  }
  return 0;
}
