// Regression test for the cold O-UMP solves that once stalled to the
// iteration limit: on these three medium logs the default engine (LU +
// Forrest–Tomlin under equilibration) with candidate-list partial pricing
// ran past 20,000 pivots, while full Devex pricing solves each in about
// 4,000. The seeds are those of the repository benchmark's logs (3, 2),
// (24, 3) and (105, 5).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/session.h"
#include "synth/generator.h"

namespace privsan {
namespace {

// The medium synthetic-log profile of the repository benchmark.
SyntheticLogConfig MediumConfig(uint64_t seed) {
  SyntheticLogConfig config;
  config.seed = seed;
  config.num_users = 400;
  config.num_queries = 2500;
  config.url_pool = 3000;
  config.max_urls_per_query = 4;
  config.num_events = 36000;
  config.query_zipf = 0.9;
  config.url_zipf = 1.3;
  config.user_zipf = 0.5;
  return config;
}

class OumpStallTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OumpStallTest, ColdSolveFinishesWellUnderTheIterationLimit) {
  Result<SearchLog> raw = GenerateSearchLog(MediumConfig(GetParam()));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  SessionOptions options;
  options.simplex.max_iterations = 20000;
  Result<SanitizerSession> session = SanitizerSession::Create(*raw, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(2.0, 0.5);
  Result<UmpSolution> solution =
      session->Solve(UtilityObjective::kOutputSize, query);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_FALSE(solution->stats.warm_started);
  EXPECT_GT(solution->output_size, 0u);
  EXPECT_LT(solution->stats.simplex_iterations, 10000);
  RecordProperty("pivots", std::to_string(solution->stats.simplex_iterations));
}

INSTANTIATE_TEST_SUITE_P(StalledLogs, OumpStallTest,
                         ::testing::Values(2554043094958247610ull,
                                           4531590142992240191ull,
                                           16723249691635832450ull));

}  // namespace
}  // namespace privsan
