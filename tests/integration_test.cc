// Cross-module integration and parameterized property sweeps: the full
// Algorithm-1 pipeline on synthetic AOL-profile data, across the paper's
// (ε, δ) grid.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "core/audit.h"
#include "core/constraints.h"
#include "core/sampler.h"
#include "core/session.h"
#include "core/ump.h"
#include "log/log_io.h"
#include "log/preprocess.h"
#include "metrics/utility_metrics.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

struct GridPoint {
  double e_epsilon;
  double delta;
};

std::vector<GridPoint> PaperGridSample() {
  // A representative sub-grid of the paper's 7x7 (ε, δ) grid.
  return {
      {1.001, 1e-4}, {1.01, 1e-2}, {1.1, 1e-1}, {1.4, 0.2},
      {1.7, 0.5},    {2.0, 0.5},   {2.3, 0.8},
  };
}

class PipelineGridTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(PipelineGridTest, OumpPipelinePrivateAcrossGrid) {
  const GridPoint point = GetParam();
  PrivacyParams params =
      PrivacyParams::FromEEpsilon(point.e_epsilon, point.delta);
  SearchLog log = testing_fixtures::SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();

  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  AuditReport audit = AuditSolution(log, params, oump.x).value();
  EXPECT_TRUE(audit.satisfies_privacy) << audit.ToString();

  SearchLog output = SampleOutput(log, oump.x, 5).value();
  EXPECT_EQ(output.total_clicks(), oump.output_size);
}

TEST_P(PipelineGridTest, DumpSpePrivateAcrossGrid) {
  const GridPoint point = GetParam();
  PrivacyParams params =
      PrivacyParams::FromEEpsilon(point.e_epsilon, point.delta);
  SearchLog log = testing_fixtures::SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();

  UmpSolution dump =
      MakeDumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  AuditReport audit = AuditSolution(log, params, dump.x).value();
  EXPECT_TRUE(audit.satisfies_privacy) << audit.ToString();
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, PipelineGridTest,
                         ::testing::ValuesIn(PaperGridSample()));

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, FullPipelineOnFreshWorkload) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = GetParam();
  SearchLog raw = GenerateSearchLog(config).value();

  SessionOptions options;
  options.seed = GetParam() * 31 + 1;
  auto session = SanitizerSession::Create(raw, options);
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Sanitize(PrivacyParams::FromEEpsilon(1.7, 0.2));
  if (!report.ok()) {
    // Only acceptable failure: a degenerate workload with nothing shared.
    EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
    return;
  }
  EXPECT_TRUE(report->audit.satisfies_privacy) << report->audit.ToString();
  EXPECT_EQ(report->output.total_clicks(), report->output_size);

  // No unique pair of the preprocessed input may appear in the output.
  const SearchLog& pre = report->preprocessed_input;
  for (PairId p = 0; p < pre.num_pairs(); ++p) {
    if (report->optimal_counts[p] > 0) {
      EXPECT_GE(pre.PairUserCount(p), 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SeedSweepTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(IntegrationTest, OumpDominatesFumpAndDumpInSize) {
  // O-UMP maximizes |O|; F-UMP at |O| = lambda matches it; D-UMP's output
  // size (= retained pairs) can never exceed lambda.
  SearchLog log = testing_fixtures::SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();

  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  UmpSolution dump =
      MakeDumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  EXPECT_LE(dump.output_size, oump.output_size);

  UmpSolution fump =
      MakeFumpProblem(log, &rows, {.min_support = 1.0 / 100})
          .value()
          ->Solve({.privacy = params, .output_size = oump.output_size})
          .value();
  EXPECT_LE(fump.output_size, oump.output_size);
}

TEST(IntegrationTest, FumpPreservesSupportsBetterThanOump) {
  // At the same output size, F-UMP's frequent-pair support distance is by
  // construction no worse than the O-UMP solution's.
  SearchLog log = testing_fixtures::SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const double support = 1.0 / 100;
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();

  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  UmpSolution fump =
      MakeFumpProblem(log, &rows, {.min_support = support})
          .value()
          ->Solve({.privacy = params, .output_size = oump.output_size})
          .value();

  const double fump_distance = SupportDistanceSum(log, fump.x, support);
  const double oump_distance = SupportDistanceSum(log, oump.x, support);
  EXPECT_LE(fump_distance, oump_distance + 0.05);
}

TEST(IntegrationTest, SampledOutputRoundTripsThroughTsv) {
  SearchLog log = testing_fixtures::SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  SearchLog output = SampleOutput(log, oump.x, 17).value();

  const std::string path = "/tmp/privsan_integration_roundtrip.tsv";
  ASSERT_TRUE(WriteSearchLogTsv(output, path).ok());
  SearchLog loaded = ReadSearchLogTsv(path).value();
  EXPECT_EQ(loaded.total_clicks(), output.total_clicks());
  EXPECT_EQ(loaded.num_pairs(), output.num_pairs());
  std::remove(path.c_str());
}

TEST(IntegrationTest, OutputHistogramShapePreserved) {
  // Section 3.2 property 3: with counts proportional to the input, the
  // output query-url-user histogram's shape tracks the input. Check that
  // the per-user share of a heavy pair is preserved within noise.
  SearchLog log = testing_fixtures::Figure1Preprocessed();
  PairId google = *log.FindPair("google", "google.com");
  std::vector<uint64_t> x(log.num_pairs(), 0);
  x[google] = 390;  // 10x the input count for low relative noise

  auto sampled = SampleTripletCounts(log, x, 23).value();
  auto triplets = log.TripletsOf(google);
  for (size_t i = 0; i < triplets.size(); ++i) {
    const double input_share =
        static_cast<double>(triplets[i].count) / 39.0;
    const double output_share =
        static_cast<double>(sampled[google][i]) / 390.0;
    EXPECT_NEAR(output_share, input_share, 0.08);
  }
}

TEST(IntegrationTest, LambdaFractionsInPaperBand) {
  // Table 4 reports 7.08%-26.2% of |D| across the grid; assert the synthetic
  // reproduction lands in a compatible order of magnitude at the extremes.
  SearchLog log = testing_fixtures::SmallSyntheticLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto oump = MakeOumpProblem(log, &rows).value();
  UmpSolution loose =
      oump->Solve({.privacy = PrivacyParams::FromEEpsilon(2.3, 0.8)}).value();
  UmpSolution tight =
      oump->Solve({.privacy = PrivacyParams::FromEEpsilon(1.001, 1e-4)})
          .value();
  EXPECT_LT(tight.output_size, loose.output_size);
  EXPECT_GT(loose.output_size, 0u);
}

}  // namespace
}  // namespace privsan
