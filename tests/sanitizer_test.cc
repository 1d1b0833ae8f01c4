// Algorithm 1 end to end: SanitizerSession::Create on a raw log, then
// Sanitize at one (ε, δ).
#include <gtest/gtest.h>

#include "core/session.h"

#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::Figure1Log;
using testing_fixtures::SmallSyntheticLog;

SearchLog RawSyntheticLog() {
  SyntheticLogConfig config = TinyConfig();
  return GenerateSearchLog(config).value();
}

TEST(SanitizerTest, RejectsInvalidPrivacy) {
  SanitizerSession session = SanitizerSession::Create(Figure1Log()).value();
  EXPECT_FALSE(session.Sanitize(PrivacyParams{0.0, 0.5}).ok());
}

TEST(SanitizerTest, FailsWhenEverythingUnique) {
  SearchLogBuilder builder;
  builder.Add("a", "q1", "u1", 3);
  builder.Add("b", "q2", "u2", 4);
  SanitizerSession session =
      SanitizerSession::Create(builder.Build()).value();
  EXPECT_EQ(session.Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(SanitizerTest, OumpEndToEnd) {
  SessionOptions options;
  options.objective = UtilityObjective::kOutputSize;
  SanitizeReport report =
      SanitizerSession::Create(RawSyntheticLog(), options)
          .value()
          .Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5))
          .value();

  EXPECT_TRUE(report.audit.satisfies_privacy);
  EXPECT_GT(report.output_size, 0u);
  EXPECT_EQ(report.output.total_clicks(), report.output_size);
  EXPECT_GT(report.preprocess_stats.pairs_removed, 0u);
}

TEST(SanitizerTest, FumpEndToEndAutoOutputSize) {
  SessionOptions options;
  options.objective = UtilityObjective::kFrequentPairs;
  options.fump.min_support = 1.0 / 100;
  options.output_size = 0;  // auto: lambda
  SanitizeReport report =
      SanitizerSession::Create(RawSyntheticLog(), options)
          .value()
          .Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5))
          .value();
  EXPECT_TRUE(report.audit.satisfies_privacy);
  EXPECT_GT(report.output_size, 0u);
}

TEST(SanitizerTest, FumpEndToEndExplicitOutputSize) {
  SessionOptions options;
  options.objective = UtilityObjective::kFrequentPairs;
  options.fump.min_support = 1.0 / 100;
  options.output_size = 20;
  SanitizeReport report =
      SanitizerSession::Create(RawSyntheticLog(), options)
          .value()
          .Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5))
          .value();
  EXPECT_LE(report.output_size, 20u);
  EXPECT_TRUE(report.audit.satisfies_privacy);
}

TEST(SanitizerTest, DumpEndToEnd) {
  SessionOptions options;
  options.objective = UtilityObjective::kDiversity;
  options.dump.solver = DumpSolverKind::kSpe;
  SanitizeReport report =
      SanitizerSession::Create(RawSyntheticLog(), options)
          .value()
          .Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5))
          .value();
  EXPECT_TRUE(report.audit.satisfies_privacy);
  // D-UMP counts are 0/1.
  for (uint64_t c : report.optimal_counts) EXPECT_LE(c, 1u);
  EXPECT_EQ(report.output.total_clicks(), report.output_size);
}

TEST(SanitizerTest, OutputSchemaSubsetOfInput) {
  SearchLog input = RawSyntheticLog();
  SanitizeReport report = SanitizerSession::Create(input)
                              .value()
                              .Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5))
                              .value();
  for (UserId u = 0; u < report.output.num_users(); ++u) {
    EXPECT_TRUE(input.FindUser(report.output.user_name(u)).ok());
  }
  for (PairId p = 0; p < report.output.num_pairs(); ++p) {
    EXPECT_TRUE(
        input
            .FindPair(report.output.query_name(report.output.pair_query(p)),
                      report.output.url_name(report.output.pair_url(p)))
            .ok());
  }
}

TEST(SanitizerTest, DeterministicInSeed) {
  SessionOptions options;
  options.seed = 123;
  const PrivacyParams privacy = PrivacyParams::FromEEpsilon(2.0, 0.5);
  SearchLog input = RawSyntheticLog();
  SanitizeReport a = SanitizerSession::Create(input, options)
                         .value()
                         .Sanitize(privacy)
                         .value();
  SanitizeReport b = SanitizerSession::Create(input, options)
                         .value()
                         .Sanitize(privacy)
                         .value();
  EXPECT_EQ(a.output_size, b.output_size);
  EXPECT_EQ(a.output.num_tuples(), b.output.num_tuples());
  EXPECT_EQ(a.optimal_counts, b.optimal_counts);
}

TEST(SanitizerTest, LaplaceModeStillSamplable) {
  SessionOptions options;
  LaplaceStepOptions laplace;
  laplace.d = 1.0;
  laplace.epsilon_prime = 1.0;
  laplace.repair_feasibility = true;
  options.laplace = laplace;
  SanitizeReport report =
      SanitizerSession::Create(RawSyntheticLog(), options)
          .value()
          .Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5))
          .value();
  // With repair enabled the audit must still pass.
  EXPECT_TRUE(report.audit.satisfies_privacy) << report.audit.ToString();
  EXPECT_EQ(report.output.total_clicks(), report.output_size);
}

TEST(SanitizerTest, ObjectiveNames) {
  EXPECT_STREQ(UtilityObjectiveToString(UtilityObjective::kOutputSize),
               "O-UMP");
  EXPECT_STREQ(UtilityObjectiveToString(UtilityObjective::kFrequentPairs),
               "F-UMP");
  EXPECT_STREQ(UtilityObjectiveToString(UtilityObjective::kDiversity),
               "D-UMP");
}

TEST(SanitizerTest, ReportTimesPopulated) {
  SanitizeReport report = SanitizerSession::Create(RawSyntheticLog())
                              .value()
                              .Sanitize(PrivacyParams::FromEEpsilon(2.0, 0.5))
                              .value();
  EXPECT_GE(report.solve_seconds, 0.0);
}

}  // namespace
}  // namespace privsan
