// Snapshot/restore round trips: bit-identical logs, DP rows and bases; a
// restored session's first solve warm-starts from the stored basis and
// reproduces the pre-snapshot objective; corrupt files fail cleanly.
#include "serve/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "lp/basis_io.h"
#include "serve/service.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

SearchLog Synthetic(uint64_t seed = 41) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = seed;
  config.num_users = 70;
  config.num_events = 3500;
  return GenerateSearchLog(config).value();
}

UmpQuery Query(double e_eps, double delta, uint64_t output_size = 0) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
  query.output_size = output_size;
  return query;
}

// Id-sensitive log equality: same names at the same ids, same counts.
void ExpectLogsIdentical(const SearchLog& a, const SearchLog& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_pairs(), b.num_pairs());
  ASSERT_EQ(a.total_clicks(), b.total_clicks());
  for (UserId u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.user_name(u), b.user_name(u)) << "user " << u;
    const auto log_a = a.UserLogOf(u);
    const auto log_b = b.UserLogOf(u);
    ASSERT_EQ(log_a.size(), log_b.size()) << "user " << u;
    for (size_t i = 0; i < log_a.size(); ++i) {
      EXPECT_EQ(log_a[i], log_b[i]) << "user " << u << " cell " << i;
    }
  }
  for (PairId p = 0; p < a.num_pairs(); ++p) {
    EXPECT_EQ(a.query_name(a.pair_query(p)), b.query_name(b.pair_query(p)));
    EXPECT_EQ(a.url_name(a.pair_url(p)), b.url_name(b.pair_url(p)));
    EXPECT_EQ(a.pair_total(p), b.pair_total(p));
  }
}

void ExpectBasesEqual(const lp::Basis& a, const lp::Basis& b) {
  EXPECT_EQ(a.basic, b.basic);
  ASSERT_EQ(a.state.size(), b.state.size());
  for (size_t i = 0; i < a.state.size(); ++i) {
    EXPECT_EQ(a.state[i], b.state[i]) << "state " << i;
  }
}

TEST(BasisIoTest, RoundTripsAndValidates) {
  lp::Basis basis;
  basis.state = {lp::VarStatus::kAtLower, lp::VarStatus::kBasic,
                 lp::VarStatus::kAtUpper, lp::VarStatus::kBasic,
                 lp::VarStatus::kFree};
  basis.basic = {1, 3};
  std::stringstream stream;
  lp::WriteBasis(stream, basis);
  const lp::Basis restored = lp::ReadBasis(stream).value();
  ExpectBasesEqual(basis, restored);
  EXPECT_TRUE(lp::ValidateBasisShape(restored, 3, 2).ok());
  EXPECT_FALSE(lp::ValidateBasisShape(restored, 4, 2).ok());

  // Truncation fails with IoError, never crashes.
  std::stringstream truncated(stream.str().substr(0, 10));
  EXPECT_FALSE(lp::ReadBasis(truncated).ok());
}

TEST(SnapshotTest, RoundTripIsBitIdentical) {
  SanitizerSession session = SanitizerSession::Create(Synthetic()).value();
  // Solve two objectives so the snapshot carries non-trivial bases.
  (void)session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
      .value();
  (void)session.Solve(UtilityObjective::kFrequentPairs, Query(2.0, 0.5))
      .value();

  const SessionSnapshot original = session.Snapshot();
  std::stringstream stream;
  ASSERT_TRUE(serve::WriteSnapshot(stream, original).ok());
  const SessionSnapshot restored = serve::ReadSnapshot(stream).value();

  ExpectLogsIdentical(original.raw, restored.raw);
  ExpectLogsIdentical(original.log, restored.log);
  EXPECT_EQ(original.stats.pairs_removed, restored.stats.pairs_removed);
  EXPECT_EQ(original.stats.clicks_retained, restored.stats.clicks_retained);

  ASSERT_EQ(original.system.num_rows(), restored.system.num_rows());
  ASSERT_EQ(original.system.num_pairs(), restored.system.num_pairs());
  for (size_t r = 0; r < original.system.num_rows(); ++r) {
    EXPECT_EQ(original.system.RowUser(r), restored.system.RowUser(r));
    const auto row_a = original.system.Row(r);
    const auto row_b = restored.system.Row(r);
    ASSERT_EQ(row_a.size(), row_b.size()) << "row " << r;
    for (size_t i = 0; i < row_a.size(); ++i) {
      EXPECT_EQ(row_a[i], row_b[i]) << "row " << r << " entry " << i;
    }
  }
  ASSERT_EQ(original.bases.size(), restored.bases.size());
  for (size_t i = 0; i < original.bases.size(); ++i) {
    ExpectBasesEqual(original.bases[i], restored.bases[i]);
  }
}

TEST(SnapshotTest, RestoredSessionResumesWarmWithIdenticalObjective) {
  const UmpQuery query = Query(2.0, 0.5);
  SanitizerSession session = SanitizerSession::Create(Synthetic()).value();
  const UmpSolution before =
      session.Solve(UtilityObjective::kOutputSize, query).value();
  ASSERT_FALSE(before.stats.warm_started);  // first solve is cold

  SessionSnapshot snapshot = session.Snapshot();
  SanitizerSession restored =
      SanitizerSession::FromSnapshot(std::move(snapshot)).value();
  const UmpSolution after =
      restored.Solve(UtilityObjective::kOutputSize, query).value();

  // The restored basis is optimal for the same rhs: the warm solve must
  // engage and land on the same objective with (far) fewer pivots.
  EXPECT_TRUE(after.stats.warm_started);
  EXPECT_NEAR(after.objective_value, before.objective_value,
              1e-6 * (1.0 + before.objective_value));
  EXPECT_EQ(after.output_size, before.output_size);
  EXPECT_LT(after.stats.root_iterations, before.stats.root_iterations);
}

TEST(SnapshotTest, FileRoundTripThroughService) {
  const std::string path = testing::TempDir() + "/privsan_snapshot_test.bin";
  const UmpQuery query = Query(1.7, 0.5);

  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(43)).ok());
  const UmpSolution before =
      service.Solve("t", UtilityObjective::kOutputSize, query).value();
  ASSERT_TRUE(service.SaveSnapshot("t", path).ok());

  // "Restart": a fresh service restores the tenant from disk.
  serve::SanitizerService after_restart;
  ASSERT_TRUE(after_restart.RestoreTenant("t", path).ok());
  const UmpSolution after =
      after_restart.Solve("t", UtilityObjective::kOutputSize, query).value();
  EXPECT_TRUE(after.stats.warm_started);
  EXPECT_EQ(after.output_size, before.output_size);
  EXPECT_NEAR(after.objective_value, before.objective_value,
              1e-6 * (1.0 + before.objective_value));
  std::remove(path.c_str());
}

TEST(SnapshotTest, AppendAfterRestoreStaysIncremental) {
  const SearchLog full = Synthetic(47);
  SanitizerSession session = SanitizerSession::Create(full).value();
  // A new user clicking the least-shared retained pair.
  const SearchLog& log = session.log();
  PairId target = 0;
  for (PairId p = 1; p < log.num_pairs(); ++p) {
    if (log.PairUserCount(p) < log.PairUserCount(target)) target = p;
  }
  SearchLogBuilder extra;
  extra.Add("brand_new_user", log.query_name(log.pair_query(target)),
            log.url_name(log.pair_url(target)), 2);
  (void)session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
      .value();
  std::stringstream stream;
  ASSERT_TRUE(serve::WriteSnapshot(stream, session.Snapshot()).ok());
  SanitizerSession restored =
      SanitizerSession::FromSnapshot(serve::ReadSnapshot(stream).value())
          .value();

  ASSERT_TRUE(restored.AppendUsers(extra.Build()).ok());
  const UmpSolution solution =
      restored.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5)).value();
  EXPECT_TRUE(solution.stats.warm_started);
}

TEST(SnapshotTest, CorruptAndTruncatedFilesFailCleanly) {
  SanitizerSession session = SanitizerSession::Create(Synthetic()).value();
  std::stringstream stream;
  ASSERT_TRUE(serve::WriteSnapshot(stream, session.Snapshot()).ok());
  const std::string bytes = stream.str();

  {
    std::stringstream bad_magic("not a snapshot at all");
    const auto result = serve::ReadSnapshot(bad_magic);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
  // Truncation at several depths: header, logs, rows, bases.
  for (const double fraction : {0.1, 0.5, 0.9, 0.99}) {
    std::stringstream truncated(
        bytes.substr(0, static_cast<size_t>(bytes.size() * fraction)));
    EXPECT_FALSE(serve::ReadSnapshot(truncated).ok())
        << "fraction " << fraction;
  }

  EXPECT_EQ(serve::RestoreSession("/nonexistent/path.bin").status().code(),
            StatusCode::kIoError);
}

TEST(SnapshotTest, VersionMismatchNamesBothVersions) {
  SanitizerSession session = SanitizerSession::Create(Synthetic()).value();
  std::stringstream stream;
  ASSERT_TRUE(serve::WriteSnapshot(stream, session.Snapshot()).ok());
  std::string bytes = stream.str();

  // Header layout: 7-byte magic "PSANSNP" + 1-byte format version.
  ASSERT_GT(bytes.size(), 8u);
  ASSERT_EQ(bytes.substr(0, 7), "PSANSNP");
  ASSERT_EQ(bytes[7], '\x02');  // current version — v1 files stay readable

  // A future-format file must fail with a version message, not as generic
  // corruption (and not as a foreign file).
  bytes[7] = '\x03';
  std::stringstream future_version(bytes);
  const auto result = serve::ReadSnapshot(future_version);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("version 3"), std::string::npos)
      << result.status();
  EXPECT_NE(result.status().message().find("1-2"), std::string::npos)
      << result.status();

  // A wrong magic stays a distinct failure mode.
  bytes[0] = 'X';
  std::stringstream foreign(bytes);
  const auto foreign_result = serve::ReadSnapshot(foreign);
  ASSERT_FALSE(foreign_result.ok());
  EXPECT_NE(foreign_result.status().message().find("bad magic"),
            std::string::npos)
      << foreign_result.status();
}

TEST(SnapshotTest, MismatchedOptionsDropOnlyTheBases) {
  SanitizerSession session = SanitizerSession::Create(Synthetic()).value();
  (void)session.Solve(UtilityObjective::kFrequentPairs, Query(2.0, 0.5))
      .value();

  // Restoring under a different F-UMP support reshapes the frequent set:
  // the stored F-UMP basis no longer fits and must be dropped — the solve
  // then runs cold but still succeeds.
  SessionOptions other;
  other.fump.min_support = 1.0 / 10;
  SanitizerSession restored =
      SanitizerSession::FromSnapshot(session.Snapshot(), other).value();
  const auto solution =
      restored.Solve(UtilityObjective::kFrequentPairs, Query(2.0, 0.5));
  ASSERT_TRUE(solution.ok());
}

}  // namespace
}  // namespace privsan
