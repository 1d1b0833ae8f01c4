#include "core/constraints.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::Figure1Log;
using testing_fixtures::Figure1Preprocessed;
using testing_fixtures::TwoUserSharedLog;

TEST(ConstraintsTest, RejectsUnpreprocessedLog) {
  // Figure1Log still contains unique pairs -> FailedPrecondition.
  auto result =
      DpConstraintSystem::Build(Figure1Log(), PrivacyParams{1.0, 0.5});
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ConstraintsTest, RejectsInvalidParams) {
  auto result =
      DpConstraintSystem::Build(Figure1Preprocessed(), PrivacyParams{-1, 0.5});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConstraintsTest, OneRowPerUser) {
  DpConstraintSystem system =
      DpConstraintSystem::Build(Figure1Preprocessed(), PrivacyParams{1.0, 0.5})
          .value();
  EXPECT_EQ(system.num_rows(), 3u);
  EXPECT_EQ(system.num_pairs(), 3u);
}

TEST(ConstraintsTest, CoefficientsAreLogTijk) {
  SearchLog log = Figure1Preprocessed();
  DpConstraintSystem system =
      DpConstraintSystem::Build(log, PrivacyParams{1.0, 0.5}).value();

  PairId google = *log.FindPair("google", "google.com");
  UserId u081 = *log.FindUser("081");
  // t for (google, 081) = 39 / (39 - 15) = 1.625.
  bool found = false;
  for (size_t r = 0; r < system.num_rows(); ++r) {
    if (system.RowUser(r) != u081) continue;
    for (const DpConstraintEntry& e : system.Row(r)) {
      if (e.pair == google) {
        EXPECT_NEAR(e.log_t, std::log(39.0 / 24.0), 1e-12);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(ConstraintsTest, AllCoefficientsPositive) {
  DpConstraintSystem system =
      DpConstraintSystem::Build(testing_fixtures::SmallSyntheticLog(),
                                PrivacyParams{1.0, 0.5})
          .value();
  for (size_t r = 0; r < system.num_rows(); ++r) {
    for (const DpConstraintEntry& e : system.Row(r)) {
      EXPECT_GT(e.log_t, 0.0);
      EXPECT_TRUE(std::isfinite(e.log_t));
    }
  }
}

TEST(ConstraintsTest, BudgetMatchesParams) {
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  DpConstraintSystem system =
      DpConstraintSystem::Build(Figure1Preprocessed(), params).value();
  EXPECT_DOUBLE_EQ(system.budget(), params.Budget());
}

TEST(ConstraintsTest, RowLhsComputation) {
  SearchLog log = TwoUserSharedLog();
  DpConstraintSystem system =
      DpConstraintSystem::Build(log, PrivacyParams{1.0, 0.5}).value();
  ASSERT_EQ(system.num_rows(), 2u);

  PairId q1 = *log.FindPair("q1", "u1");
  PairId q2 = *log.FindPair("q2", "u2");
  std::vector<uint64_t> x(log.num_pairs(), 0);
  x[q1] = 2;
  x[q2] = 1;

  for (size_t r = 0; r < system.num_rows(); ++r) {
    const bool is_alice =
        log.user_name(system.RowUser(r)) == std::string("alice");
    // alice: 2*log(10/6) + 1*log(2); bob: 2*log(10/4) + 1*log(2).
    const double expected =
        is_alice ? 2 * std::log(10.0 / 6.0) + std::log(2.0)
                 : 2 * std::log(10.0 / 4.0) + std::log(2.0);
    EXPECT_NEAR(system.RowLhs(r, std::span<const uint64_t>(x)), expected,
                1e-12);
  }
}

TEST(ConstraintsTest, ZeroVectorAlwaysSatisfies) {
  DpConstraintSystem system =
      DpConstraintSystem::Build(Figure1Preprocessed(),
                                PrivacyParams::FromEEpsilon(1.001, 1e-4))
          .value();
  std::vector<uint64_t> zero(system.num_pairs(), 0);
  EXPECT_TRUE(system.IsSatisfied(zero));
  EXPECT_DOUBLE_EQ(system.MaxRowLhs(zero), 0.0);
}

TEST(ConstraintsTest, LargeCountsViolate) {
  DpConstraintSystem system =
      DpConstraintSystem::Build(Figure1Preprocessed(),
                                PrivacyParams::FromEEpsilon(1.1, 0.01))
          .value();
  std::vector<uint64_t> huge(system.num_pairs(), 1000);
  EXPECT_FALSE(system.IsSatisfied(huge));
  EXPECT_GT(system.MaxRowLhs(huge), system.budget());
}

TEST(ConstraintsTest, DoubleAndIntLhsAgree) {
  SearchLog log = Figure1Preprocessed();
  DpConstraintSystem system =
      DpConstraintSystem::Build(log, PrivacyParams{1.0, 0.5}).value();
  std::vector<uint64_t> xi = {3, 1, 2};
  std::vector<double> xd = {3.0, 1.0, 2.0};
  for (size_t r = 0; r < system.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(system.RowLhs(r, std::span<const uint64_t>(xi)),
                     system.RowLhs(r, std::span<const double>(xd)));
  }
}

TEST(ConstraintsTest, EmptyLogYieldsNoRows) {
  SearchLogBuilder builder;
  SearchLog log = builder.Build();
  DpConstraintSystem system =
      DpConstraintSystem::Build(log, PrivacyParams{1.0, 0.5}).value();
  EXPECT_EQ(system.num_rows(), 0u);
  std::vector<uint64_t> empty;
  EXPECT_TRUE(system.IsSatisfied(empty));
}


TEST(ConstraintsTest, FromRowsRoundTripsParts) {
  const SearchLog log = Figure1Preprocessed();
  const DpConstraintSystem original =
      DpConstraintSystem::BuildRows(log).value();
  std::vector<std::vector<DpConstraintEntry>> rows;
  std::vector<UserId> row_users;
  for (size_t r = 0; r < original.num_rows(); ++r) {
    rows.emplace_back(original.Row(r).begin(), original.Row(r).end());
    row_users.push_back(original.RowUser(r));
  }
  const DpConstraintSystem rebuilt = DpConstraintSystem::FromRows(
      std::move(rows), std::move(row_users), original.num_pairs());
  ASSERT_EQ(rebuilt.num_rows(), original.num_rows());
  EXPECT_EQ(rebuilt.num_pairs(), original.num_pairs());
  for (size_t r = 0; r < original.num_rows(); ++r) {
    EXPECT_EQ(rebuilt.RowUser(r), original.RowUser(r));
    ASSERT_EQ(rebuilt.Row(r).size(), original.Row(r).size());
    for (size_t i = 0; i < original.Row(r).size(); ++i) {
      EXPECT_EQ(rebuilt.Row(r)[i], original.Row(r)[i]);
    }
  }
}

}  // namespace
}  // namespace privsan
