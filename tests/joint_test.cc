#include "core/joint.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/audit.h"
#include "core/constraints.h"
#include "core/ump.h"
#include "metrics/utility_metrics.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::SmallSyntheticLog;

TEST(JointUmpTest, RejectsBadWeights) {
  SearchLog log = SmallSyntheticLog();
  JointUmpOptions options;
  options.size_weight = 0.0;
  options.distance_weight = 0.0;
  EXPECT_FALSE(SolveJointUmp(log, PrivacyParams{1.0, 0.5}, options).ok());
  options.size_weight = -1.0;
  options.distance_weight = 1.0;
  EXPECT_FALSE(SolveJointUmp(log, PrivacyParams{1.0, 0.5}, options).ok());
}

TEST(JointUmpTest, PureSizeWeightRecoversOump) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  JointUmpOptions options;
  options.size_weight = 1.0;
  options.distance_weight = 0.0;
  JointUmpResult joint = SolveJointUmp(log, params, options).value();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  EXPECT_NEAR(joint.relaxed_size, oump.objective_value,
              1e-5 * (1.0 + oump.objective_value));
  EXPECT_EQ(joint.output_size, oump.output_size);
}

TEST(JointUmpTest, SolutionsAreAlwaysPrivate) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(1.7, 0.2);
  for (double alpha : {0.0, 0.5, 2.0}) {
    JointUmpOptions options;
    options.size_weight = 1.0;
    options.distance_weight = alpha;
    options.min_support = 1.0 / 100;
    JointUmpResult joint = SolveJointUmp(log, params, options).value();
    AuditReport audit = AuditSolution(log, params, joint.x).value();
    EXPECT_TRUE(audit.satisfies_privacy)
        << "alpha=" << alpha << ": " << audit.ToString();
  }
}

TEST(JointUmpTest, ParetoTradeoff) {
  // Raising the distance weight can only shrink the relaxed distance sum
  // and can only shrink the relaxed size (the frontier is monotone).
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  double prev_distance = std::numeric_limits<double>::infinity();
  double prev_size = std::numeric_limits<double>::infinity();
  for (double alpha : {0.0, 0.2, 1.0, 5.0, 50.0}) {
    JointUmpOptions options;
    options.size_weight = 1.0;
    options.distance_weight = alpha;
    options.min_support = 1.0 / 100;
    JointUmpResult joint = SolveJointUmp(log, params, options).value();
    EXPECT_LE(joint.relaxed_distance_sum, prev_distance + 1e-7)
        << "alpha=" << alpha;
    EXPECT_LE(joint.relaxed_size, prev_size + 1e-7) << "alpha=" << alpha;
    prev_distance = joint.relaxed_distance_sum;
    prev_size = joint.relaxed_size;
  }
}

TEST(JointUmpTest, HeavyDistanceWeightPreservesSupports) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const double support = 1.0 / 100;

  JointUmpOptions size_only;
  size_only.size_weight = 1.0;
  size_only.distance_weight = 0.0;
  size_only.min_support = support;
  JointUmpOptions balanced;
  balanced.size_weight = 1.0;
  balanced.distance_weight = 20.0;
  balanced.min_support = support;

  JointUmpResult a = SolveJointUmp(log, params, size_only).value();
  JointUmpResult b = SolveJointUmp(log, params, balanced).value();
  EXPECT_LE(b.relaxed_distance_sum, a.relaxed_distance_sum + 1e-9);
}

TEST(JointUmpTest, LambdaReportedForNormalization) {
  SearchLog log = SmallSyntheticLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  JointUmpResult joint = SolveJointUmp(log, params).value();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  EXPECT_EQ(joint.lambda, oump.output_size);
  EXPECT_LE(joint.output_size, oump.output_size);
}

}  // namespace
}  // namespace privsan
