#include "core/pbmp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/constraints.h"
#include "core/privacy_params.h"
#include "core/ump.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::SmallSyntheticLog;
using testing_fixtures::TwoUserSharedLog;

TEST(PbmpTest, RejectsZeroTarget) {
  PbmpOptions options;
  options.required_output_size = 0;
  EXPECT_FALSE(SolvePbmp(TwoUserSharedLog(), options).ok());
}

TEST(PbmpTest, TwoUserAnalyticBudget) {
  // To emit U clicks at minimal exposure, put everything on q2 (cheapest
  // worst-row coefficient log 2): z* = U * log 2.
  SearchLog log = TwoUserSharedLog();
  for (uint64_t target : {1ull, 2ull, 5ull}) {
    PbmpOptions options;
    options.required_output_size = target;
    PbmpResult result = SolvePbmp(log, options).value();
    EXPECT_NEAR(result.min_budget,
                static_cast<double>(target) * std::log(2.0), 1e-6)
        << "U=" << target;
  }
}

TEST(PbmpTest, BudgetMonotoneInTarget) {
  SearchLog log = SmallSyntheticLog();
  double prev = 0.0;
  for (uint64_t target : {10ull, 50ull, 200ull}) {
    PbmpOptions options;
    options.required_output_size = target;
    PbmpResult result = SolvePbmp(log, options).value();
    EXPECT_GE(result.min_budget, prev - 1e-9);
    prev = result.min_budget;
  }
}

TEST(PbmpTest, DualityWithOump) {
  // If PBMP says budget z* suffices for output size U, then O-UMP with
  // budget z* must achieve at least U (relaxed), and with a slightly
  // smaller budget must achieve less.
  SearchLog log = SmallSyntheticLog();
  const uint64_t target = 100;
  PbmpOptions options;
  options.required_output_size = target;
  PbmpResult pbmp = SolvePbmp(log, options).value();
  ASSERT_GT(pbmp.min_budget, 0.0);

  // epsilon = z*, delta chosen so the delta term does not bind.
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeOumpProblem(log, &rows).value();
  PrivacyParams params{pbmp.min_budget, 0.999999};
  UmpSolution oump = problem->Solve({.privacy = params}).value();
  EXPECT_GE(oump.objective_value, static_cast<double>(target) - 1e-4);

  PrivacyParams tighter{pbmp.min_budget * 0.9, 0.999999};
  UmpSolution less = problem->Solve({.privacy = tighter}).value();
  EXPECT_LT(less.objective_value, static_cast<double>(target));
}

TEST(PbmpTest, FrontierParametersConsistent) {
  SearchLog log = SmallSyntheticLog();
  PbmpOptions options;
  options.required_output_size = 50;
  PbmpResult result = SolvePbmp(log, options).value();
  EXPECT_DOUBLE_EQ(result.min_epsilon, result.min_budget);
  EXPECT_NEAR(result.min_delta, 1.0 - std::exp(-result.min_budget), 1e-12);
  EXPECT_GT(result.min_delta, 0.0);
  EXPECT_LT(result.min_delta, 1.0);
}

TEST(PbmpTest, SolutionMeetsTarget) {
  SearchLog log = SmallSyntheticLog();
  PbmpOptions options;
  options.required_output_size = 75;
  PbmpResult result = SolvePbmp(log, options).value();
  double total = 0.0;
  for (double v : result.x) total += v;
  EXPECT_GE(total, 75.0 - 1e-6);
}

}  // namespace
}  // namespace privsan
