// The simplex's per-pivot passes run over column blocks on helper threads
// (lp/column_blocks.h), or inline when another thread's pass holds the
// helpers. Which of the two runs a pass must not change a bit: a medium
// O-UMP LP solved alone and solved on four threads at once (so passes of
// one solve mix both paths) gives the same x, objective, iteration count
// and basis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "core/constraints.h"
#include "core/privacy_params.h"
#include "lp/column_blocks.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using testing_fixtures::MediumConfig;

// The O-UMP LP at e^eps = 2, delta = 0.5: max sum x subject to the DP rows,
// with each pair's implied bound B / (its largest coefficient).
lp::LpModel MediumOumpLp() {
  const SearchLog raw = GenerateSearchLog(MediumConfig(7)).value();
  const SearchLog log = RemoveUniquePairs(raw).log;
  DpConstraintSystem system = DpConstraintSystem::BuildRows(log).value();
  const double budget = PrivacyParams::FromEEpsilon(2.0, 0.5).Budget();
  lp::LpModel model(lp::ObjectiveSense::kMaximize);
  std::vector<double> max_weight(system.num_pairs(), 0.0);
  for (size_t r = 0; r < system.num_rows(); ++r) {
    for (const DpConstraintEntry& e : system.Row(r)) {
      max_weight[e.pair] = std::max(max_weight[e.pair], e.log_t);
    }
  }
  for (size_t p = 0; p < system.num_pairs(); ++p) {
    model.AddVariable(0.0, budget / max_weight[p], 1.0);
  }
  for (size_t r = 0; r < system.num_rows(); ++r) {
    const int row = model.AddConstraint(lp::ConstraintSense::kLessEqual,
                                        budget);
    for (const DpConstraintEntry& e : system.Row(r)) {
      model.AddCoefficient(row, static_cast<int>(e.pair), e.log_t);
    }
  }
  EXPECT_TRUE(model.Validate().ok());
  return model;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectIdentical(const lp::LpSolution& got, const lp::LpSolution& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(std::memcmp(&got.objective, &want.objective, sizeof(double)), 0)
      << got.objective << " vs " << want.objective;
  EXPECT_TRUE(SameBits(got.x, want.x));
  EXPECT_EQ(got.stats.simplex_iterations, want.stats.simplex_iterations);
  EXPECT_EQ(got.stats.refactorizations, want.stats.refactorizations);
  EXPECT_EQ(got.basis.basic, want.basis.basic);
  EXPECT_EQ(got.basis.state, want.basis.state);
}

TEST(ConcurrentSolveTest, FourThreadsMatchTheSoloSolveBitForBit) {
  const lp::LpModel model = MediumOumpLp();
  // Structural plus slack columns: enough blocks for the helpers to run.
  ASSERT_GE(lp::ColumnBlockCount(model.num_variables() +
                                 model.num_constraints()),
            2);
  const lp::SimplexSolver solver;
  const lp::LpSolution solo = solver.Solve(model);
  ASSERT_EQ(solo.status, lp::SolveStatus::kOptimal);
  ASSERT_GT(solo.stats.simplex_iterations, 1000u);

  constexpr int kThreads = 4;
  std::vector<lp::LpSolution> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[t] = solver.Solve(model); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    ExpectIdentical(results[t], solo);
  }
}

}  // namespace
}  // namespace privsan
