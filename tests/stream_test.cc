// Streaming lifecycle semantics (src/stream/ + the serve wiring):
// RemoveUsers produces DP rows bit-identical to a full rebuild and leaves
// the session warm, the (ε, δ) accountant matches the closed-form
// composition bounds and refuses at the floor with a typed status, and
// both accountant and window survive snapshot/restore byte-exactly.
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "log/search_log.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "stream/accountant.h"
#include "stream/window.h"
#include "synth/generator.h"

namespace privsan {
namespace {

SearchLog Synthetic(uint64_t seed, size_t users = 40, size_t events = 2000) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = seed;
  config.num_users = users;
  config.num_events = events;
  return GenerateSearchLog(config).value();
}

UmpQuery Query(double e_eps, double delta) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
  return query;
}

// Exact (bitwise) equality of two DP constraint systems: same rows in the
// same order, same owning users, same (pair, log_t) entries.
void ExpectRowsBitIdentical(const DpConstraintSystem& a,
                            const DpConstraintSystem& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_pairs(), b.num_pairs());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.RowUser(r), b.RowUser(r)) << "row " << r;
    const auto row_a = a.Row(r);
    const auto row_b = b.Row(r);
    ASSERT_EQ(row_a.size(), row_b.size()) << "row " << r;
    for (size_t k = 0; k < row_a.size(); ++k) {
      EXPECT_EQ(row_a[k], row_b[k]) << "row " << r << " entry " << k;
    }
  }
}

// --- SanitizerSession::RemoveUsers -----------------------------------------

TEST(StreamRemoveTest, RemoveMatchesFullRebuildBitExactly) {
  // Randomized append → remove → append interleavings: after every
  // operation, the incremental DP system must equal BuildRows from scratch
  // on the session's own raw log (same user/pair insertion order).
  for (const uint64_t seed : {3u, 11u, 42u}) {
    std::mt19937_64 rng(seed);
    const SearchLog full = Synthetic(seed, /*users=*/36, /*events=*/1800);
    const UserId third = full.num_users() / 3;

    SanitizerSession session =
        SanitizerSession::Create(UserSlice(full, 0, 2 * third)).value();
    for (int step = 0; step < 3; ++step) {
      // Remove a random subset of the currently present users.
      std::vector<std::string> doomed;
      for (UserId u = 0; u < session.raw_log().num_users(); ++u) {
        if (rng() % 3 == 0) {
          doomed.push_back(session.raw_log().user_name(u));
        }
      }
      ASSERT_TRUE(session.RemoveUsers(doomed).ok()) << "seed " << seed;
      if (step == 1) {
        // Interleave an append (including users that were just removed
        // re-appearing with fresh clicks).
        ASSERT_TRUE(
            session.AppendUsers(UserSlice(full, third, full.num_users()))
                .ok());
      }
      SanitizerSession scratch =
          SanitizerSession::Create(session.raw_log()).value();
      ExpectRowsBitIdentical(session.Snapshot().system,
                             scratch.Snapshot().system);
      ASSERT_EQ(session.log().num_users(), scratch.log().num_users());
    }
  }
}

TEST(StreamRemoveTest, AppendAndRemoveReportRebuiltRows) {
  // Every append and removal rebuilds the DP rows from scratch: no row is
  // copied, and rows_rebuilt is the rebuilt system's row count.
  SearchLogBuilder builder;
  builder.Add("a1", "qa", "ua", 3);
  builder.Add("a2", "qa", "ua", 2);
  builder.Add("a3", "qa", "ua", 4);
  builder.Add("b1", "qb", "ub", 5);
  builder.Add("b2", "qb", "ub", 1);
  SanitizerSession session =
      SanitizerSession::Create(builder.Build()).value();

  SearchLogBuilder more;
  more.Add("b3", "qb", "ub", 2);
  ASSERT_TRUE(session.AppendUsers(more.Build()).ok());
  const AppendStats& appended = session.last_append_stats();
  EXPECT_EQ(appended.appended_users, 1u);
  EXPECT_EQ(appended.rows_copied, 0u);
  EXPECT_EQ(appended.rows_rebuilt, 6u);
  EXPECT_EQ(appended.rows_rebuilt, session.Snapshot().system.num_rows());

  ASSERT_TRUE(session.RemoveUsers({"a3", "no-such-user"}).ok());
  const RemoveStats& removed = session.last_remove_stats();
  EXPECT_EQ(removed.removed_users, 1u);  // absent names are ignored
  EXPECT_EQ(session.raw_log().num_users(), 5u);
  EXPECT_EQ(removed.rows_copied, 0u);
  EXPECT_EQ(removed.rows_rebuilt, 5u);
  EXPECT_EQ(removed.rows_rebuilt, session.Snapshot().system.num_rows());
}

TEST(StreamRemoveTest, RemoveThenSolveResumesWarmWithColdObjective) {
  const UmpQuery query = Query(2.0, 0.5);
  SanitizerSession session = SanitizerSession::Create(Synthetic(9)).value();
  (void)session.Solve(UtilityObjective::kOutputSize, query).value();

  std::vector<std::string> doomed;
  for (UserId u = 0; u < session.raw_log().num_users(); u += 4) {
    doomed.push_back(session.raw_log().user_name(u));
  }
  ASSERT_TRUE(session.RemoveUsers(doomed).ok());

  const UmpSolution warm =
      session.Solve(UtilityObjective::kOutputSize, query).value();
  SanitizerSession scratch =
      SanitizerSession::Create(session.raw_log()).value();
  const UmpSolution cold =
      scratch.Solve(UtilityObjective::kOutputSize, query).value();
  // The basis remapped *down* onto the shrunk model is a usable warm
  // start and reaches the identical optimum.
  EXPECT_TRUE(warm.stats.warm_started);
  EXPECT_NEAR(warm.objective_value, cold.objective_value,
              1e-6 * (1.0 + std::abs(cold.objective_value)));
  EXPECT_EQ(warm.output_size, cold.output_size);
}

TEST(StreamRemoveTest, RemovingEveryUserLeavesAValidEmptySession) {
  SanitizerSession session =
      SanitizerSession::Create(Synthetic(13, /*users=*/10, /*events=*/400))
          .value();
  std::vector<std::string> all;
  for (UserId u = 0; u < session.raw_log().num_users(); ++u) {
    all.push_back(session.raw_log().user_name(u));
  }
  ASSERT_TRUE(session.RemoveUsers(all).ok());
  EXPECT_EQ(session.raw_log().num_users(), 0u);
  EXPECT_EQ(session.log().num_users(), 0u);
  // Idempotent: removing again (or removing nothing) stays OK.
  EXPECT_TRUE(session.RemoveUsers(all).ok());
  EXPECT_TRUE(session.RemoveUsers({}).ok());
  // And the empty session can grow again.
  ASSERT_TRUE(session.AppendUsers(Synthetic(14)).ok());
  EXPECT_GT(session.log().num_users(), 0u);
}

// --- PrivacyAccountant -----------------------------------------------------

TEST(AccountantTest, BasicCompositionMatchesClosedForm) {
  stream::BudgetConfig config;
  config.max_epsilon = 10.0;
  stream::PrivacyAccountant accountant(config);
  double expected_eps = 0.0, expected_delta = 0.0;
  for (int i = 1; i <= 5; ++i) {
    const double eps = 0.1 * i, delta = 0.01 * i;
    ASSERT_TRUE(accountant.Charge(eps, delta, "Solve", 1000 + i).ok());
    expected_eps += eps;
    expected_delta += delta;
  }
  EXPECT_DOUBLE_EQ(accountant.SpentEpsilon(), expected_eps);
  EXPECT_DOUBLE_EQ(accountant.SpentDelta(), expected_delta);
  EXPECT_DOUBLE_EQ(accountant.RemainingEpsilon(), 10.0 - expected_eps);
  EXPECT_EQ(accountant.history().size(), 5u);
}

TEST(AccountantTest, AdvancedCompositionMatchesClosedForm) {
  stream::BudgetConfig config;
  config.max_epsilon = 10.0;
  config.composition = stream::Composition::kAdvanced;
  config.advanced_delta_slack = 1e-6;
  stream::PrivacyAccountant accountant(config);
  const std::vector<double> epsilons = {0.1, 0.2, 0.15, 0.05};
  double sum = 0.0, sum_sq = 0.0, sum_growth = 0.0;
  for (size_t i = 0; i < epsilons.size(); ++i) {
    ASSERT_TRUE(accountant.Charge(epsilons[i], 1e-9, "Solve", i).ok());
    sum += epsilons[i];
    sum_sq += epsilons[i] * epsilons[i];
    sum_growth += epsilons[i] * std::expm1(epsilons[i]);
  }
  const double expected =
      std::sqrt(2.0 * std::log(1.0 / 1e-6) * sum_sq) + sum_growth;
  EXPECT_DOUBLE_EQ(accountant.SpentEpsilon(), expected);
  // Advanced composition is sub-linear: it beats the basic sum once the
  // per-query epsilons are small... for enough queries. And δ pays the
  // slack on top of the per-query deltas.
  EXPECT_DOUBLE_EQ(accountant.SpentDelta(), 1e-6 + 4 * 1e-9);
}

TEST(AccountantTest, RefusesAtTheFloorWithTypedStatus) {
  stream::BudgetConfig config;
  config.max_epsilon = 1.0;
  config.min_remaining_epsilon = 0.25;
  stream::PrivacyAccountant accountant(config);
  ASSERT_TRUE(accountant.Charge(0.5, 0.0, "Solve", 1).ok());
  EXPECT_FALSE(accountant.WouldRefuse(0.25, 0.0));
  ASSERT_TRUE(accountant.Charge(0.25, 0.0, "Solve", 2).ok());
  // Spending 0.75 of 1.0 leaves exactly the floor; any further charge
  // must be refused with the typed code, and the refusal is counted but
  // not recorded as an allocation.
  EXPECT_TRUE(accountant.WouldRefuse(0.1, 0.0));
  const Status refused = accountant.Charge(0.1, 0.0, "Solve", 3);
  EXPECT_EQ(refused.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(accountant.refusals(), 1u);
  EXPECT_EQ(accountant.history().size(), 2u);
  EXPECT_DOUBLE_EQ(accountant.SpentEpsilon(), 0.75);
  // Invalid charges are invalid-argument, not refusals.
  EXPECT_EQ(accountant.Charge(-1.0, 0.0, "Solve", 4).code(),
            StatusCode::kInvalidArgument);
}

TEST(AccountantTest, UnlimitedBudgetRecordsButNeverRefuses) {
  stream::PrivacyAccountant accountant;  // max_epsilon == 0
  EXPECT_FALSE(accountant.enforced());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(accountant.Charge(10.0, 0.1, "Sweep", i).ok());
  }
  EXPECT_EQ(accountant.history().size(), 100u);
  EXPECT_TRUE(std::isinf(accountant.RemainingEpsilon()));
}

TEST(AccountantTest, SerializeRoundTripIsBitIdentical) {
  stream::BudgetConfig config;
  // Advanced composition of ε = {0.3, 0.7} at the default 1e-9 slack
  // composes to ~5.7 — the cap must sit above that for both to land.
  config.max_epsilon = 6.0;
  config.max_delta = 0.5;
  config.min_remaining_epsilon = 0.125;
  config.composition = stream::Composition::kAdvanced;
  stream::PrivacyAccountant accountant(config);
  ASSERT_TRUE(accountant.Charge(0.3, 0.01, "Solve", 111).ok());
  ASSERT_TRUE(accountant.Charge(0.7, 0.02, "Sanitize", 222).ok());
  (void)accountant.Charge(100.0, 0.0, "Sweep", 333);  // refusal

  std::stringstream stream;
  accountant.Serialize(stream);
  stream::PrivacyAccountant restored =
      stream::PrivacyAccountant::Deserialize(stream).value();
  EXPECT_EQ(restored, accountant);
  // The running sums are re-accumulated in history order: spend is
  // bit-identical, not merely close.
  EXPECT_EQ(restored.SpentEpsilon(), accountant.SpentEpsilon());
  EXPECT_EQ(restored.SpentDelta(), accountant.SpentDelta());
  EXPECT_EQ(restored.refusals(), 1u);
}

// --- WindowState -----------------------------------------------------------

TEST(WindowTest, SlidingWindowExpiresStrictlyOlderUsers) {
  stream::WindowState window(
      {stream::WindowKind::kSliding, /*span=*/10});
  window.Observe("alice", 100);
  window.Observe("bob", 95);
  window.Observe("carol", 89);
  // At t=100 the window is [90, 100]: carol (89) is out, bob (95) is in.
  EXPECT_EQ(window.ExpiredAt(100),
            (std::vector<std::string>{"carol"}));
  // Observations are monotonic: an older re-observation cannot rescue.
  window.Observe("carol", 50);
  EXPECT_EQ(window.ExpiredAt(100), (std::vector<std::string>{"carol"}));
  window.Observe("carol", 99);
  EXPECT_TRUE(window.ExpiredAt(100).empty());
}

TEST(WindowTest, TumblingWindowRetiresWholePanes) {
  stream::WindowState window(
      {stream::WindowKind::kTumbling, /*span=*/10});
  window.Observe("alice", 12);
  window.Observe("bob", 19);
  // Pane [10, 20): nobody expires inside it...
  EXPECT_TRUE(window.ExpiredAt(19).empty());
  // ...but when the pane turns over, the whole previous pane retires.
  EXPECT_EQ(window.ExpiredAt(20),
            (std::vector<std::string>{"alice", "bob"}));
}

TEST(WindowTest, ExpireBeforeIgnoresPolicyAndForgetDropsState) {
  stream::WindowState window;  // kNone: policy-driven expiry is off
  window.Observe("alice", 5);
  window.Observe("bob", 15);
  EXPECT_TRUE(window.ExpiredAt(1000).empty());  // no policy, no expiry
  // The explicit EXPIRE verb still works: strictly-older, sorted.
  EXPECT_EQ(window.ExpiredBefore(15), (std::vector<std::string>{"alice"}));
  window.Forget({"alice"});
  EXPECT_EQ(window.tracked_users(), 1u);
  EXPECT_TRUE(window.ExpiredBefore(15).empty());
}

TEST(WindowTest, SerializeRoundTripsDeterministically) {
  stream::WindowState window(
      {stream::WindowKind::kSliding, /*span=*/3600});
  window.Observe("zed", 7);
  window.Observe("amy", 3);
  std::stringstream first, second;
  window.Serialize(first);
  stream::WindowState restored =
      stream::WindowState::Deserialize(first).value();
  EXPECT_EQ(restored, window);
  // Deterministic bytes (sorted serialization order) — what the CI
  // text-vs-binary byte-equivalence smoke relies on.
  restored.Serialize(second);
  std::stringstream third;
  window.Serialize(third);
  EXPECT_EQ(second.str(), third.str());
}

// --- Snapshot v2 (stream sections) -----------------------------------------

TEST(StreamSnapshotTest, StreamStateSurvivesSnapshotRoundTrip) {
  SanitizerSession session =
      SanitizerSession::Create(Synthetic(21, 12, 500)).value();
  serve::TenantStreamState state;
  stream::BudgetConfig config;
  config.max_epsilon = 2.0;
  state.accountant = stream::PrivacyAccountant(config);
  ASSERT_TRUE(state.accountant.Charge(0.5, 0.01, "Solve", 777).ok());
  state.window =
      stream::WindowState({stream::WindowKind::kTumbling, 86400});
  state.window.Observe("alice", 1234);

  std::stringstream stream;
  ASSERT_TRUE(
      serve::WriteSnapshot(stream, session.Snapshot(), &state).ok());
  serve::TenantStreamState restored;
  ASSERT_TRUE(serve::ReadSnapshot(stream, &restored).ok());
  EXPECT_EQ(restored.accountant, state.accountant);
  EXPECT_EQ(restored.window, state.window);
  EXPECT_EQ(restored.accountant.SpentEpsilon(),
            state.accountant.SpentEpsilon());
}

TEST(StreamSnapshotTest, NullStreamStateWritesEmptySections) {
  SanitizerSession session =
      SanitizerSession::Create(Synthetic(22, 12, 500)).value();
  std::stringstream stream;
  ASSERT_TRUE(serve::WriteSnapshot(stream, session.Snapshot()).ok());
  serve::TenantStreamState restored;
  restored.accountant = stream::PrivacyAccountant({/*max_epsilon=*/9.0});
  ASSERT_TRUE(serve::ReadSnapshot(stream, &restored).ok());
  // The out-param is overwritten with the (empty) stored state, never
  // left holding stale data.
  EXPECT_FALSE(restored.accountant.enforced());
  EXPECT_EQ(restored.accountant.history().size(), 0u);
  EXPECT_EQ(restored.window.tracked_users(), 0u);
}

// --- Serve-layer wiring ----------------------------------------------------

serve::ServiceOptions QuietOptions() {
  serve::ServiceOptions options;
  options.num_threads = 2;
  return options;
}

TEST(StreamServiceTest, BudgetExhaustionReturnsTypedStatus) {
  serve::SanitizerService service(QuietOptions());
  serve::CreateTenantRequest create{"t", Synthetic(31), std::nullopt};
  create.budget.max_epsilon = 1.0;
  ASSERT_TRUE(service.Submit(create).get().status.ok());

  // e_eps 2.0 → ε = ln 2 ≈ 0.693: the first solve fits, a second distinct
  // (non-cached) solve would push past 1.0 and must be refused.
  ASSERT_TRUE(
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .ok());
  // A repeat of the same query is a cache hit: free, still OK.
  ASSERT_TRUE(
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .ok());
  const Status refused =
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.1, 0.5))
          .status();
  EXPECT_EQ(refused.code(), StatusCode::kBudgetExhausted);

  const serve::BudgetStatus budget = service.Budget("t").value();
  EXPECT_TRUE(budget.enforced);
  EXPECT_EQ(budget.allocations, 1u);
  EXPECT_EQ(budget.refusals, 1u);
  EXPECT_NEAR(budget.spent_epsilon, std::log(2.0), 1e-12);

  const serve::TenantStats stats = service.Stats("t").value();
  EXPECT_EQ(stats.budget_refusals, 1u);
  EXPECT_EQ(stats.epsilon_spent_micro,
            static_cast<uint64_t>(std::log(2.0) * 1e6 + 0.5));
}

// With the §4.2 noise step on, the counts are an ε′ query on the log and
// the sampler spends ε on top: one Sanitize is one allocation of ε + ε′.
TEST(StreamServiceTest, LaplaceSanitizeChargesEpsilonPlusEpsilonPrime) {
  serve::SanitizerService service(QuietOptions());
  SessionOptions options;
  LaplaceStepOptions laplace;
  laplace.epsilon_prime = 0.25;
  options.laplace = laplace;
  serve::CreateTenantRequest create{"t", Synthetic(32), options};
  create.budget.max_epsilon = 10.0;
  create.budget.composition = stream::Composition::kBasic;
  ASSERT_TRUE(service.Submit(create).get().status.ok());

  const PrivacyParams privacy = PrivacyParams::FromEEpsilon(2.0, 0.5);
  const Result<SanitizeReport> report = service.Sanitize("t", privacy);
  ASSERT_TRUE(report.ok()) << report.status();

  const serve::BudgetStatus budget = service.Budget("t").value();
  EXPECT_EQ(budget.allocations, 1u);
  EXPECT_DOUBLE_EQ(budget.spent_epsilon, privacy.epsilon + 0.25);
  EXPECT_DOUBLE_EQ(budget.spent_delta, privacy.delta);
}

TEST(StreamServiceTest, RemoveUsersFlowsThroughServiceAndStaysWarm) {
  const SearchLog raw = Synthetic(33);
  serve::SanitizerService service(QuietOptions());
  ASSERT_TRUE(service.CreateTenant("t", raw).ok());
  ASSERT_TRUE(
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .ok());

  // Two fresh users on a brand-new shared pair, queued ahead of the
  // removal (which lands them first).
  SearchLogBuilder fresh;
  fresh.Add("fresh_a", "zz_query", "zz_url", 2);
  fresh.Add("fresh_b", "zz_query", "zz_url", 3);
  const SearchLog fresh_log = fresh.Build();
  ASSERT_TRUE(service.Append("t", fresh_log).ok());

  std::vector<std::string> doomed;
  for (UserId u = 0; u < raw.num_users(); u += 5) {
    doomed.push_back(raw.user_name(u));
  }
  ASSERT_TRUE(service.RemoveUsers("t", doomed).ok());
  const serve::TenantStats stats = service.Stats("t").value();
  EXPECT_EQ(stats.users_removed, doomed.size());

  // The removal invalidated the cache; the re-solve is a miss that warm
  // starts from the down-remapped basis and matches a cold solve.
  const UmpSolution warm =
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .value();
  EXPECT_TRUE(warm.stats.warm_started);

  std::unordered_set<std::string> gone(doomed.begin(), doomed.end());
  SearchLogBuilder survivors;
  for (UserId u = 0; u < raw.num_users(); ++u) {
    if (gone.count(raw.user_name(u)) > 0) continue;
    survivors.DeclareUser(raw.user_name(u));
    for (const PairCount& cell : raw.UserLogOf(u)) {
      survivors.Add(raw.user_name(u),
                    raw.query_name(raw.pair_query(cell.pair)),
                    raw.url_name(raw.pair_url(cell.pair)), cell.count);
    }
  }
  survivors.AddAll(fresh_log);
  SanitizerSession cold =
      SanitizerSession::Create(survivors.Build()).value();
  const UmpSolution cold_solution =
      cold.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5)).value();
  EXPECT_NEAR(warm.objective_value, cold_solution.objective_value,
              1e-6 * (1.0 + std::abs(cold_solution.objective_value)));
}

TEST(StreamServiceTest, ExpireWindowRemovesAgedUsersOnly) {
  serve::SanitizerService service(QuietOptions());
  serve::CreateTenantRequest create{"t", Synthetic(35), std::nullopt};
  create.window.kind = stream::WindowKind::kSliding;
  create.window.span = 3600;
  ASSERT_TRUE(service.Submit(create).get().status.ok());
  const size_t before = service.Stats("t").value().users_removed;
  // Everybody was observed "now"; a cutoff in the past expires nobody.
  ASSERT_TRUE(service.ExpireWindow("t", 1).ok());
  EXPECT_EQ(service.Stats("t").value().users_removed, before);
  // A cutoff far in the future expires everyone.
  ASSERT_TRUE(
      service.ExpireWindow("t", std::numeric_limits<uint64_t>::max()).ok());
  EXPECT_GT(service.Stats("t").value().users_removed, before);
}

TEST(StreamServiceTest, AccountantSurvivesSnapshotRestore) {
  const std::string path = ::testing::TempDir() + "/stream_acct.snap";
  serve::SanitizerService service(QuietOptions());
  serve::CreateTenantRequest create{"a", Synthetic(37), std::nullopt};
  create.budget.max_epsilon = 5.0;
  create.budget.min_remaining_epsilon = 0.5;
  ASSERT_TRUE(service.Submit(create).get().status.ok());
  ASSERT_TRUE(
      service.Solve("a", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .ok());
  const serve::BudgetStatus before = service.Budget("a").value();
  ASSERT_TRUE(service.SaveSnapshot("a", path).ok());

  // Restore as a different tenant (the migration path: SNAPSHOT on one
  // backend, RESTORE on another).
  ASSERT_TRUE(service.RestoreTenant("b", path).ok());
  const serve::BudgetStatus after = service.Budget("b").value();
  EXPECT_EQ(after.spent_epsilon, before.spent_epsilon);
  EXPECT_EQ(after.remaining_epsilon, before.remaining_epsilon);
  EXPECT_EQ(after.allocations, before.allocations);
  EXPECT_TRUE(after.enforced);
  EXPECT_EQ(after.max_epsilon, 5.0);

  // The restored tenant resumes warm: the first solve after restore
  // warm-starts from the stored basis (and is charged, like any miss).
  const UmpSolution solution =
      service.Solve("b", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .value();
  EXPECT_TRUE(solution.stats.warm_started);
}

}  // namespace
}  // namespace privsan
