// serve::SanitizerService semantics: tenant lifecycle, append-queue
// batching, the budget-keyed result cache and its invalidation, and
// deterministic multi-tenant isolation under concurrency (the ThreadSanitizer
// CI job runs this file).
#include "serve/service.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {


SearchLog Synthetic(uint64_t seed, size_t users = 60, size_t events = 3000) {
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

TEST(ServiceTest, TenantLifecycle) {
  serve::SanitizerService service;
  EXPECT_TRUE(service.CreateTenant("a", Synthetic(1)).ok());
  EXPECT_TRUE(service.CreateTenant("b", Synthetic(2)).ok());
  // Duplicate names and unknown tenants fail cleanly.
  EXPECT_EQ(service.CreateTenant("a", Synthetic(3)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Solve("ghost", UtilityObjective::kOutputSize,
                          Query(2.0, 0.5))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Tenants(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(service.DropTenant("a").ok());
  EXPECT_EQ(service.DropTenant("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Tenants(), (std::vector<std::string>{"b"}));
}

TEST(ServiceTest, SolveMatchesDirectSession) {
  const SearchLog raw = Synthetic(7);
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", raw).ok());
  const UmpSolution via_service =
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .value();

  SanitizerSession direct = SanitizerSession::Create(raw).value();
  const UmpSolution via_session =
      direct.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5)).value();
  // Same log, same cold solve path: identical, not just equal-objective.
  EXPECT_EQ(via_service.x, via_session.x);
  EXPECT_EQ(via_service.output_size, via_session.output_size);
}

TEST(ServiceTest, AppendQueueCoalescesIntoOneFlush) {
  const SearchLog full = Synthetic(9, /*users=*/80, /*events=*/4000);
  const UserId cut = full.num_users() / 2;
  constexpr int kBatches = 5;

  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", UserSlice(full, 0, cut)).ok());
  const UserId per_batch =
      (full.num_users() - cut + kBatches - 1) / kBatches;
  for (int b = 0; b < kBatches; ++b) {
    const UserId begin = cut + b * per_batch;
    const UserId end = std::min<UserId>(full.num_users(),
                                        begin + per_batch);
    ASSERT_TRUE(service.Append("t", UserSlice(full, begin, end)).ok());
  }
  serve::TenantStats stats = service.Stats("t").value();
  EXPECT_EQ(stats.appends_enqueued, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.flushes, 0u);  // nothing landed yet

  // The solve auto-flushes: one AppendUsers for all batches.
  const UmpSolution solution =
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .value();
  stats = service.Stats("t").value();
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.appends_coalesced, static_cast<uint64_t>(kBatches));
  // Half the user base arrived: every row was touched or new, but the
  // patch accounting must still cover the whole system.
  EXPECT_GT(stats.rows_rebuilt, 0u);

  // Result equals a from-scratch solve on the whole log.
  SanitizerSession scratch =
      SanitizerSession::Create(UserSlice(full, 0, full.num_users())).value();
  const UmpSolution cold =
      scratch.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5)).value();
  EXPECT_EQ(solution.output_size, cold.output_size);
  EXPECT_NEAR(solution.objective_value, cold.objective_value,
              1e-6 * (1.0 + cold.objective_value));
}

TEST(ServiceTest, ResultCacheHitsAndInvalidatesOnAppend) {
  const SearchLog full = Synthetic(13, /*users=*/80, /*events=*/4000);
  const UserId cut = full.num_users() * 3 / 4;
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", UserSlice(full, 0, cut)).ok());
  const UmpQuery query = Query(2.0, 0.5);

  const UmpSolution first =
      service.Solve("t", UtilityObjective::kOutputSize, query).value();
  const UmpSolution second =
      service.Solve("t", UtilityObjective::kOutputSize, query).value();
  serve::TenantStats stats = service.Stats("t").value();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.solves, 1u);  // the hit did not re-solve
  EXPECT_EQ(first.x, second.x);

  // A different budget is a different key.
  (void)service.Solve("t", UtilityObjective::kOutputSize, Query(1.4, 0.5))
      .value();
  stats = service.Stats("t").value();
  EXPECT_EQ(stats.cache_misses, 2u);

  // Appending invalidates: the same key re-solves on the grown log.
  ASSERT_TRUE(
      service.Append("t", UserSlice(full, cut, full.num_users())).ok());
  const UmpSolution after =
      service.Solve("t", UtilityObjective::kOutputSize, query).value();
  stats = service.Stats("t").value();
  EXPECT_EQ(stats.cache_hits, 1u);  // unchanged
  EXPECT_EQ(stats.cache_misses, 3u);
  // The post-invalidation solve ran on the grown log.
  SanitizerSession scratch =
      SanitizerSession::Create(UserSlice(full, 0, full.num_users())).value();
  EXPECT_EQ(after.output_size,
            scratch.Solve(UtilityObjective::kOutputSize, query)
                .value()
                .output_size);
}

TEST(ServiceTest, CacheDisabledNeverHits) {
  serve::ServiceOptions options;
  options.result_cache_capacity = 0;
  serve::SanitizerService service(options);
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(5)).ok());
  const UmpQuery query = Query(2.0, 0.5);
  (void)service.Solve("t", UtilityObjective::kOutputSize, query).value();
  (void)service.Solve("t", UtilityObjective::kOutputSize, query).value();
  const serve::TenantStats stats = service.Stats("t").value();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.solves, 2u);
}

// Sanitize runs a UMP solve; its solver effort must reach the tenant's
// counters like any Solve's, or STATS/METRICS under-report a tenant that
// only ever releases.
TEST(ServiceTest, SanitizeReachesSolverCounters) {
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(13)).ok());
  const SanitizeReport report =
      service.Sanitize("t", PrivacyParams::FromEEpsilon(2.0, 0.5)).value();
  EXPECT_GT(report.stats.simplex_iterations, 0);
  EXPECT_GT(report.stats.refactorizations, 0);

  const serve::TenantStats stats = service.Stats("t").value();
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.refactorizations,
            static_cast<uint64_t>(report.stats.refactorizations));
  EXPECT_GT(stats.factor_nnz, 0u);
  EXPECT_EQ(stats.factor_nnz, report.stats.factor_nnz);
}

TEST(ServiceTest, SweepThroughServiceMatchesSession) {
  const SearchLog raw = Synthetic(17);
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", raw).ok());
  std::vector<UmpQuery> grid;
  for (double e_eps : {1.4, 1.7, 2.0}) grid.push_back(Query(e_eps, 0.5));

  const SweepResult via_service =
      service.Sweep("t", UtilityObjective::kOutputSize, grid).value();
  SanitizerSession session = SanitizerSession::Create(raw).value();
  const SweepResult via_session =
      session.SweepBudgets(UtilityObjective::kOutputSize, grid).value();
  ASSERT_EQ(via_service.cells.size(), via_session.cells.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(via_service.cells[i].output_size,
              via_session.cells[i].output_size);
  }
}

// N client threads, each hammering its own tenant. Per-tenant results must
// be bit-identical to a serial run of the same sequence: tenants share only
// the thread pool, never solver state.
TEST(ServiceTest, ConcurrentTenantsAreIsolatedAndDeterministic) {
  constexpr int kTenants = 4;
  std::vector<SearchLog> raws;
  std::vector<SearchLog> appends;
  for (int t = 0; t < kTenants; ++t) {
    const SearchLog full = Synthetic(100 + t, /*users=*/50,
                                     /*events=*/2500);
    const UserId cut = full.num_users() * 3 / 4;
    raws.push_back(UserSlice(full, 0, cut));
    appends.push_back(UserSlice(full, cut, full.num_users()));
  }

  // Serial reference, one isolated session per tenant.
  std::vector<uint64_t> expected_before(kTenants), expected_after(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    SanitizerSession session = SanitizerSession::Create(raws[t]).value();
    expected_before[t] =
        session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
            .value()
            .output_size;
    ASSERT_TRUE(session.AppendUsers(appends[t]).ok());
    expected_after[t] =
        session.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
            .value()
            .output_size;
  }

  serve::ServiceOptions options;
  options.num_threads = 3;
  serve::SanitizerService service(options);
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        service.CreateTenant("tenant" + std::to_string(t), raws[t]).ok());
  }
  std::vector<uint64_t> got_before(kTenants, 0), got_after(kTenants, 0);
  std::vector<int> failures(kTenants, 0);
  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      const std::string name = "tenant" + std::to_string(t);
      auto before =
          service.Solve(name, UtilityObjective::kOutputSize, Query(2.0, 0.5));
      if (!before.ok() || !service.Append(name, appends[t]).ok()) {
        failures[t] = 1;
        return;
      }
      auto after =
          service.Solve(name, UtilityObjective::kOutputSize, Query(2.0, 0.5));
      if (!after.ok()) {
        failures[t] = 1;
        return;
      }
      got_before[t] = before->output_size;
      got_after[t] = after->output_size;
    });
  }
  for (std::thread& client : clients) client.join();
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_EQ(failures[t], 0) << "tenant " << t;
    EXPECT_EQ(got_before[t], expected_before[t]) << "tenant " << t;
    EXPECT_EQ(got_after[t], expected_after[t]) << "tenant " << t;
  }
}

// Many threads aimed at ONE tenant: the per-tenant lock serializes them;
// results must all be the cached/identical solution. Primarily a TSan
// target.
TEST(ServiceTest, ConcurrentCallsOnOneTenantSerialize) {
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(31)).ok());
  constexpr int kThreads = 6;
  std::vector<uint64_t> sizes(kThreads, 0);
  std::vector<std::thread> clients;
  for (int i = 0; i < kThreads; ++i) {
    clients.emplace_back([&, i] {
      auto solution =
          service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5));
      sizes[i] = solution.ok() ? solution->output_size : 0;
    });
  }
  for (std::thread& client : clients) client.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(sizes[i], sizes[0]);
  EXPECT_GT(sizes[0], 0u);
  const serve::TenantStats stats = service.Stats("t").value();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.solves, stats.cache_misses);
}

TEST(ServiceTest, EmptyTenantGrowsThroughAppends) {
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", SearchLog()).ok());
  EXPECT_FALSE(
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .ok());
  SearchLogBuilder a, b;
  a.Add("alice", "q", "u", 3);
  b.Add("bob", "q", "u", 2);
  ASSERT_TRUE(service.Append("t", a.Build()).ok());
  ASSERT_TRUE(service.Append("t", b.Build()).ok());
  EXPECT_TRUE(
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .ok());
}

}  // namespace
}  // namespace privsan
