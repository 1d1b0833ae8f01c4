// The asynchronous serve pipeline: Submit futures, per-tenant FIFO
// ordering under concurrent clients, background maintenance (flush +
// hot-query refresh) and global-memory-budget eviction with transparent
// warm reload. The ThreadSanitizer CI job runs this file with maintenance
// and eviction enabled.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "obs/slow_log.h"
#include "serve/api.h"
#include "serve/service.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

SearchLog Synthetic(uint64_t seed, size_t users = 50, size_t events = 2500) {
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

serve::TenantStats StatsOf(serve::SanitizerService& service,
                           const std::string& tenant) {
  return service.Stats(tenant).value();
}

// The value of `series` (a family name plus its label set, if any) in a
// Prometheus scrape; -1 when the scrape has no such line.
double ScrapeValue(const std::string& scrape, const std::string& series) {
  std::istringstream lines(scrape);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(series + " ", 0) == 0) {
      return std::stod(line.substr(series.size() + 1));
    }
  }
  return -1;
}

// Polls `predicate` until true or ~10s elapse (generous for TSan builds).
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

// A pipelined burst — create, appends, solve, stats — submitted without
// awaiting any future in between must equal the blocking reference.
TEST(AsyncServiceTest, PipelinedSubmitMatchesBlocking) {
  const SearchLog full = Synthetic(3, /*users=*/60, /*events=*/3000);
  const UserId cut = full.num_users() / 2;

  serve::SanitizerService service;
  std::vector<std::future<serve::ServeResponse>> futures;
  futures.push_back(service.Submit(serve::CreateTenantRequest{
      "t", UserSlice(full, 0, cut), std::nullopt}));
  futures.push_back(service.Submit(
      serve::AppendRequest{"t", UserSlice(full, cut, full.num_users())}));
  futures.push_back(service.Submit(
      serve::SolveRequest{"t", UtilityObjective::kOutputSize,
                          Query(2.0, 0.5)}));
  futures.push_back(service.Submit(serve::StatsRequest{"t"}));

  for (auto& future : futures) {
    ASSERT_TRUE(future.valid());
  }
  const serve::ServeResponse created = futures[0].get();
  const serve::ServeResponse appended = futures[1].get();
  const serve::ServeResponse solved = futures[2].get();
  const serve::ServeResponse stats = futures[3].get();
  EXPECT_TRUE(created.ok()) << created.status;
  EXPECT_TRUE(appended.ok()) << appended.status;
  ASSERT_TRUE(solved.ok()) << solved.status;
  ASSERT_NE(solved.solution(), nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status;
  ASSERT_NE(stats.stats(), nullptr);
  // The solve (queued after the append) saw the whole log.
  EXPECT_EQ(stats.stats()->flushes, 1u);
  EXPECT_EQ(stats.stats()->appends_enqueued, 1u);
  SanitizerSession reference = SanitizerSession::Create(full).value();
  EXPECT_EQ(solved.solution()->output_size,
            reference.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
                .value()
                .output_size);
}

TEST(AsyncServiceTest, UnknownTenantFailsTheFutureImmediately) {
  serve::SanitizerService service;
  serve::ServeResponse response =
      service
          .Submit(serve::SolveRequest{"ghost", UtilityObjective::kOutputSize,
                                      Query(2.0, 0.5)})
          .get();
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  // Duplicate create fails at registration time, before any queue work.
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(5)).ok());
  serve::ServeResponse duplicate =
      service
          .Submit(serve::CreateTenantRequest{"t", SearchLog(), std::nullopt})
          .get();
  EXPECT_EQ(duplicate.status.code(), StatusCode::kFailedPrecondition);
}

TEST(AsyncServiceTest, AppendFutureResolvesWithoutFlushing) {
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(7)).ok());
  ASSERT_TRUE(
      service.Submit(serve::AppendRequest{"t", Synthetic(8, 10, 400)})
          .get()
          .ok());
  const serve::TenantStats stats = StatsOf(service, "t");
  EXPECT_EQ(stats.appends_enqueued, 1u);
  EXPECT_EQ(stats.flushes, 0u);  // accepted, not yet coalesced
}

// N client threads drive concurrent Submit streams at M tenants with
// background flush and eviction enabled. Per-tenant FIFO ordering: each
// client's stats probe — queued after its appends — must observe them all;
// the final solve — queued after everything — must match a from-scratch
// session on the union log (warm == cold objectives).
TEST(AsyncServiceTest, ConcurrentSubmitStreamsKeepPerTenantOrder) {
  constexpr int kTenants = 3;
  constexpr int kClientsPerTenant = 2;
  constexpr int kAppendsPerClient = 4;

  // Per-tenant: a base log and per-client disjoint append slices.
  std::vector<SearchLog> bases;
  std::vector<std::vector<SearchLog>> client_batches(kTenants *
                                                     kClientsPerTenant);
  for (int t = 0; t < kTenants; ++t) {
    const SearchLog full = Synthetic(200 + t, /*users=*/48, /*events=*/2400);
    const UserId cut = full.num_users() / 2;
    bases.push_back(UserSlice(full, 0, cut));
    const UserId per_client = (full.num_users() - cut) / kClientsPerTenant;
    for (int c = 0; c < kClientsPerTenant; ++c) {
      const UserId begin = cut + c * per_client;
      const UserId end = c + 1 == kClientsPerTenant
                             ? full.num_users()
                             : begin + per_client;
      const int client = t * kClientsPerTenant + c;
      const UserId span =
          std::max<UserId>(1, (end - begin) / kAppendsPerClient);
      for (int a = 0; a < kAppendsPerClient; ++a) {
        const UserId lo = std::min<UserId>(end, begin + a * span);
        const UserId hi =
            a + 1 == kAppendsPerClient ? end : std::min(end, lo + span);
        client_batches[client].push_back(
            UserSlice(full, lo, std::max<UserId>(hi, lo)));
      }
    }
  }

  serve::ServiceOptions options;
  options.num_threads = 4;
  options.maintenance_interval_ms = 1;
  options.flush_max_age_ms = 1;
  options.flush_queue_depth = 2;
  options.memory_budget_bytes = 1;  // evict every idle tenant
  options.spill_directory = ::testing::TempDir();
  serve::SanitizerService service(options);
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        service.CreateTenant("tenant" + std::to_string(t), bases[t]).ok());
  }

  std::vector<int> order_violations(kTenants * kClientsPerTenant, 0);
  std::vector<std::thread> clients;
  for (int client = 0; client < kTenants * kClientsPerTenant; ++client) {
    clients.emplace_back([&, client] {
      const std::string tenant =
          "tenant" + std::to_string(client / kClientsPerTenant);
      std::vector<std::future<serve::ServeResponse>> futures;
      for (const SearchLog& batch : client_batches[client]) {
        futures.push_back(
            service.Submit(serve::AppendRequest{tenant, batch}));
      }
      // Queued after this client's appends: FIFO means the probe counts
      // them all (other clients may add more).
      std::future<serve::ServeResponse> probe =
          service.Submit(serve::StatsRequest{tenant});
      for (auto& future : futures) {
        if (!future.get().ok()) order_violations[client] = 1;
      }
      const serve::ServeResponse response = probe.get();
      // appends_enqueued is monotonic: queued after this client's appends,
      // the probe must count all of them (peers may add more).
      if (!response.ok() || response.stats() == nullptr ||
          response.stats()->appends_enqueued <
              static_cast<uint64_t>(kAppendsPerClient)) {
        order_violations[client] = 1;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kTenants * kClientsPerTenant; ++c) {
    EXPECT_EQ(order_violations[c], 0) << "client " << c;
  }

  // Final solves — queued after all appends — equal from-scratch cold
  // solves on the union logs, eviction/reload notwithstanding.
  for (int t = 0; t < kTenants; ++t) {
    SearchLogBuilder union_log;
    union_log.AddAll(bases[t]);
    for (int c = 0; c < kClientsPerTenant; ++c) {
      for (const SearchLog& batch :
           client_batches[t * kClientsPerTenant + c]) {
        union_log.AddAll(batch);
      }
    }
    SanitizerSession cold =
        SanitizerSession::Create(union_log.Build()).value();
    const uint64_t expected =
        cold.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
            .value()
            .output_size;
    const Result<UmpSolution> got = service.Solve(
        "tenant" + std::to_string(t), UtilityObjective::kOutputSize,
        Query(2.0, 0.5));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->output_size, expected) << "tenant " << t;
  }
}

TEST(AsyncServiceTest, BackgroundFlushDrainsQueueOffTheQueryPath) {
  serve::ServiceOptions options;
  options.maintenance_interval_ms = 1;
  options.flush_max_age_ms = 1;
  serve::SanitizerService service(options);
  const SearchLog full = Synthetic(11, /*users=*/40, /*events=*/2000);
  const UserId cut = full.num_users() / 2;
  ASSERT_TRUE(service.CreateTenant("t", UserSlice(full, 0, cut)).ok());
  ASSERT_TRUE(
      service.Append("t", UserSlice(full, cut, full.num_users())).ok());

  // The maintenance thread lands the batch with no solve in sight.
  ASSERT_TRUE(WaitFor([&] { return StatsOf(service, "t").flushes >= 1; }));
  const serve::TenantStats stats = StatsOf(service, "t");
  EXPECT_GE(stats.maintenance_flushes, 1u);
  EXPECT_EQ(stats.appends_coalesced, 1u);

  // The subsequent solve needs no further flush and matches from-scratch.
  const UmpSolution solution =
      service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
          .value();
  EXPECT_EQ(StatsOf(service, "t").flushes, stats.flushes);
  SanitizerSession cold = SanitizerSession::Create(full).value();
  EXPECT_EQ(solution.output_size,
            cold.Solve(UtilityObjective::kOutputSize, Query(2.0, 0.5))
                .value()
                .output_size);
}

TEST(AsyncServiceTest, HotQueryRefreshKeepsRepeatedBudgetCached) {
  serve::ServiceOptions options;
  options.maintenance_interval_ms = 1;
  options.flush_max_age_ms = 1;
  options.slow_request_threshold_ms = 0;  // every request leaves a record
  serve::SanitizerService service(options);
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(13)).ok());
  const UmpQuery query = Query(2.0, 0.5);
  (void)service.Solve("t", UtilityObjective::kOutputSize, query).value();

  ASSERT_TRUE(service.Append("t", Synthetic(14, 8, 300)).ok());
  ASSERT_TRUE(WaitFor([&] {
    return StatsOf(service, "t").refresh_solves >= 1;
  }));

  // The maintenance Flush that landed the append (the test never flushes
  // itself) carries its refresh solve's time, and the service-wide solver
  // counters, which the refresh's pivots now reach, equal the tenant's.
  obs::SlowRequestRecord flush;
  ASSERT_TRUE(WaitFor([&] {
    for (const obs::SlowRequestRecord& record : service.SlowLog()) {
      if (record.verb == "Flush") {
        flush = record;
        return true;
      }
    }
    return false;
  }));
  EXPECT_GT(flush.trace.solve_ms, 0.0);
  EXPECT_GT(flush.trace.iterations, 0u);
  const std::string scrape = service.RenderMetrics();
  const std::string tenant = "{tenant=\"t\"}";
  const double tenant_iterations = ScrapeValue(
      scrape, "privsan_tenant_simplex_iterations_total" + tenant);
  EXPECT_GT(tenant_iterations, 0.0);
  EXPECT_EQ(ScrapeValue(scrape, "privsan_simplex_iterations_total"),
            tenant_iterations);
  EXPECT_EQ(
      ScrapeValue(scrape, "privsan_repair_pivots_total"),
      ScrapeValue(scrape, "privsan_tenant_dual_iterations_total" + tenant));

  // The repeated-budget query hits the refreshed cache even though the
  // flush invalidated the original entry.
  const uint64_t hits_before = StatsOf(service, "t").cache_hits;
  const UmpSolution solution =
      service.Solve("t", UtilityObjective::kOutputSize, query).value();
  EXPECT_GT(StatsOf(service, "t").cache_hits, hits_before);
  EXPECT_GT(solution.output_size, 0u);
}

// A tenant evicted under the global budget restores transparently on its
// next solve: same objective, warm (dual warm-start from the snapshot
// basis), with the reload visible in the stats.
TEST(AsyncServiceTest, EvictedTenantRestoresTransparentlyAndWarm) {
  serve::ServiceOptions options;
  options.maintenance_interval_ms = 1;
  options.memory_budget_bytes = 1;  // every idle tenant is over budget
  options.spill_directory = ::testing::TempDir();
  serve::SanitizerService service(options);
  ASSERT_TRUE(service.CreateTenant("a", Synthetic(21)).ok());
  ASSERT_TRUE(service.CreateTenant("b", Synthetic(22)).ok());

  const UmpQuery query = Query(2.0, 0.5);
  const uint64_t before =
      service.Solve("a", UtilityObjective::kOutputSize, query)
          .value()
          .output_size;
  (void)service.Solve("b", UtilityObjective::kOutputSize, query).value();

  // Stats never reloads, so polling observes the eviction without undoing
  // it. Poll for the evicted state (not just the counter): an eviction
  // that landed before the solve was already undone by the solve's
  // transparent reload, and the idle tenant re-evicts on a later tick.
  ASSERT_TRUE(WaitFor([&] {
    const serve::TenantStats stats = StatsOf(service, "a");
    return stats.evictions >= 1 && stats.resident_bytes == 0;
  }));

  const Result<UmpSolution> after =
      service.Solve("a", UtilityObjective::kOutputSize, query);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->output_size, before);
  // The reload resumed warm from the spilled basis, not with a cold solve.
  EXPECT_TRUE(after->stats.warm_started);
  const serve::TenantStats stats = StatsOf(service, "a");
  EXPECT_GE(stats.reloads, 1u);
  // Resident again after the reload — unless the 1-byte budget already
  // re-evicted the now-idle tenant on a subsequent maintenance tick.
  EXPECT_TRUE(stats.resident_bytes > 0 || stats.evictions >= 2);
}

// Spill snapshots hold raw un-sanitized logs; shutting the service down
// must not leave them on disk.
TEST(AsyncServiceTest, ShutdownRemovesSpillFiles) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "privsan_spill_cleanup";
  std::filesystem::create_directories(dir);
  {
    serve::ServiceOptions options;
    options.maintenance_interval_ms = 1;
    options.memory_budget_bytes = 1;
    options.spill_directory = dir.string();
    serve::SanitizerService service(options);
    ASSERT_TRUE(service.CreateTenant("t", Synthetic(41)).ok());
    (void)service.Solve("t", UtilityObjective::kOutputSize, Query(2.0, 0.5))
        .value();
    ASSERT_TRUE(
        WaitFor([&] { return StatsOf(service, "t").evictions >= 1; }));
    // The counter can be ahead of the disk: an eviction that landed before
    // the solve was already undone by the solve's transparent reload. The
    // tenant is idle now, so the next tick re-evicts; poll for the file.
    ASSERT_TRUE(
        WaitFor([&] { return !std::filesystem::is_empty(dir); }));
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(AsyncServiceTest, DropThroughTheQueueReleasesTheName) {
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(31)).ok());
  std::future<serve::ServeResponse> drop =
      service.Submit(serve::DropTenantRequest{"t"});
  EXPECT_TRUE(drop.get().ok());
  EXPECT_TRUE(service.Tenants().empty());
  // The name is reusable, and requests to the dropped tenant fail NotFound.
  EXPECT_EQ(service.Flush("t").code(), StatusCode::kNotFound);
  EXPECT_TRUE(service.CreateTenant("t", Synthetic(32)).ok());
}

// The callback Submit overload (the network front-end's path): delivered
// from a worker on success, inline for pre-queue failures.
TEST(AsyncServiceTest, CallbackSubmitDeliversExactlyOnce) {
  serve::SanitizerService service;
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(51)).ok());

  std::promise<serve::ServeResponse> solved;
  service.Submit(
      serve::SolveRequest{"t", UtilityObjective::kOutputSize,
                          Query(2.0, 0.5)},
      [&](serve::ServeResponse response) {
        solved.set_value(std::move(response));
      });
  serve::ServeResponse response = solved.get_future().get();
  ASSERT_TRUE(response.ok()) << response.status;
  EXPECT_NE(response.solution(), nullptr);

  // Unknown tenant: the callback still runs (inline), with NotFound.
  std::promise<Status> missing;
  service.Submit(serve::StatsRequest{"nope"},
                 [&](serve::ServeResponse r) {
                   missing.set_value(std::move(r.status));
                 });
  EXPECT_EQ(missing.get_future().get().code(), StatusCode::kNotFound);
}

// max_queue_depth: flooding one tenant's queue rejects the overflow with
// kResourceExhausted; DropTenant stays admissible on a full queue.
TEST(AsyncServiceTest, AdmissionControlRejectsFloodedTenant) {
  serve::ServiceOptions options;
  options.num_threads = 1;  // one worker: a slow job blocks the queue
  options.max_queue_depth = 2;
  serve::SanitizerService service(options);
  ASSERT_TRUE(service.CreateTenant("t", Synthetic(52)).ok());

  // Park the single worker in a sweep, then flood.
  std::vector<UmpQuery> grid;
  for (int i = 0; i < 6; ++i) grid.push_back(Query(1.5 + 0.2 * i, 0.5));
  std::future<serve::ServeResponse> sweep = service.Submit(
      serve::SweepRequest{"t", UtilityObjective::kOutputSize, grid, {}});

  const SearchLog batch = Synthetic(53, /*users=*/10, /*events=*/200);
  std::vector<std::future<serve::ServeResponse>> appends;
  for (int i = 0; i < 10; ++i) {
    appends.push_back(service.Submit(serve::AppendRequest{"t", batch}));
  }
  // Drop is exempt: it must queue even though the tenant is flooded.
  std::future<serve::ServeResponse> drop =
      service.Submit(serve::DropTenantRequest{"t"});

  size_t rejected = 0;
  for (std::future<serve::ServeResponse>& append : appends) {
    const Status status = append.get().status;
    if (status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    } else {
      EXPECT_TRUE(status.ok()) << status;
    }
  }
  // Depth 2 against a burst of 10 on a blocked queue: most must bounce.
  EXPECT_GE(rejected, 7u);
  EXPECT_TRUE(sweep.get().ok());
  EXPECT_TRUE(drop.get().ok());
}

// A Solve queued behind a multi-cell Sweep on a single worker must show up
// in the slow log with the wait charged to the queue stage and the work to
// the solve stage — the trace decomposition the SLOWLOG verb exists for.
TEST(AsyncServiceTest, QueuedSolveTracesNonzeroQueueWait) {
  serve::ServiceOptions options;
  options.num_threads = 1;  // one worker: the sweep blocks the queue
  options.slow_request_threshold_ms = 0;  // record every request
  serve::SanitizerService service(options);
  ASSERT_TRUE(
      service.CreateTenant("t", Synthetic(91, /*users=*/80, /*events=*/4000))
          .ok());

  std::vector<UmpQuery> grid;
  for (int i = 0; i < 8; ++i) grid.push_back(Query(1.4 + 0.15 * i, 0.5));
  std::future<serve::ServeResponse> sweep = service.Submit(
      serve::SweepRequest{"t", UtilityObjective::kOutputSize, grid, {}});
  // Uncached solve, queued while the worker is inside the sweep.
  std::future<serve::ServeResponse> solve = service.Submit(
      serve::SolveRequest{"t", UtilityObjective::kDiversity, Query(3.0, 0.5)});

  // A metrics scrape answers inline even with the only worker parked.
  const serve::ServeResponse scrape =
      service.Submit(serve::MetricsRequest{}).get();
  ASSERT_TRUE(scrape.ok()) << scrape.status;
  ASSERT_NE(scrape.metrics(), nullptr);
  EXPECT_NE(scrape.metrics()->text.find("privsan_requests_total"),
            std::string::npos);

  ASSERT_TRUE(sweep.get().ok());
  ASSERT_TRUE(solve.get().ok());

  bool found = false;
  for (const obs::SlowRequestRecord& record : service.SlowLog()) {
    if (record.verb != "Solve") continue;
    found = true;
    EXPECT_GT(record.trace.queue_ms, 0.0);
    EXPECT_GT(record.trace.solve_ms, 0.0);
    EXPECT_GE(record.total_ms,
              record.trace.queue_ms + record.trace.solve_ms);
  }
  EXPECT_TRUE(found) << "no Solve record in the slow log";

  // The SlowLog verb round-trips the same records through Submit.
  const serve::ServeResponse dump =
      service.Submit(serve::SlowLogRequest{}).get();
  ASSERT_TRUE(dump.ok()) << dump.status;
  ASSERT_NE(dump.slow_log(), nullptr);
  EXPECT_EQ(dump.slow_log()->records.size(), service.SlowLog().size());
}

}  // namespace
}  // namespace privsan
