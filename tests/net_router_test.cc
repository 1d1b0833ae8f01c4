// The consistent-hash router: ring placement properties, tenant pinning
// across two in-process backends, and explicit migration on ring change —
// a moved tenant's state follows it (snapshot save/restore) and its next
// solve resumes warm with the identical objective.
#include "net/router.h"

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/server.h"
#include "serve/api.h"
#include "serve/service.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using net::HashRing;
using net::Migration;
using net::NetServer;
using net::Router;

SearchLog Synthetic(uint64_t seed, size_t users = 40, size_t events = 1500) {
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

serve::ServeResponse Call(Router& router, serve::ServeRequest request) {
  std::promise<serve::ServeResponse> promise;
  std::future<serve::ServeResponse> future = promise.get_future();
  router.Submit(std::move(request), [&promise](serve::ServeResponse r) {
    promise.set_value(std::move(r));
  });
  return future.get();
}

// One in-process backend: a service plus a NetServer on its own thread.
struct BackendProcess {
  BackendProcess() : server(&service) {
    EXPECT_TRUE(server.Start().ok());
    thread = std::thread([this] { EXPECT_TRUE(server.Serve().ok()); });
  }
  ~BackendProcess() {
    server.Shutdown();
    thread.join();
  }
  uint16_t port() { return server.port(); }

  serve::SanitizerService service;
  NetServer server;
  std::thread thread;
};

TEST(HashRingTest, RemovalOnlyMovesKeysOwnedByTheRemovedNode) {
  HashRing ring;
  ring.Add("a");
  ring.Add("b");
  ring.Add("c");
  std::vector<std::string> before;
  std::set<std::string> owners;
  for (int i = 0; i < 300; ++i) {
    before.push_back(ring.Locate("key-" + std::to_string(i)));
    owners.insert(before.back());
  }
  EXPECT_EQ(owners.size(), 3u);  // 64 vnodes spread 300 keys over all nodes
  ring.Remove("c");
  for (int i = 0; i < 300; ++i) {
    const std::string& after = ring.Locate("key-" + std::to_string(i));
    if (before[i] != "c") {
      // The defining consistent-hashing property: keys not owned by the
      // removed node do not move.
      EXPECT_EQ(after, before[i]) << "key-" << i;
    } else {
      EXPECT_NE(after, "c");
    }
  }
}

TEST(NetRouterTest, PinsTenantsAndRoutesEveryVerb) {
  BackendProcess a;
  BackendProcess b;
  Router::Options options;
  options.backends = {a.port(), b.port()};
  Router router(options);
  ASSERT_TRUE(router.Start().ok());
  EXPECT_EQ(router.backend_count(), 2u);

  const int kTenants = 8;
  for (int i = 0; i < kTenants; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    ASSERT_TRUE(Call(router,
                     serve::CreateTenantRequest{tenant, Synthetic(100 + i),
                                                std::nullopt})
                    .ok());
    const serve::ServeResponse solved = Call(
        router, serve::SolveRequest{tenant, UtilityObjective::kOutputSize,
                                    Query(2.0, 0.5)});
    ASSERT_TRUE(solved.ok()) << solved.status;
    const serve::ServeResponse stats =
        Call(router, serve::StatsRequest{tenant});
    ASSERT_TRUE(stats.ok()) << stats.status;
    EXPECT_EQ(stats.stats()->solves, 1u);
  }
  // Every tenant lives on exactly one backend, and the two registries
  // partition the tenant set.
  const auto on_a = a.service.Tenants();
  const auto on_b = b.service.Tenants();
  EXPECT_EQ(on_a.size() + on_b.size(), static_cast<size_t>(kTenants));
  for (const std::string& tenant : on_a) {
    EXPECT_EQ(std::count(on_b.begin(), on_b.end(), tenant), 0);
  }
}

// The value of `family`'s series for the backend on `port` in a
// Prometheus scrape, or -1 when the series is missing.
double BackendGauge(const std::string& scrape, const std::string& family,
                    uint16_t port) {
  const std::string series =
      family + "{backend=\"" + std::to_string(port) + "\"} ";
  const size_t at = scrape.find(series);
  if (at == std::string::npos) return -1.0;
  return std::stod(scrape.substr(at + series.size()));
}

// Kernel health reaches the router from every reply that carries solver
// effort: a tenant that only ever Sanitizes raises its backend's peaks.
TEST(NetRouterTest, SanitizeRepliesRaiseKernelHealthGauges) {
  BackendProcess a;
  Router::Options options;
  options.backends = {a.port()};
  Router router(options);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_TRUE(
      Call(router, serve::CreateTenantRequest{"t", Synthetic(5), std::nullopt})
          .ok());
  const char* kNnz = "privsan_router_backend_factor_nnz";
  const char* kRun = "privsan_router_backend_max_update_run";
  EXPECT_EQ(BackendGauge(router.Metrics(), kNnz, a.port()), 0.0);
  EXPECT_EQ(BackendGauge(router.Metrics(), kRun, a.port()), 0.0);

  const serve::ServeResponse sanitized = Call(
      router,
      serve::SanitizeRequest{"t", PrivacyParams::FromEEpsilon(2.0, 0.5)});
  ASSERT_TRUE(sanitized.ok()) << sanitized.status;
  const UmpStats& stats = sanitized.report()->stats;
  ASSERT_GT(stats.factor_nnz, 0u);
  ASSERT_GT(stats.max_update_run, 0u);
  const std::string scrape = router.Metrics();
  EXPECT_EQ(BackendGauge(scrape, kNnz, a.port()),
            static_cast<double>(stats.factor_nnz));
  EXPECT_EQ(BackendGauge(scrape, kRun, a.port()),
            static_cast<double>(stats.max_update_run));
}

TEST(NetRouterTest, AddBackendMigratesTenantsWarm) {
  BackendProcess a;
  BackendProcess b;
  Router::Options options;
  options.backends = {a.port()};
  Router router(options);
  ASSERT_TRUE(router.Start().ok());

  // Choose a tenant name the grown ring will re-home onto backend b, so
  // the migration below is deterministic.
  const std::string key_a = std::to_string(a.port());
  const std::string key_b = std::to_string(b.port());
  HashRing grown;
  grown.Add(key_a);
  grown.Add(key_b);
  std::string mover;
  for (int i = 0; i < 1000 && mover.empty(); ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    if (grown.Locate(name) == key_b) mover = name;
  }
  ASSERT_FALSE(mover.empty());

  const UmpQuery query = Query(2.0, 0.5);
  ASSERT_TRUE(
      Call(router,
           serve::CreateTenantRequest{mover, Synthetic(42), std::nullopt})
          .ok());
  const serve::ServeResponse cold = Call(
      router,
      serve::SolveRequest{mover, UtilityObjective::kOutputSize, query});
  ASSERT_TRUE(cold.ok()) << cold.status;
  EXPECT_FALSE(cold.solution()->stats.warm_started);

  Result<std::vector<Migration>> migrated = router.AddBackend(b.port());
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  bool moved = false;
  for (const Migration& migration : *migrated) {
    if (migration.tenant == mover) {
      moved = true;
      EXPECT_EQ(migration.from, a.port());
      EXPECT_EQ(migration.to, b.port());
    }
  }
  ASSERT_TRUE(moved);
  // The state actually changed hands: registry membership flipped.
  const std::vector<std::string> on_a = a.service.Tenants();
  const std::vector<std::string> on_b = b.service.Tenants();
  EXPECT_EQ(std::count(on_a.begin(), on_a.end(), mover), 0);
  EXPECT_EQ(std::count(on_b.begin(), on_b.end(), mover), 1);

  // The same query through the router now executes on b — warm, with the
  // identical objective (the snapshot carried the solve basis).
  const serve::ServeResponse warm = Call(
      router,
      serve::SolveRequest{mover, UtilityObjective::kOutputSize, query});
  ASSERT_TRUE(warm.ok()) << warm.status;
  EXPECT_TRUE(warm.solution()->stats.warm_started);
  EXPECT_NEAR(warm.solution()->objective_value,
              cold.solution()->objective_value, 1e-6);
  EXPECT_EQ(warm.solution()->output_size, cold.solution()->output_size);
}

// Pins must not outlive tenant state: a drop through the router unpins, a
// NotFound reply unpins a phantom (never-created) tenant, and a tenant
// dropped behind the router's back unpins at migration time or via the
// last-backend probe — so RemoveBackend never wedges on tenants that no
// longer exist.
TEST(NetRouterTest, StalePinsDoNotBlockBackendRemoval) {
  BackendProcess a;
  BackendProcess b;
  Router::Options options;
  options.backends = {a.port(), b.port()};
  Router router(options);
  ASSERT_TRUE(router.Start().ok());

  // Requests naming tenants that never existed fail NotFound and must not
  // pin permanently.
  for (int i = 0; i < 8; ++i) {
    const serve::ServeResponse ghost =
        Call(router, serve::StatsRequest{"ghost-" + std::to_string(i)});
    EXPECT_EQ(ghost.status.code(), StatusCode::kNotFound);
  }
  // A real tenant created, solved, and dropped through the router.
  ASSERT_TRUE(Call(router, serve::CreateTenantRequest{"doomed",
                                                      Synthetic(77),
                                                      std::nullopt})
                  .ok());
  ASSERT_TRUE(Call(router, serve::SolveRequest{
                               "doomed", UtilityObjective::kOutputSize,
                               Query(2.0, 0.5)})
                  .ok());
  ASSERT_TRUE(Call(router, serve::DropTenantRequest{"doomed"}).ok());
  // A tenant dropped behind the router's back, directly on its backend.
  ASSERT_TRUE(Call(router, serve::CreateTenantRequest{"vanished",
                                                      Synthetic(78),
                                                      std::nullopt})
                  .ok());
  for (auto* service : {&a.service, &b.service}) {
    const std::vector<std::string> tenants = service->Tenants();
    if (std::count(tenants.begin(), tenants.end(), "vanished") > 0) {
      ASSERT_TRUE(service->DropTenant("vanished").ok());
    }
  }

  // Both removals must go through: before the pin-lifecycle fixes the
  // stale pins made RemoveBackend fail "still hosts tenants" forever.
  Result<std::vector<Migration>> removed = router.RemoveBackend(a.port());
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(router.backend_count(), 1u);
  const Result<std::vector<Migration>> last = router.RemoveBackend(b.port());
  EXPECT_TRUE(last.ok()) << last.status();
  EXPECT_EQ(router.backend_count(), 0u);
}

TEST(NetRouterTest, RemoveBackendDrainsItsTenants) {
  BackendProcess a;
  BackendProcess b;
  Router::Options options;
  options.backends = {a.port(), b.port()};
  Router router(options);
  ASSERT_TRUE(router.Start().ok());

  const int kTenants = 6;
  std::vector<double> objectives(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    ASSERT_TRUE(Call(router,
                     serve::CreateTenantRequest{tenant, Synthetic(200 + i),
                                                std::nullopt})
                    .ok());
    const serve::ServeResponse solved = Call(
        router, serve::SolveRequest{tenant, UtilityObjective::kOutputSize,
                                    Query(2.0, 0.5)});
    ASSERT_TRUE(solved.ok()) << solved.status;
    objectives[i] = solved.solution()->objective_value;
  }

  Result<std::vector<Migration>> migrated = router.RemoveBackend(a.port());
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  EXPECT_EQ(router.backend_count(), 1u);
  // Everything now lives on b, and every tenant still answers — with the
  // same objective it had before the drain.
  EXPECT_EQ(b.service.Tenants().size(), static_cast<size_t>(kTenants));
  for (int i = 0; i < kTenants; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    const serve::ServeResponse solved = Call(
        router, serve::SolveRequest{tenant, UtilityObjective::kOutputSize,
                                    Query(2.0, 0.5)});
    ASSERT_TRUE(solved.ok()) << solved.status;
    EXPECT_NEAR(solved.solution()->objective_value, objectives[i], 1e-6)
        << tenant;
  }
  // Removing the last backend while it hosts tenants must refuse.
  EXPECT_FALSE(router.RemoveBackend(b.port()).ok());
  EXPECT_EQ(router.backend_count(), 1u);
}

}  // namespace
}  // namespace privsan
