// Serving sanitized releases to many consumers: a walkthrough of the
// asynchronous serve::SanitizerService pipeline (serve/api.h).
//
// One service hosts several tenants — think one per downstream consumer,
// each at its own privacy posture, or one per publisher shard. Every
// operation is a typed ServeRequest handed to Submit(), which returns a
// std::future<ServeResponse> immediately: requests for one tenant execute
// in submission order, distinct tenants in parallel, so a client fans out
// work simply by submitting before awaiting. The walkthrough exercises the
// full serve path: a pipelined create+solve burst, the budget-keyed result
// cache, batched appends landed by the background maintenance thread,
// hot-query refresh, eviction under a global memory budget, and
// snapshot/restore.
#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/api.h"
#include "serve/service.h"
#include "synth/generator.h"

using namespace privsan;

namespace {

SearchLog Workload(uint64_t seed) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = seed;
  config.num_users = 120;
  config.num_events = 6000;
  config.num_queries = 500;
  return GenerateSearchLog(config).value();
}

UmpQuery Query(double e_eps, double delta) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
  return query;
}

}  // namespace

int main() {
  // Maintenance on: queued appends flush in the background (depth/age
  // triggered) and the most recent query is re-solved after each flush.
  serve::ServiceOptions options;
  options.maintenance_interval_ms = 5;
  options.flush_max_age_ms = 20;
  serve::SanitizerService service(options);

  // 1. Three tenants at different privacy postures. The whole burst —
  //    three creates and three solves — is submitted before any future is
  //    awaited; per-tenant FIFO guarantees each solve sees its create, and
  //    the three tenants run in parallel on the service's workers.
  const std::vector<std::string> tenants = {"strict", "balanced", "loose"};
  const std::vector<double> e_epsilons = {1.1, 1.7, 2.3};
  std::vector<std::future<serve::ServeResponse>> creates, solves;
  for (size_t t = 0; t < tenants.size(); ++t) {
    creates.push_back(service.Submit(serve::CreateTenantRequest{
        tenants[t], Workload(100 + t), std::nullopt}));
    solves.push_back(service.Submit(serve::SolveRequest{
        tenants[t], UtilityObjective::kOutputSize,
        Query(e_epsilons[t], 0.5)}));
  }
  std::vector<uint64_t> lambdas(tenants.size(), 0);
  for (size_t t = 0; t < tenants.size(); ++t) {
    const serve::ServeResponse created = creates[t].get();
    if (!created.ok()) {
      std::cerr << "tenant creation failed: " << created.status << std::endl;
      return 1;
    }
    const serve::ServeResponse solved = solves[t].get();
    if (!solved.ok() || solved.solution() == nullptr) {
      std::cerr << "pipelined solve failed: " << solved.status << std::endl;
      return 1;
    }
    lambdas[t] = solved.solution()->output_size;
    std::cout << "tenant '" << tenants[t] << "' (e^eps = " << e_epsilons[t]
              << "): lambda = " << lambdas[t] << "\n";
  }

  // 2. Repeated queries hit the per-tenant result cache.
  (void)service
      .Submit(serve::SolveRequest{"balanced", UtilityObjective::kOutputSize,
                                  Query(1.7, 0.5)})
      .get();
  serve::TenantStats stats = service.Stats("balanced").value();
  std::cout << "\n'balanced' after a repeated query: " << stats.cache_hits
            << " cache hit(s), " << stats.solves << " actual solve(s)\n";

  // 3. New activity arrives as many small appends. Each Append future
  //    resolves on acceptance; the maintenance thread coalesces the queue
  //    into ONE flush (merge + DP-row rebuild + basis remap) off
  //    the query path and then re-solves the hot query, so the next client
  //    solve finds a current cache entry.
  const SearchLog growth = Workload(999);
  std::vector<std::future<serve::ServeResponse>> appends;
  for (UserId u = 0; u + 10 <= growth.num_users(); u += 10) {
    appends.push_back(service.Submit(
        serve::AppendRequest{"balanced", UserSlice(growth, u, u + 10)}));
  }
  for (auto& append : appends) {
    if (!append.get().ok()) {
      std::cerr << "append failed" << std::endl;
      return 1;
    }
  }
  while (service.Stats("balanced").value().appends_coalesced <
         appends.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto grown = service.Solve("balanced", UtilityObjective::kOutputSize,
                             Query(1.7, 0.5));
  if (!grown.ok()) {
    std::cerr << "post-append solve failed: " << grown.status() << std::endl;
    return 1;
  }
  stats = service.Stats("balanced").value();
  std::cout << "\nappended " << stats.appends_coalesced << " batches in "
            << stats.flushes << " flush(es), " << stats.maintenance_flushes
            << " by the maintenance thread; hot-query refreshes: "
            << stats.refresh_solves << "; new lambda = " << grown->output_size
            << "\n";

  // 4. Snapshot the tenant and restore it in a "restarted" service under a
  //    tight global memory budget: the restored solve warm-starts from the
  //    persisted basis, and once the tenant goes idle the maintenance
  //    thread evicts it to a spill snapshot — the next request reloads it
  //    transparently with the same optimum.
  const std::string path = "multi_tenant_service_snapshot.bin";
  const Status saved = service.SaveSnapshot("balanced", path);
  if (!saved.ok()) {
    std::cerr << "snapshot failed: " << saved << std::endl;
    return 1;
  }
  serve::ServiceOptions restarted_options;
  restarted_options.maintenance_interval_ms = 2;
  restarted_options.memory_budget_bytes = 1;  // evict any idle tenant
  serve::SanitizerService restarted(restarted_options);
  const Status restored = restarted.RestoreTenant("balanced", path);
  std::remove(path.c_str());
  if (!restored.ok()) {
    std::cerr << "restore failed: " << restored << std::endl;
    return 1;
  }
  auto after = restarted.Solve("balanced", UtilityObjective::kOutputSize,
                               Query(1.7, 0.5));
  if (!after.ok()) {
    std::cerr << "post-restore solve failed: " << after.status() << std::endl;
    return 1;
  }
  std::cout << "\nrestored from snapshot: lambda = " << after->output_size
            << (after->stats.warm_started ? " (warm-started, "
                                          : " (cold, ")
            << after->stats.root_iterations << " root iterations)\n";

  while (restarted.Stats("balanced").value().evictions < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto reloaded = restarted.Solve("balanced", UtilityObjective::kOutputSize,
                                  Query(1.7, 0.5));
  if (!reloaded.ok()) {
    std::cerr << "post-eviction solve failed: " << reloaded.status()
              << std::endl;
    return 1;
  }
  const serve::TenantStats final_stats =
      restarted.Stats("balanced").value();
  std::cout << "evicted under the memory budget and reloaded on access: "
            << final_stats.evictions << " eviction(s), "
            << final_stats.reloads << " reload(s), lambda = "
            << reloaded->output_size << "\n";

  const bool ok = after->output_size == grown->output_size &&
                  after->stats.warm_started &&
                  reloaded->output_size == grown->output_size;
  std::cout << "\nround trip "
            << (ok ? "consistent: restored and reloaded solves match the "
                     "pre-snapshot optimum warm"
                   : "INCONSISTENT — this is a bug")
            << "\n";
  return ok ? 0 : 1;
}
