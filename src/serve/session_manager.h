// Multi-tenant session registry.
//
// A Tenant bundles one SanitizerSession with the serve-path state the
// facade (serve/service.h) keeps around it: the typed-request work queue,
// the pending-append queue, the budget-keyed result cache, counters, and
// the eviction lifecycle. Three mutexes split the state by latency class:
//
//   * `qmu` guards the cheap scheduling state — the FIFO work queue, the
//     draining flag, and the LRU timestamp. Submit only ever takes qmu,
//     so enqueueing never waits behind a running solve.
//   * `mu` guards the heavy state — the session itself and the pending
//     appends. Exactly one job holds mu at a time (the drain loop pops
//     under qmu, executes under mu), so the lock *is* the concurrency
//     story for one tenant, and distinct tenants proceed fully in
//     parallel.
//   * `cmu` is the leaf lock for the result cache and the counters. Jobs
//     take it briefly inside mu for each cache/counter touch; the metrics
//     collector and Submit's admission-rejected counter take it alone,
//     which is how a scrape answers while a Sweep holds mu for seconds.
//
// qmu and mu are never held together, and cmu is only ever acquired last:
// a drain worker pops under qmu, then executes under mu, touching cmu per
// counter update; the eviction path claims the draining flag under qmu
// (exactly like a worker would), releases it, and only then takes mu for
// the spill write — so Submit never waits behind a snapshot.
//
// SessionManager itself is a thread-safe name -> Tenant map. It hands out
// shared_ptrs so a tenant being dropped mid-operation stays alive until
// the last operation on it returns.
#ifndef PRIVSAN_SERVE_SESSION_MANAGER_H_
#define PRIVSAN_SERVE_SESSION_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "core/ump.h"
#include "serve/api.h"
#include "util/result.h"

namespace privsan {
namespace serve {

// One queued request plus how to deliver its response: the promise its
// Submit handed out, or — for the callback overload the network front-end
// uses — a completion function invoked from the worker thread. The promise
// is shared so jobs can travel through std::function (which requires
// copyable callables) on the worker pool.
struct ServeJob {
  ServeRequest request;
  std::shared_ptr<std::promise<ServeResponse>> promise;
  std::function<void(ServeResponse)> done;
  // Enqueued by the maintenance thread (background flush); clears the
  // tenant's flush_scheduled flag when it completes.
  bool maintenance = false;
  // When Enqueue accepted the job; the drain loop turns this into the
  // queue-wait stage of the request's trace (obs/slow_log.h).
  std::chrono::steady_clock::time_point enqueued_at{};
};

struct Tenant {
  explicit Tenant(std::string name_in) : name(std::move(name_in)) {}

  const std::string name;

  // --- Scheduling state, guarded by `qmu` --------------------------------
  std::mutex qmu;
  std::deque<ServeJob> jobs;  // per-tenant FIFO work queue
  bool draining = false;      // a worker is draining `jobs`
  bool flush_scheduled = false;  // a maintenance flush is queued/in flight
  std::chrono::steady_clock::time_point last_access{};  // LRU clock

  // --- Session state, guarded by `mu` ------------------------------------
  std::mutex mu;
  // nullptr while the create/restore job has not run yet, after a failed
  // construction, while evicted, and after DropTenant.
  std::unique_ptr<SanitizerSession> session;
  // Options to rebuild the session with on reload after eviction.
  SessionOptions session_options;
  // Construction outcome: jobs queued behind a failed create/restore
  // answer with this status instead of executing.
  Status init_error = Status::OK();
  bool initialized = false;  // the create/restore job has run (ok or not)
  bool dropped = false;      // DropTenant executed; later jobs -> NotFound
  // Eviction lifecycle: when evicted, `spill_path` names the snapshot the
  // next request transparently reloads from.
  bool evicted = false;
  std::string spill_path;
  std::vector<SearchLog> pending;  // queued appends, coalesced on flush
  uint64_t pending_bytes = 0;      // estimated footprint of `pending`
  // When the oldest entry of `pending` was enqueued (age-triggered flush).
  std::chrono::steady_clock::time_point oldest_pending{};
  // The most recent Solve's inputs — what a background flush re-solves
  // (hot-query refresh) so the repair work lands off the query path.
  std::optional<std::pair<UtilityObjective, UmpQuery>> last_solve_query;
  // Streaming lifecycle state (stream/): the (ε, δ) accountant charged on
  // every non-cached Solve/Sweep/Sanitize, and the retention window fed by
  // flushes and drained by the maintenance thread. Mutated only by heavy
  // jobs under `mu`; serialized into tenant snapshots (spill + SNAPSHOT)
  // so both survive eviction, restore and router migration.
  stream::PrivacyAccountant accountant;
  stream::WindowState window;

  // --- Cache and counters, guarded by `cmu` ------------------------------
  // The leaf lock of the tenant (acquired alone, or briefly inside `mu`,
  // never the other way around), so a metrics scrape reads the counters
  // without waiting behind a running solve.
  std::mutex cmu;
  // Budget-keyed result cache: canonical query key -> solution. Insertion
  // order drives FIFO eviction; the whole cache is invalidated on flush.
  std::map<std::string, UmpSolution> cache;
  std::vector<std::string> cache_order;
  uint64_t cache_bytes = 0;  // estimated footprint of `cache`
  TenantStats stats;
};

class SessionManager {
 public:
  SessionManager() = default;
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Registers an empty tenant shell (the caller queues the construction
  // job); fails with FailedPrecondition if the name exists.
  Result<std::shared_ptr<Tenant>> Create(const std::string& name);

  // NotFound if absent.
  Result<std::shared_ptr<Tenant>> Get(const std::string& name) const;

  bool Has(const std::string& name) const;

  Status Remove(const std::string& name);

  std::vector<std::string> Names() const;  // sorted
  // The live tenant set in one pass (the maintenance thread's scan).
  std::vector<std::shared_ptr<Tenant>> All() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
};

}  // namespace serve
}  // namespace privsan

#endif  // PRIVSAN_SERVE_SESSION_MANAGER_H_
