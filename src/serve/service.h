// SanitizerService: the long-running, concurrency-safe face of privsan.
//
// The paper's sanitizer is a one-shot batch algorithm; PR 2's
// SanitizerSession made it stateful and incremental but single-threaded.
// This facade lifts sessions into an asynchronous serving layer built
// around the typed request pipeline of serve/api.h:
//
//   * Submit(ServeRequest) -> std::future<ServeResponse>. Requests land on
//     per-tenant FIFO work queues drained by the service's worker pool:
//     one tenant's requests execute in submission order, distinct tenants
//     execute fully in parallel. Append's future resolves once the batch
//     is accepted into the pending queue; Solve futures resolve when the
//     result is ready. CreateTenant/RestoreTenant register the name
//     synchronously inside Submit and run construction as the tenant's
//     first job, so pipelined CREATE -> APPEND -> SOLVE keeps FIFO
//     semantics.
//   * Batched appends. Appends only enqueue; the queue is coalesced into a
//     single merge + re-preprocess + row rebuild + basis remap per flush
//     (explicit Flush, automatic before a solve, or — with maintenance
//     enabled — in the background on queue depth/age, taking the
//     coalescing work off the query path entirely). A background flush
//     that landed appends also re-solves the tenant's most recent solve
//     query (hot-query refresh), so the post-append simplex run happens
//     off the query path too.
//   * Background maintenance + global memory budget. A service-owned
//     maintenance thread (ServiceOptions::maintenance_interval_ms > 0)
//     flushes aging append queues and enforces
//     ServiceOptions::memory_budget_bytes across all tenants: when the
//     summed resident size exceeds the budget, idle tenants are evicted
//     coldest-first (LRU) to spill snapshots on disk and transparently
//     reloaded — resuming warm from the stored bases — on their next
//     request.
//   * Result cache. Solves are cached per tenant under a canonical
//     (objective, ε, δ, |O|, solver) key and invalidated by the next flush
//     that changes the log.
//   * Snapshot/restore. SaveSnapshot persists a tenant's preprocessed log,
//     DP rows and last optimal bases; RestoreTenant resumes warm after a
//     restart.
//
// The blocking per-verb methods are thin Submit(...).get() wrappers kept
// for source compatibility. Every public method is safe to call from any
// thread at any time.
#ifndef PRIVSAN_SERVE_SERVICE_H_
#define PRIVSAN_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "core/ump.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "serve/api.h"
#include "serve/session_manager.h"
#include "serve/thread_pool.h"
#include "util/result.h"

namespace privsan {
namespace serve {

struct ServiceOptions {
  // Worker threads for the request queues and sharded preprocessing /
  // DP-row builds. <= 0 picks std::thread::hardware_concurrency().
  int num_threads = 0;
  // Cached solutions per tenant; FIFO eviction; 0 disables caching.
  size_t result_cache_capacity = 128;
  // Defaults for tenants created without explicit options.
  SessionOptions session;

  // --- Background maintenance ---------------------------------------------
  // Tick period of the maintenance thread; 0 disables the thread (flushes
  // then happen only explicitly or before a solve, and the memory budget
  // is not enforced — the pre-PR-5 behavior).
  int maintenance_interval_ms = 0;
  // Flush a tenant's pending appends in the background once the queue
  // holds at least this many batches ...
  size_t flush_queue_depth = 8;
  // ... or once the oldest queued batch is older than this.
  int flush_max_age_ms = 50;
  // Global cap on the summed resident size of all tenants (sessions +
  // result caches, as reported by TenantStats::resident_bytes); 0 = no
  // cap. Enforced by the maintenance thread via LRU eviction of idle
  // tenants to spill snapshots.
  uint64_t memory_budget_bytes = 0;
  // Directory for eviction spill snapshots (must exist and be writable).
  std::string spill_directory = ".";

  // --- Admission control --------------------------------------------------
  // Per-tenant queue-depth cap: a Submit that would queue job number
  // max_queue_depth+1 on a tenant resolves immediately with
  // kResourceExhausted instead of queueing unboundedly (0 = unlimited).
  // Maintenance jobs and DropTenant are exempt — background flushes keep
  // the backlog shrinking, and an operator can always drop a flooded
  // tenant. Rejections count in TenantStats::admission_rejected.
  size_t max_queue_depth = 0;

  // --- Observability ------------------------------------------------------
  // A request whose total latency (queue wait + execution) reaches this
  // threshold lands in the slow-request ring buffer, dumped by the
  // SlowLog verb. <= 0 records every request (useful in tests/smokes).
  double slow_request_threshold_ms = 100.0;
  // Ring capacity; 0 disables the slow log.
  size_t slow_log_capacity = 128;
};

class SanitizerService {
 public:
  explicit SanitizerService(ServiceOptions options = {});
  ~SanitizerService();

  SanitizerService(const SanitizerService&) = delete;
  SanitizerService& operator=(const SanitizerService&) = delete;

  // --- The asynchronous pipeline ------------------------------------------
  // Enqueues `request` on its tenant's FIFO queue and returns immediately.
  // The future resolves with the verb's payload (see serve/api.h); a
  // request naming an unknown tenant resolves NotFound without queueing.
  std::future<ServeResponse> Submit(ServeRequest request);

  // Callback form for continuation-style callers (the network front-end):
  // `done` runs exactly once with the response — on a worker thread when
  // the job executes, or inline when the request fails before queueing
  // (unknown tenant, admission rejection). `done` must not block for
  // long or wait on the service; it may Submit more in this callback form.
  void Submit(ServeRequest request, std::function<void(ServeResponse)> done);

  // --- Blocking wrappers (Submit + get) -----------------------------------
  Status CreateTenant(const std::string& tenant, const SearchLog& initial);
  Status CreateTenant(const std::string& tenant, const SearchLog& initial,
                      SessionOptions options);
  Status DropTenant(const std::string& tenant);
  std::vector<std::string> Tenants() const;

  Status Append(const std::string& tenant, const SearchLog& logs);
  Status Flush(const std::string& tenant);

  Result<UmpSolution> Solve(const std::string& tenant,
                            UtilityObjective objective, const UmpQuery& query);
  Result<SweepResult> Sweep(const std::string& tenant,
                            UtilityObjective objective,
                            const std::vector<UmpQuery>& grid,
                            const SweepOptions& sweep = {});
  Result<SanitizeReport> Sanitize(const std::string& tenant,
                                  const PrivacyParams& privacy);

  Result<TenantStats> Stats(const std::string& tenant);

  // Streaming lifecycle (stream/): remove named users, expire the
  // retention window at an explicit cutoff, read the budget accountant.
  Status RemoveUsers(const std::string& tenant,
                     std::vector<std::string> users);
  Status ExpireWindow(const std::string& tenant, uint64_t cutoff);
  Result<BudgetStatus> Budget(const std::string& tenant);

  Status SaveSnapshot(const std::string& tenant, const std::string& path);
  Status RestoreTenant(const std::string& tenant, const std::string& path);
  Status RestoreTenant(const std::string& tenant, const std::string& path,
                       SessionOptions options);

  // --- Observability ------------------------------------------------------
  // Full Prometheus text scrape (what a MetricsRequest answers): the
  // static per-verb/per-stage families plus scrape-time per-tenant
  // collectors (queue depths, TenantStats counters).
  std::string RenderMetrics() const;
  // Oldest-first slow-request records (what a SlowLogRequest answers).
  std::vector<obs::SlowRequestRecord> SlowLog(size_t limit = 0) const {
    return slow_log_.Snapshot(limit);
  }
  obs::MetricRegistry* registry() { return &registry_; }

  ThreadPool* pool() { return pool_.get(); }

 private:
  // The shared Submit body: exactly one of the return value (null `done`)
  // or the callback (non-null) delivers the response.
  std::future<ServeResponse> SubmitInternal(
      ServeRequest request, std::function<void(ServeResponse)> done);
  // Enqueues a job and wakes a drain worker if none is active. Applies
  // max_queue_depth admission.
  std::future<ServeResponse> Enqueue(const std::shared_ptr<Tenant>& tenant,
                                     ServeRequest request, bool maintenance,
                                     std::function<void(ServeResponse)> done);
  // Pops and executes jobs until the tenant's queue is empty.
  void DrainQueue(std::shared_ptr<Tenant> tenant);
  // Executes one request under tenant->mu. `maintenance` marks jobs the
  // maintenance thread enqueued (background flushes). `trace` accumulates
  // the request's stage timings (never null on the drain paths).
  ServeResponse Execute(Tenant& tenant, ServeRequest& request,
                        bool maintenance, obs::RequestTrace* trace);
  // The shared solve path (cache lookup, session solve, cache fill); used
  // by SolveRequest execution and hot-query refresh. `charge` bills the
  // tenant's privacy accountant on a cache miss (client solves); the
  // background hot-query refresh passes false — it re-derives an answer
  // the tenant already paid for.
  ServeResponse ExecuteSolve(Tenant& tenant, UtilityObjective objective,
                             const UmpQuery& query, obs::RequestTrace* trace,
                             bool charge = true);
  ServeResponse ExecuteCreate(Tenant& tenant, CreateTenantRequest& request);
  ServeResponse ExecuteRestore(Tenant& tenant, RestoreTenantRequest& request);
  // Shared removal path (RemoveUsers, ExpireWindow, maintenance window
  // expiry): flush, session->RemoveUsers, stats/window/cache upkeep.
  Status ExecuteRemove(Tenant& tenant, const std::vector<std::string>& users,
                       obs::RequestTrace* trace);
  // Charges (ε, δ) on the tenant's accountant; mirrors the accountant
  // position into TenantStats. Returns kBudgetExhausted on refusal.
  Status ChargeBudget(Tenant& tenant, double epsilon, double delta,
                      const char* verb);
  // Reloads an evicted session from its spill snapshot; checks lifecycle.
  Status EnsureLive(Tenant& tenant);
  // Drains the pending-append queue of a locked tenant; flush wall time
  // adds to trace->flush_ms when a trace is supplied.
  Status FlushLocked(Tenant& tenant, obs::RequestTrace* trace = nullptr);
  void InvalidateCache(Tenant& tenant);
  void RefreshResidentBytes(Tenant& tenant);
  SessionOptions WithPool(SessionOptions options);
  std::string SpillPath(const std::string& tenant) const;

  void MaintenanceLoop();
  void MaintenanceTick();
  // Spills one idle tenant to disk; returns bytes freed (0 = not evicted).
  // Reserves the tenant's queue (draining flag) for the duration, so
  // Submit stays wait-free while the snapshot writes.
  uint64_t TryEvict(const std::shared_ptr<Tenant>& tenant);

  // Folds one finished request into the registry (per-verb counters +
  // latency histogram, per-stage histograms) and the slow log.
  // `verb_index` is the ServeRequest variant index; `total_ms` includes
  // the queue wait already stored in `trace`.
  void RecordRequest(size_t verb_index, const std::string& tenant,
                     const Status& status, double total_ms,
                     const obs::RequestTrace& trace);
  // Registers the static metric families and the per-tenant scrape-time
  // collector; runs once from the constructor.
  void RegisterMetrics();

  ServiceOptions options_;
  SessionManager manager_;

  // --- Observability state ------------------------------------------------
  obs::MetricRegistry registry_;
  obs::SlowRequestLog slow_log_;
  // Indexed by ServeRequest variant alternative; registered once so the
  // hot path touches only atomics.
  std::vector<obs::Counter*> requests_total_;
  std::vector<obs::Counter*> request_errors_total_;
  std::vector<obs::LatencyHistogram*> request_duration_;
  obs::LatencyHistogram* stage_queue_wait_ = nullptr;
  obs::LatencyHistogram* stage_flush_ = nullptr;
  obs::LatencyHistogram* stage_solve_ = nullptr;
  obs::LatencyHistogram* stage_cache_lookup_ = nullptr;
  obs::Counter* simplex_iterations_total_ = nullptr;
  obs::Counter* repair_pivots_total_ = nullptr;
  obs::Counter* slow_requests_total_ = nullptr;

  std::mutex maintenance_mu_;
  std::condition_variable maintenance_cv_;
  bool stopping_ = false;
  std::thread maintenance_;

  // Owned indirectly so the destructor can drain it explicitly (workers
  // finish every queued job, resolving all futures) and then clean up
  // eviction spill files — which hold raw input logs and must not outlive
  // the service — while the registry is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace serve
}  // namespace privsan

#endif  // PRIVSAN_SERVE_SERVICE_H_
