#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>

#include "serve/snapshot.h"
#include "util/timer.h"

namespace privsan {
namespace serve {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

uint64_t UnixMicrosNow() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t UnixSecondsNow() { return UnixMicrosNow() / 1000000; }

// The retention cutoff the tenant's window policy implies at `now`:
// sliding windows keep the trailing `span` seconds, tumbling windows
// keep the current pane. 0 (nothing expires) when the policy is off.
uint64_t PolicyCutoff(const stream::WindowPolicy& policy, uint64_t now) {
  if (!policy.active()) return 0;
  if (policy.kind == stream::WindowKind::kSliding) {
    return now > policy.span ? now - policy.span : 0;
  }
  return (now / policy.span) * policy.span;  // tumbling pane start
}

// Canonical cache key: the exact solver inputs that pick a solution on a
// fixed log state. Doubles are keyed by their bit patterns — two budgets
// are "the same query" only when they are bitwise equal.
std::string CacheKey(UtilityObjective objective, const UmpQuery& query) {
  uint64_t eps_bits = 0, delta_bits = 0;
  static_assert(sizeof(double) == sizeof(uint64_t));
  std::memcpy(&eps_bits, &query.privacy.epsilon, sizeof(double));
  std::memcpy(&delta_bits, &query.privacy.delta, sizeof(double));
  std::string key = std::to_string(static_cast<int>(objective));
  key += '|';
  key += std::to_string(eps_bits);
  key += '|';
  key += std::to_string(delta_bits);
  key += '|';
  key += std::to_string(query.output_size);
  key += '|';
  key += query.solver.has_value()
             ? std::to_string(static_cast<int>(*query.solver))
             : std::string("-");
  return key;
}

uint64_t EstimateCacheEntryBytes(const std::string& key,
                                 const UmpSolution& solution) {
  return key.size() + solution.x.capacity() * sizeof(uint64_t) +
         solution.x_relaxed.capacity() * sizeof(double) +
         solution.basis.basic.capacity() * sizeof(int) +
         solution.basis.state.capacity() +
         solution.frequent_pairs.capacity() * sizeof(PairId) +
         sizeof(UmpSolution) + 96;  // map-node + bookkeeping overhead
}

std::future<ServeResponse> ImmediateResponse(Status status) {
  std::promise<ServeResponse> promise;
  promise.set_value(ServeResponse{std::move(status), {}});
  return promise.get_future();
}

// Delivers a response through whichever channel the job's Submit chose:
// the callback (network front-end) or the promise (future-based callers).
void Finish(ServeJob& job, ServeResponse response) {
  if (job.done) {
    job.done(std::move(response));
  } else {
    job.promise->set_value(std::move(response));
  }
}

// The lifecycle gate every queued job passes before touching the session.
// Does NOT reload an evicted session — that is EnsureLive's job, so pure
// bookkeeping requests (Append, Stats, Drop) leave cold tenants cold.
Status CheckLifecycle(const Tenant& tenant) {
  if (tenant.dropped) {
    return Status::NotFound("no such tenant: " + tenant.name);
  }
  if (!tenant.initialized) {
    // Jobs are FIFO behind the create/restore job; reaching here means the
    // queue discipline broke.
    return Status::Internal("tenant not initialized: " + tenant.name);
  }
  if (!tenant.init_error.ok()) return tenant.init_error;
  return Status::OK();
}

// Folds one solve's effort into the tenant's counters and the request's
// trace. Every solve the service runs — a cache-missing Solve, each Sweep
// cell, a Sanitize — goes through here. Caller holds cmu.
void RecordSolve(TenantStats& stats, const UmpStats& solve,
                 obs::RequestTrace* trace) {
  ++stats.solves;
  stats += solve;
  if (trace != nullptr) {
    trace->iterations += solve.simplex_iterations;
    trace->repair_pivots += solve.dual_iterations;
  }
}

}  // namespace

SanitizerService::SanitizerService(ServiceOptions options)
    : options_(std::move(options)),
      slow_log_(options_.slow_request_threshold_ms,
                options_.slow_log_capacity),
      pool_(std::make_unique<ThreadPool>(options_.num_threads)) {
  RegisterMetrics();
  if (options_.maintenance_interval_ms > 0) {
    maintenance_ = std::thread([this] { MaintenanceLoop(); });
  }
}

SanitizerService::~SanitizerService() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    stopping_ = true;
  }
  maintenance_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  // Drain the workers: they finish every queued job — resolving all
  // outstanding futures — before joining. Only then is it safe to sweep
  // the eviction spill files (a queued job may still reload from one):
  // they hold the tenants' raw input logs and must not outlive the
  // service that is supposed to be protecting them.
  pool_.reset();
  for (const std::shared_ptr<Tenant>& tenant : manager_.All()) {
    std::lock_guard<std::mutex> lock(tenant->mu);
    if (tenant->evicted) std::remove(tenant->spill_path.c_str());
  }
}

std::string SanitizerService::SpillPath(const std::string& tenant) const {
  std::string safe;
  safe.reserve(tenant.size());
  for (char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                    c == '_';
    safe += ok ? c : '_';
  }
  // The hash keeps sanitized collisions ("a/b" vs "a_b") apart.
  const uint64_t h = std::hash<std::string>{}(tenant);
  return options_.spill_directory + "/privsan_spill_" + safe + "_" +
         std::to_string(h) + ".snap";
}

// --- Submission ------------------------------------------------------------

std::future<ServeResponse> SanitizerService::Submit(ServeRequest request) {
  return SubmitInternal(std::move(request), nullptr);
}

void SanitizerService::Submit(ServeRequest request,
                              std::function<void(ServeResponse)> done) {
  SubmitInternal(std::move(request), std::move(done));
}

std::future<ServeResponse> SanitizerService::SubmitInternal(
    ServeRequest request, std::function<void(ServeResponse)> done) {
  // The tenant-less observability verbs answer inline: a scrape or a
  // slow-log dump must never wait behind a sweep on some tenant's queue.
  if (std::holds_alternative<MetricsRequest>(request) ||
      std::holds_alternative<SlowLogRequest>(request)) {
    ServeResponse response{Status::OK(), {}};
    if (std::holds_alternative<MetricsRequest>(request)) {
      response.payload = MetricsText{RenderMetrics()};
    } else {
      const auto& dump = std::get<SlowLogRequest>(request);
      SlowLogDump payload;
      payload.records = slow_log_.Snapshot(dump.limit);
      payload.dropped = slow_log_.dropped();
      payload.threshold_ms = slow_log_.threshold_ms();
      response.payload = std::move(payload);
    }
    if (done) {
      done(std::move(response));
      return {};
    }
    std::promise<ServeResponse> promise;
    promise.set_value(std::move(response));
    return promise.get_future();
  }
  // Create/Restore register the name synchronously so later requests in a
  // pipelined burst find the tenant and queue FIFO behind the construction
  // job.
  const bool creates =
      std::holds_alternative<CreateTenantRequest>(request) ||
      std::holds_alternative<RestoreTenantRequest>(request);
  Result<std::shared_ptr<Tenant>> tenant =
      creates ? manager_.Create(RequestTenant(request))
              : manager_.Get(RequestTenant(request));
  if (!tenant.ok()) {
    if (done) {
      done(ServeResponse{tenant.status(), {}});
      return {};
    }
    return ImmediateResponse(tenant.status());
  }
  return Enqueue(*tenant, std::move(request), /*maintenance=*/false,
                 std::move(done));
}

std::future<ServeResponse> SanitizerService::Enqueue(
    const std::shared_ptr<Tenant>& tenant, ServeRequest request,
    bool maintenance, std::function<void(ServeResponse)> done) {
  ServeJob job;
  job.request = std::move(request);
  job.done = std::move(done);
  job.maintenance = maintenance;
  job.enqueued_at = std::chrono::steady_clock::now();
  std::future<ServeResponse> future;
  if (!job.done) {
    job.promise = std::make_shared<std::promise<ServeResponse>>();
    future = job.promise->get_future();
  }
  bool start = false;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(tenant->qmu);
    if (!maintenance) tenant->last_access = std::chrono::steady_clock::now();
    if (options_.max_queue_depth > 0 && !maintenance &&
        !std::holds_alternative<DropTenantRequest>(job.request) &&
        tenant->jobs.size() >= options_.max_queue_depth) {
      // Admission control. Maintenance jobs are exempt (background flushes
      // shrink the backlog) and so is DropTenant (an operator must always
      // be able to drop a flooded tenant).
      rejected = true;
    } else {
      tenant->jobs.push_back(std::move(job));
      if (!tenant->draining) {
        tenant->draining = true;
        start = true;
      }
    }
  }
  if (rejected) {
    {
      std::lock_guard<std::mutex> lock(tenant->cmu);
      ++tenant->stats.admission_rejected;
    }
    Finish(job, ServeResponse{Status::ResourceExhausted(
                                  "tenant queue full: " + tenant->name),
                              {}});
    return future;
  }
  if (start) {
    pool_->Submit([this, tenant] { DrainQueue(tenant); });
  }
  return future;
}

void SanitizerService::DrainQueue(std::shared_ptr<Tenant> tenant) {
  while (true) {
    ServeJob job;
    {
      std::lock_guard<std::mutex> lock(tenant->qmu);
      if (tenant->jobs.empty()) {
        tenant->draining = false;
        return;
      }
      job = std::move(tenant->jobs.front());
      tenant->jobs.pop_front();
    }
    obs::RequestTrace trace;
    trace.queue_ms = ElapsedMs(job.enqueued_at);
    const auto exec_start = std::chrono::steady_clock::now();
    ServeResponse response;
    {
      std::lock_guard<std::mutex> lock(tenant->mu);
      response = Execute(*tenant, job.request, job.maintenance, &trace);
    }
    if (job.maintenance) {
      std::lock_guard<std::mutex> lock(tenant->qmu);
      tenant->flush_scheduled = false;
    }
    const double total_ms = trace.queue_ms + ElapsedMs(exec_start);
    RecordRequest(job.request.index(), tenant->name, response.status,
                  total_ms, trace);
    Finish(job, std::move(response));
  }
}

// --- Execution (under tenant.mu) -------------------------------------------

Status SanitizerService::EnsureLive(Tenant& tenant) {
  PRIVSAN_RETURN_IF_ERROR(CheckLifecycle(tenant));
  if (tenant.session != nullptr) return Status::OK();
  if (!tenant.evicted) {
    return Status::Internal("tenant has no live session: " + tenant.name);
  }
  // Transparent reload: the eviction snapshot stores the preprocessed log,
  // DP rows and last optimal bases, so the tenant resumes warm.
  Result<SanitizerSession> restored =
      RestoreSession(tenant.spill_path, tenant.session_options);
  if (!restored.ok()) return restored.status();
  tenant.session = std::make_unique<SanitizerSession>(std::move(*restored));
  std::remove(tenant.spill_path.c_str());
  tenant.spill_path.clear();
  tenant.evicted = false;
  {
    std::lock_guard<std::mutex> lock(tenant.cmu);
    ++tenant.stats.reloads;
  }
  RefreshResidentBytes(tenant);
  return Status::OK();
}

void SanitizerService::InvalidateCache(Tenant& tenant) {
  std::lock_guard<std::mutex> lock(tenant.cmu);
  tenant.cache.clear();
  tenant.cache_order.clear();
  tenant.cache_bytes = 0;
}

void SanitizerService::RefreshResidentBytes(Tenant& tenant) {
  // Pending appends count too: a burst parked in the queue (especially on
  // an evicted tenant, which Append deliberately leaves cold) is real
  // memory the budget must see. Such tenants are not directly evictable,
  // but the depth/age flush lands the queue and makes them evictable on a
  // following tick.
  const uint64_t session_bytes =
      tenant.session != nullptr ? tenant.session->ResidentBytes() : 0;
  std::lock_guard<std::mutex> lock(tenant.cmu);
  tenant.stats.resident_bytes =
      session_bytes + tenant.cache_bytes + tenant.pending_bytes;
}

Status SanitizerService::FlushLocked(Tenant& tenant,
                                     obs::RequestTrace* trace) {
  if (tenant.pending.empty()) return Status::OK();
  const auto flush_start = std::chrono::steady_clock::now();
  struct StageGuard {
    std::chrono::steady_clock::time_point start;
    obs::RequestTrace* trace;
    ~StageGuard() {
      if (trace != nullptr) trace->flush_ms += ElapsedMs(start);
    }
  } guard{flush_start, trace};
  // Coalesce the whole queue into one log: K queued appends become a
  // single merge + re-preprocess + row rebuild + basis remap.
  SearchLogBuilder builder;
  for (const SearchLog& log : tenant.pending) builder.AddAll(log);
  const size_t coalesced = tenant.pending.size();
  tenant.pending.clear();
  tenant.pending_bytes = 0;
  const SearchLog batch = builder.Build();
  // Feed the retention window before the append lands: every user in this
  // flush was active "now", whether new or re-appearing.
  const uint64_t now_secs = UnixSecondsNow();
  for (UserId u = 0; u < batch.num_users(); ++u) {
    tenant.window.Observe(batch.user_name(u), now_secs);
  }
  PRIVSAN_RETURN_IF_ERROR(tenant.session->AppendUsers(batch));
  {
    std::lock_guard<std::mutex> lock(tenant.cmu);
    ++tenant.stats.flushes;
    tenant.stats.appends_coalesced += coalesced;
  }
  // The log changed: every cached solution is stale.
  InvalidateCache(tenant);
  RefreshResidentBytes(tenant);
  return Status::OK();
}

ServeResponse SanitizerService::Execute(Tenant& tenant, ServeRequest& request,
                                        bool maintenance,
                                        obs::RequestTrace* trace) {
  if (auto* create = std::get_if<CreateTenantRequest>(&request)) {
    return ExecuteCreate(tenant, *create);
  }
  if (auto* restore = std::get_if<RestoreTenantRequest>(&request)) {
    return ExecuteRestore(tenant, *restore);
  }

  if (auto* append = std::get_if<AppendRequest>(&request)) {
    if (Status gate = CheckLifecycle(tenant); !gate.ok()) return {gate, {}};
    if (tenant.pending.empty()) {
      tenant.oldest_pending = std::chrono::steady_clock::now();
    }
    tenant.pending_bytes += append->logs.ResidentBytes();
    tenant.pending.push_back(std::move(append->logs));
    {
      std::lock_guard<std::mutex> lock(tenant.cmu);
      ++tenant.stats.appends_enqueued;
    }
    RefreshResidentBytes(tenant);
    return {Status::OK(), {}};
  }

  if (std::get_if<FlushRequest>(&request) != nullptr) {
    // Whether this flush actually landed appends decides the maintenance
    // counter below; the queue can only change under mu, which we hold.
    const bool had_pending = !tenant.pending.empty();
    if (Status live = EnsureLive(tenant); !live.ok()) return {live, {}};
    if (Status flushed = FlushLocked(tenant, trace); !flushed.ok()) {
      return {flushed, {}};
    }
    // A maintenance-initiated job that actually landed appends is what the
    // background-flusher counter measures (DrainQueue owns the flag reset).
    if (maintenance && had_pending) {
      {
        std::lock_guard<std::mutex> lock(tenant.cmu);
        ++tenant.stats.maintenance_flushes;
      }
      // Only maintenance flushes refresh: this work is an optimization
      // precisely because it runs off the query path — an inline pre-solve
      // flush must not pay a solve the client did not ask for.
      //
      // Re-solve the last served query (hot-query refresh): the
      // flush-invalidated cache entry is repopulated, the remapped basis
      // re-optimized and the problem that query needs rebuilt before the
      // next client solve. Best-effort — a failure leaves the lazy solve
      // path intact. The refresh's time and pivots land on this flush's
      // trace.
      if (tenant.last_solve_query.has_value()) {
        const auto [objective, query] = *tenant.last_solve_query;
        if (ExecuteSolve(tenant, objective, query, trace, /*charge=*/false)
                .ok()) {
          std::lock_guard<std::mutex> lock(tenant.cmu);
          ++tenant.stats.refresh_solves;
        }
      }
      RefreshResidentBytes(tenant);
    }
    return {Status::OK(), {}};
  }

  if (auto* solve = std::get_if<SolveRequest>(&request)) {
    if (Status live = EnsureLive(tenant); !live.ok()) return {live, {}};
    if (Status flushed = FlushLocked(tenant, trace); !flushed.ok()) {
      return {flushed, {}};
    }
    ServeResponse response =
        ExecuteSolve(tenant, solve->objective, solve->query, trace);
    // Only successful solves become the hot-query-refresh target — a
    // failing query must not be retried after every background flush.
    if (response.ok()) {
      tenant.last_solve_query = {solve->objective, solve->query};
    }
    return response;
  }

  if (auto* sweep = std::get_if<SweepRequest>(&request)) {
    if (Status live = EnsureLive(tenant); !live.ok()) return {live, {}};
    if (Status flushed = FlushLocked(tenant, trace); !flushed.ok()) {
      return {flushed, {}};
    }
    // Every grid cell is its own release: bill each before solving. A
    // refusal mid-grid keeps the earlier charges (conservative — the
    // accountant never undercounts) and solves nothing.
    for (const UmpQuery& cell : sweep->grid) {
      if (Status billed = ChargeBudget(tenant, cell.privacy.epsilon,
                                       cell.privacy.delta, "Sweep");
          !billed.ok()) {
        return {billed, {}};
      }
    }
    const auto solve_start = std::chrono::steady_clock::now();
    Result<SweepResult> result = tenant.session->SweepBudgets(
        sweep->objective, sweep->grid, sweep->sweep);
    if (trace != nullptr) trace->solve_ms += ElapsedMs(solve_start);
    if (!result.ok()) return {result.status(), {}};
    {
      std::lock_guard<std::mutex> lock(tenant.cmu);
      for (const UmpSolution& cell : result->cells) {
        RecordSolve(tenant.stats, cell.stats, trace);
      }
    }
    RefreshResidentBytes(tenant);
    return {Status::OK(), std::move(*result)};
  }

  if (auto* sanitize = std::get_if<SanitizeRequest>(&request)) {
    if (Status live = EnsureLive(tenant); !live.ok()) return {live, {}};
    if (Status flushed = FlushLocked(tenant, trace); !flushed.ok()) {
      return {flushed, {}};
    }
    // With the §4.2 noise step on, the counts themselves are an ε′ query
    // on the same log: the release spends ε + ε′ under sequential
    // composition, charged as one allocation.
    const std::optional<LaplaceStepOptions>& laplace =
        tenant.session->options().laplace;
    const double epsilon = sanitize->privacy.epsilon +
                           (laplace.has_value() ? laplace->epsilon_prime : 0.0);
    if (Status billed = ChargeBudget(tenant, epsilon,
                                     sanitize->privacy.delta, "Sanitize");
        !billed.ok()) {
      return {billed, {}};
    }
    const auto solve_start = std::chrono::steady_clock::now();
    Result<SanitizeReport> report =
        tenant.session->Sanitize(sanitize->privacy);
    if (trace != nullptr) trace->solve_ms += ElapsedMs(solve_start);
    if (!report.ok()) return {report.status(), {}};
    {
      std::lock_guard<std::mutex> lock(tenant.cmu);
      RecordSolve(tenant.stats, report->stats, trace);
    }
    RefreshResidentBytes(tenant);
    return {Status::OK(), std::move(*report)};
  }

  if (std::get_if<StatsRequest>(&request) != nullptr) {
    // Stats never reloads an evicted tenant — monitoring must not defeat
    // the memory budget.
    if (Status gate = CheckLifecycle(tenant); !gate.ok()) return {gate, {}};
    std::lock_guard<std::mutex> lock(tenant.cmu);
    return {Status::OK(), tenant.stats};
  }

  if (auto* save = std::get_if<SaveSnapshotRequest>(&request)) {
    if (Status live = EnsureLive(tenant); !live.ok()) return {live, {}};
    // Queued appends are part of the tenant's logical state — land them
    // before persisting.
    if (Status flushed = FlushLocked(tenant, trace); !flushed.ok()) {
      return {flushed, {}};
    }
    const TenantStreamState stream_state{tenant.accountant, tenant.window};
    return {serve::SaveSnapshot(*tenant.session, save->path, &stream_state),
            {}};
  }

  if (std::get_if<DropTenantRequest>(&request) != nullptr) {
    if (tenant.dropped) {
      return {Status::NotFound("no such tenant: " + tenant.name), {}};
    }
    if (tenant.evicted) std::remove(tenant.spill_path.c_str());
    tenant.session.reset();
    tenant.evicted = false;
    tenant.dropped = true;
    tenant.pending.clear();
    tenant.pending_bytes = 0;
    InvalidateCache(tenant);
    RefreshResidentBytes(tenant);
    return {manager_.Remove(tenant.name), {}};
  }

  if (auto* remove = std::get_if<RemoveUsersRequest>(&request)) {
    if (Status live = EnsureLive(tenant); !live.ok()) return {live, {}};
    return {ExecuteRemove(tenant, remove->users, trace), {}};
  }

  if (auto* expire = std::get_if<ExpireWindowRequest>(&request)) {
    if (Status live = EnsureLive(tenant); !live.ok()) return {live, {}};
    // Land queued appends first so a user whose last activity is still in
    // the pending queue is observed before the expiry decision.
    if (Status flushed = FlushLocked(tenant, trace); !flushed.ok()) {
      return {flushed, {}};
    }
    const std::vector<std::string> expired =
        tenant.window.ExpiredBefore(expire->cutoff);
    if (expired.empty()) return {Status::OK(), {}};
    return {ExecuteRemove(tenant, expired, trace), {}};
  }

  if (std::get_if<BudgetStatusRequest>(&request) != nullptr) {
    // The accountant lives on the Tenant, not the session: a budget probe
    // answers while evicted and never defeats the memory budget.
    if (Status gate = CheckLifecycle(tenant); !gate.ok()) return {gate, {}};
    const stream::PrivacyAccountant& acct = tenant.accountant;
    BudgetStatus status;
    status.max_epsilon = acct.config().max_epsilon;
    status.max_delta = acct.config().max_delta;
    status.min_remaining_epsilon = acct.config().min_remaining_epsilon;
    status.composition =
        stream::CompositionToString(acct.config().composition);
    status.spent_epsilon = acct.SpentEpsilon();
    status.spent_delta = acct.SpentDelta();
    status.remaining_epsilon = acct.RemainingEpsilon();
    status.enforced = acct.enforced();
    status.allocations = acct.history().size();
    status.refusals = acct.refusals();
    return {Status::OK(), std::move(status)};
  }

  return {Status::Internal("unhandled serve request"), {}};
}

Status SanitizerService::ExecuteRemove(Tenant& tenant,
                                       const std::vector<std::string>& users,
                                       obs::RequestTrace* trace) {
  // Land queued appends first: RemoveUsers must see the union the client
  // sees, and a removed user's queued rows must not resurrect it later.
  PRIVSAN_RETURN_IF_ERROR(FlushLocked(tenant, trace));
  const auto remove_start = std::chrono::steady_clock::now();
  PRIVSAN_RETURN_IF_ERROR(tenant.session->RemoveUsers(users));
  if (trace != nullptr) trace->solve_ms += ElapsedMs(remove_start);
  tenant.window.Forget(users);
  {
    std::lock_guard<std::mutex> lock(tenant.cmu);
    tenant.stats.users_removed +=
        tenant.session->last_remove_stats().removed_users;
  }
  // The log shrank: every cached solution is stale.
  InvalidateCache(tenant);
  RefreshResidentBytes(tenant);
  return Status::OK();
}

Status SanitizerService::ChargeBudget(Tenant& tenant, double epsilon,
                                      double delta, const char* verb) {
  Status charged =
      tenant.accountant.Charge(epsilon, delta, verb, UnixMicrosNow());
  {
    std::lock_guard<std::mutex> lock(tenant.cmu);
    tenant.stats.epsilon_spent_micro = static_cast<uint64_t>(
        tenant.accountant.SpentEpsilon() * 1e6 + 0.5);
    tenant.stats.budget_refusals = tenant.accountant.refusals();
  }
  return charged;
}

ServeResponse SanitizerService::ExecuteSolve(Tenant& tenant,
                                             UtilityObjective objective,
                                             const UmpQuery& query,
                                             obs::RequestTrace* trace,
                                             bool charge) {
  const bool cache_enabled = options_.result_cache_capacity > 0;
  std::string key;
  if (cache_enabled) {
    const auto cache_start = std::chrono::steady_clock::now();
    key = CacheKey(objective, query);
    std::lock_guard<std::mutex> lock(tenant.cmu);
    auto it = tenant.cache.find(key);
    if (trace != nullptr) trace->cache_ms += ElapsedMs(cache_start);
    if (it != tenant.cache.end()) {
      ++tenant.stats.cache_hits;
      // A hit re-serves an answer already paid for — no new charge.
      return {Status::OK(), it->second};
    }
    ++tenant.stats.cache_misses;
  }
  // Bill the accountant before solving (accounting precedes release;
  // a failed solve overcounts conservatively, never undercounts).
  if (charge) {
    if (Status billed = ChargeBudget(tenant, query.privacy.epsilon,
                                     query.privacy.delta, "Solve");
        !billed.ok()) {
      return {billed, {}};
    }
  }
  const auto solve_start = std::chrono::steady_clock::now();
  Result<UmpSolution> solution = tenant.session->Solve(objective, query);
  if (trace != nullptr) trace->solve_ms += ElapsedMs(solve_start);
  if (!solution.ok()) return {solution.status(), {}};
  {
    std::lock_guard<std::mutex> lock(tenant.cmu);
    RecordSolve(tenant.stats, solution->stats, trace);
    if (cache_enabled) {
      if (tenant.cache_order.size() >= options_.result_cache_capacity) {
        const std::string& oldest = tenant.cache_order.front();
        auto it = tenant.cache.find(oldest);
        if (it != tenant.cache.end()) {
          const uint64_t bytes = EstimateCacheEntryBytes(oldest, it->second);
          tenant.cache_bytes -= std::min(tenant.cache_bytes, bytes);
          tenant.cache.erase(it);
        }
        tenant.cache_order.erase(tenant.cache_order.begin());
      }
      tenant.cache_bytes += EstimateCacheEntryBytes(key, *solution);
      tenant.cache.emplace(key, *solution);
      tenant.cache_order.push_back(std::move(key));
    }
  }
  RefreshResidentBytes(tenant);
  return {Status::OK(), std::move(*solution)};
}

ServeResponse SanitizerService::ExecuteCreate(Tenant& tenant,
                                              CreateTenantRequest& request) {
  if (tenant.initialized) {
    return {Status::Internal("tenant already initialized: " + tenant.name),
            {}};
  }
  tenant.initialized = true;
  tenant.session_options = request.options.value_or(options_.session);
  Result<SanitizerSession> session =
      SanitizerSession::Create(request.initial, tenant.session_options);
  if (!session.ok()) {
    // Release the name so a corrected create can reuse it; jobs already
    // queued behind this one answer with the construction error.
    tenant.init_error = session.status();
    (void)manager_.Remove(tenant.name);
    return {session.status(), {}};
  }
  tenant.session = std::make_unique<SanitizerSession>(std::move(*session));
  tenant.accountant = stream::PrivacyAccountant(request.budget);
  tenant.window = stream::WindowState(request.window);
  // Users shipped in the initial log were active "now" for retention.
  const uint64_t now_secs = UnixSecondsNow();
  for (UserId u = 0; u < request.initial.num_users(); ++u) {
    tenant.window.Observe(request.initial.user_name(u), now_secs);
  }
  RefreshResidentBytes(tenant);
  return {Status::OK(), {}};
}

ServeResponse SanitizerService::ExecuteRestore(Tenant& tenant,
                                               RestoreTenantRequest& request) {
  if (tenant.initialized) {
    return {Status::Internal("tenant already initialized: " + tenant.name),
            {}};
  }
  tenant.initialized = true;
  tenant.session_options = request.options.value_or(options_.session);
  TenantStreamState stream_state;
  Result<SanitizerSession> session =
      RestoreSession(request.path, tenant.session_options, &stream_state);
  if (!session.ok()) {
    tenant.init_error = session.status();
    (void)manager_.Remove(tenant.name);
    return {session.status(), {}};
  }
  tenant.session = std::make_unique<SanitizerSession>(std::move(*session));
  // A restored/migrated tenant resumes with its budget spend and window
  // intact (v1 snapshots restore with a fresh, unenforced accountant).
  tenant.accountant = std::move(stream_state.accountant);
  tenant.window = std::move(stream_state.window);
  {
    std::lock_guard<std::mutex> lock(tenant.cmu);
    tenant.stats.epsilon_spent_micro = static_cast<uint64_t>(
        tenant.accountant.SpentEpsilon() * 1e6 + 0.5);
    tenant.stats.budget_refusals = tenant.accountant.refusals();
  }
  RefreshResidentBytes(tenant);
  return {Status::OK(), {}};
}

// --- Observability ---------------------------------------------------------

namespace {

// Stable verb names indexed by ServeRequest variant alternative.
constexpr const char* kVerbNames[] = {
    "CreateTenant", "Append",       "Flush",      "Solve",
    "Sweep",        "Sanitize",     "Stats",      "SaveSnapshot",
    "RestoreTenant", "DropTenant",  "Metrics",    "SlowLog",
    "RemoveUsers",  "ExpireWindow", "BudgetStatus"};
static_assert(std::variant_size_v<ServeRequest> ==
              sizeof(kVerbNames) / sizeof(kVerbNames[0]));

}  // namespace

void SanitizerService::RegisterMetrics() {
  constexpr size_t kNumVerbs = std::variant_size_v<ServeRequest>;
  requests_total_.resize(kNumVerbs);
  request_errors_total_.resize(kNumVerbs);
  request_duration_.resize(kNumVerbs);
  for (size_t i = 0; i < kNumVerbs; ++i) {
    const obs::LabelSet labels = {{"verb", kVerbNames[i]}};
    requests_total_[i] = registry_.GetCounter(
        "privsan_requests_total", "Requests finished, by verb", labels);
    request_errors_total_[i] = registry_.GetCounter(
        "privsan_request_errors_total",
        "Requests finished with a non-OK status, by verb", labels);
    request_duration_[i] = registry_.GetHistogram(
        "privsan_request_duration_seconds",
        "End-to-end request latency (queue wait included), by verb",
        labels);
  }
  const auto stage = [this](const char* name) {
    return registry_.GetHistogram(
        "privsan_stage_duration_seconds",
        "Per-request stage latency (queue_wait, flush, solve, "
        "cache_lookup)",
        {{"stage", name}});
  };
  stage_queue_wait_ = stage("queue_wait");
  stage_flush_ = stage("flush");
  stage_solve_ = stage("solve");
  stage_cache_lookup_ = stage("cache_lookup");
  simplex_iterations_total_ = registry_.GetCounter(
      "privsan_simplex_iterations_total",
      "Simplex iterations (primal + dual) spent by all solves: the sum of "
      "privsan_tenant_simplex_iterations_total, dropped tenants included");
  repair_pivots_total_ = registry_.GetCounter(
      "privsan_repair_pivots_total",
      "Dual pivots spent restoring warm bases by all warm solves: the sum "
      "of privsan_tenant_dual_iterations_total, dropped tenants included");
  slow_requests_total_ = registry_.GetCounter(
      "privsan_slow_requests_total",
      "Requests at or above the slow-request threshold");

  // Per-tenant values are computed at scrape time from TenantStats and the
  // queue state: cheaper than maintaining labeled metrics on every
  // counter bump, and tenants that come and go never leak registry slots.
  registry_.AddCollector([this](obs::PrometheusWriter* writer) {
    const std::vector<std::shared_ptr<Tenant>> tenants = manager_.All();
    writer->Header("privsan_tenants", "Registered tenants", "gauge");
    writer->Value("privsan_tenants", {},
                  static_cast<double>(tenants.size()));
    writer->Header("privsan_tenant_queue_depth", "Queued jobs per tenant",
                   "gauge");
    for (const std::shared_ptr<Tenant>& tenant : tenants) {
      size_t depth = 0;
      {
        std::lock_guard<std::mutex> lock(tenant->qmu);
        depth = tenant->jobs.size();
      }
      writer->Value("privsan_tenant_queue_depth", {{"tenant", tenant->name}},
                    static_cast<double>(depth));
    }
    for (const TenantStatField& field : kTenantStatFields) {
      const std::string name =
          std::string("privsan_tenant_") + field.key +
          (std::strcmp(field.type, "counter") == 0 ? "_total" : "");
      writer->Header(name, field.help, field.type);
      for (const std::shared_ptr<Tenant>& tenant : tenants) {
        uint64_t value = 0;
        {
          std::lock_guard<std::mutex> lock(tenant->cmu);
          value = tenant->stats.*(field.field);
        }
        writer->Value(name, {{"tenant", tenant->name}},
                      static_cast<double>(value));
      }
    }
    writer->Header("privsan_slowlog_dropped_total",
                   "Slow-log records evicted by the ring buffer",
                   "counter");
    writer->Value("privsan_slowlog_dropped_total", {},
                  static_cast<double>(slow_log_.dropped()));
  });
}

void SanitizerService::RecordRequest(size_t verb_index,
                                     const std::string& tenant,
                                     const Status& status, double total_ms,
                                     const obs::RequestTrace& trace) {
  if (verb_index >= requests_total_.size()) return;
  requests_total_[verb_index]->Increment();
  if (!status.ok()) request_errors_total_[verb_index]->Increment();
  request_duration_[verb_index]->RecordMillis(total_ms);
  stage_queue_wait_->RecordMillis(trace.queue_ms);
  if (trace.flush_ms > 0) stage_flush_->RecordMillis(trace.flush_ms);
  if (trace.solve_ms > 0) stage_solve_->RecordMillis(trace.solve_ms);
  if (trace.cache_ms > 0) stage_cache_lookup_->RecordMillis(trace.cache_ms);
  if (trace.iterations > 0) {
    simplex_iterations_total_->Increment(trace.iterations);
  }
  if (trace.repair_pivots > 0) {
    repair_pivots_total_->Increment(trace.repair_pivots);
  }
  if (options_.slow_request_threshold_ms <= 0 ||
      total_ms >= options_.slow_request_threshold_ms) {
    slow_requests_total_->Increment();
  }
  slow_log_.MaybeRecord(tenant, kVerbNames[verb_index],
                        static_cast<uint16_t>(status.code()), total_ms,
                        trace);
}

std::string SanitizerService::RenderMetrics() const {
  return registry_.RenderPrometheusText();
}

// --- Maintenance -----------------------------------------------------------

void SanitizerService::MaintenanceLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.maintenance_interval_ms);
  std::unique_lock<std::mutex> lock(maintenance_mu_);
  while (!stopping_) {
    maintenance_cv_.wait_for(lock, interval, [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    MaintenanceTick();
    lock.lock();
  }
}

void SanitizerService::MaintenanceTick() {
  const auto now = std::chrono::steady_clock::now();
  const auto max_age = std::chrono::milliseconds(options_.flush_max_age_ms);
  std::vector<std::shared_ptr<Tenant>> tenants = manager_.All();

  uint64_t total_resident = 0;
  for (const std::shared_ptr<Tenant>& tenant : tenants) {
    bool want_flush = false;
    uint64_t expire_cutoff = 0;
    bool want_expire = false;
    {
      // Never wait behind a running solve; a busy tenant flushes itself
      // (pre-solve) or is revisited next tick.
      std::unique_lock<std::mutex> mu(tenant->mu, std::try_to_lock);
      if (!mu.owns_lock()) continue;
      {
        std::lock_guard<std::mutex> cmu(tenant->cmu);
        total_resident += tenant->stats.resident_bytes;
      }
      if (!tenant->pending.empty()) {
        want_flush = tenant->pending.size() >= options_.flush_queue_depth ||
                     now - tenant->oldest_pending >= max_age;
      }
      // Drive the retention window: when the policy says users have aged
      // out, queue an expiry job (which flushes, removes, and re-warms via
      // the tenant's normal queue). Only for healthy, non-dropped
      // tenants — expiry must not resurrect or reload anything by itself.
      if (!want_flush && tenant->window.policy().active() &&
          tenant->initialized && !tenant->dropped &&
          tenant->init_error.ok()) {
        expire_cutoff =
            PolicyCutoff(tenant->window.policy(), UnixSecondsNow());
        want_expire =
            !tenant->window.ExpiredBefore(expire_cutoff).empty();
      }
    }
    if (!want_flush && !want_expire) continue;
    bool schedule = false;
    {
      std::lock_guard<std::mutex> lock(tenant->qmu);
      // flush_scheduled doubles as the "one maintenance job in flight"
      // latch for both flush and expiry; DrainQueue resets it.
      if (!tenant->flush_scheduled) {
        tenant->flush_scheduled = true;
        schedule = true;
      }
    }
    if (schedule) {
      if (want_flush) {
        Enqueue(tenant, FlushRequest{tenant->name}, /*maintenance=*/true,
                nullptr);
      } else {
        Enqueue(tenant, ExpireWindowRequest{tenant->name, expire_cutoff},
                /*maintenance=*/true, nullptr);
      }
    }
  }

  if (options_.memory_budget_bytes == 0 ||
      total_resident <= options_.memory_budget_bytes) {
    return;
  }
  // Over budget: evict idle tenants coldest-first until back under.
  struct Candidate {
    std::shared_ptr<Tenant> tenant;
    std::chrono::steady_clock::time_point access;
  };
  std::vector<Candidate> candidates;
  for (const std::shared_ptr<Tenant>& tenant : tenants) {
    std::lock_guard<std::mutex> lock(tenant->qmu);
    if (tenant->draining || !tenant->jobs.empty()) continue;
    candidates.push_back({tenant, tenant->last_access});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.access < b.access;
            });
  for (const Candidate& candidate : candidates) {
    if (total_resident <= options_.memory_budget_bytes) break;
    const uint64_t freed = TryEvict(candidate.tenant);
    total_resident -= std::min(total_resident, freed);
  }
}

uint64_t SanitizerService::TryEvict(const std::shared_ptr<Tenant>& tenant) {
  // Reserve the tenant's queue by claiming the draining flag — exactly how
  // a drain worker does — so no job can start while the (slow) spill write
  // runs, yet Submit never waits on qmu for longer than a queue push.
  {
    std::lock_guard<std::mutex> lock(tenant->qmu);
    if (tenant->draining || !tenant->jobs.empty()) return 0;
    tenant->draining = true;
  }
  uint64_t freed = 0;
  {
    // Uncontended: jobs only run under the draining reservation we hold.
    std::lock_guard<std::mutex> lock(tenant->mu);
    if (tenant->session != nullptr && !tenant->dropped &&
        tenant->pending.empty()) {
      const std::string path = SpillPath(tenant->name);
      // Spill the stream state too: the spill doubles as a crash artifact,
      // and a RESTORE from it must preserve the budget position. On the
      // transparent reload path the in-memory accountant/window stay
      // authoritative (EnsureLive discards the stored sections).
      const TenantStreamState stream_state{tenant->accountant,
                                           tenant->window};
      if (serve::SaveSnapshot(*tenant->session, path, &stream_state).ok()) {
        tenant->session.reset();
        tenant->evicted = true;
        tenant->spill_path = path;
        InvalidateCache(*tenant);
        {
          std::lock_guard<std::mutex> cmu(tenant->cmu);
          freed = tenant->stats.resident_bytes;
          ++tenant->stats.evictions;
        }
        RefreshResidentBytes(*tenant);
      }
      // On a failed spill (disk full, bad directory) keep the tenant
      // resident rather than lose state; the budget stays over until the
      // next tick.
    }
  }
  // Release the reservation. Jobs submitted during the eviction found
  // draining == true and did not schedule a worker — that is now on us.
  bool start = false;
  {
    std::lock_guard<std::mutex> lock(tenant->qmu);
    if (tenant->jobs.empty()) {
      tenant->draining = false;
    } else {
      start = true;  // keep the reservation; hand it to a drain worker
    }
  }
  if (start) {
    pool_->Submit([this, tenant] { DrainQueue(tenant); });
  }
  return freed;
}

// --- Blocking wrappers ------------------------------------------------------

Status SanitizerService::CreateTenant(const std::string& tenant,
                                      const SearchLog& initial) {
  return Submit(CreateTenantRequest{tenant, initial, std::nullopt})
      .get()
      .status;
}

Status SanitizerService::CreateTenant(const std::string& tenant,
                                      const SearchLog& initial,
                                      SessionOptions options) {
  return Submit(CreateTenantRequest{tenant, initial, std::move(options)})
      .get()
      .status;
}

Status SanitizerService::DropTenant(const std::string& tenant) {
  return Submit(DropTenantRequest{tenant}).get().status;
}

std::vector<std::string> SanitizerService::Tenants() const {
  return manager_.Names();
}

Status SanitizerService::Append(const std::string& tenant,
                                const SearchLog& logs) {
  return Submit(AppendRequest{tenant, logs}).get().status;
}

Status SanitizerService::Flush(const std::string& tenant) {
  return Submit(FlushRequest{tenant}).get().status;
}

Result<UmpSolution> SanitizerService::Solve(const std::string& tenant,
                                            UtilityObjective objective,
                                            const UmpQuery& query) {
  ServeResponse response =
      Submit(SolveRequest{tenant, objective, query}).get();
  PRIVSAN_RETURN_IF_ERROR(response.status);
  if (auto* solution = std::get_if<UmpSolution>(&response.payload)) {
    return std::move(*solution);
  }
  return Status::Internal("Solve returned no solution payload");
}

Result<SweepResult> SanitizerService::Sweep(const std::string& tenant,
                                            UtilityObjective objective,
                                            const std::vector<UmpQuery>& grid,
                                            const SweepOptions& sweep) {
  ServeResponse response =
      Submit(SweepRequest{tenant, objective, grid, sweep}).get();
  PRIVSAN_RETURN_IF_ERROR(response.status);
  if (auto* result = std::get_if<SweepResult>(&response.payload)) {
    return std::move(*result);
  }
  return Status::Internal("Sweep returned no sweep payload");
}

Result<SanitizeReport> SanitizerService::Sanitize(
    const std::string& tenant, const PrivacyParams& privacy) {
  ServeResponse response = Submit(SanitizeRequest{tenant, privacy}).get();
  PRIVSAN_RETURN_IF_ERROR(response.status);
  if (auto* report = std::get_if<SanitizeReport>(&response.payload)) {
    return std::move(*report);
  }
  return Status::Internal("Sanitize returned no report payload");
}

Result<TenantStats> SanitizerService::Stats(const std::string& tenant) {
  ServeResponse response = Submit(StatsRequest{tenant}).get();
  PRIVSAN_RETURN_IF_ERROR(response.status);
  if (auto* stats = std::get_if<TenantStats>(&response.payload)) {
    return *stats;
  }
  return Status::Internal("Stats returned no stats payload");
}

Status SanitizerService::RemoveUsers(const std::string& tenant,
                                     std::vector<std::string> users) {
  return Submit(RemoveUsersRequest{tenant, std::move(users)}).get().status;
}

Status SanitizerService::ExpireWindow(const std::string& tenant,
                                      uint64_t cutoff) {
  return Submit(ExpireWindowRequest{tenant, cutoff}).get().status;
}

Result<BudgetStatus> SanitizerService::Budget(const std::string& tenant) {
  ServeResponse response = Submit(BudgetStatusRequest{tenant}).get();
  PRIVSAN_RETURN_IF_ERROR(response.status);
  if (auto* budget = std::get_if<BudgetStatus>(&response.payload)) {
    return std::move(*budget);
  }
  return Status::Internal("BudgetStatus returned no budget payload");
}

Status SanitizerService::SaveSnapshot(const std::string& tenant,
                                      const std::string& path) {
  return Submit(SaveSnapshotRequest{tenant, path}).get().status;
}

Status SanitizerService::RestoreTenant(const std::string& tenant,
                                       const std::string& path) {
  return Submit(RestoreTenantRequest{tenant, path, std::nullopt})
      .get()
      .status;
}

Status SanitizerService::RestoreTenant(const std::string& tenant,
                                       const std::string& path,
                                       SessionOptions options) {
  return Submit(RestoreTenantRequest{tenant, path, std::move(options)})
      .get()
      .status;
}

}  // namespace serve
}  // namespace privsan
