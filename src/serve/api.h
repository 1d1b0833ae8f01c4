// The typed serve API: every operation the serving layer offers, expressed
// as one ServeRequest value answered by one ServeResponse value.
//
// The request family mirrors the verbs of serve::SanitizerService; a
// request names its tenant and carries exactly the inputs of the matching
// blocking method. SanitizerService::Submit(request) enqueues it and
// returns a std::future<ServeResponse> immediately:
//
//   * Requests addressed to one tenant land on that tenant's FIFO work
//     queue and execute in submission order — "append then solve" through
//     Submit means the solve sees the append, exactly as with the blocking
//     calls. Distinct tenants' queues drain in parallel on the service's
//     worker pool.
//   * CreateTenant / RestoreTenant register the tenant name synchronously
//     inside Submit (duplicate names fail the future immediately) and run
//     the expensive construction as the first job on the new tenant's
//     queue, so a pipelined CREATE -> APPEND -> SOLVE burst keeps FIFO
//     semantics without waiting on any future in between.
//   * Append's future resolves once the batch is accepted into the
//     tenant's pending queue — the merge/re-preprocess/row-rebuild work is
//     deferred to the next flush (explicit, pre-solve, or background).
//
// A ServeResponse is a Status plus the payload of the verb that produced
// it: Solve -> UmpSolution, Sweep -> SweepResult, Sanitize ->
// SanitizeReport, Stats -> TenantStats, everything else -> no payload.
#ifndef PRIVSAN_SERVE_API_H_
#define PRIVSAN_SERVE_API_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/privacy_params.h"
#include "core/session.h"
#include "core/ump.h"
#include "log/search_log.h"
#include "obs/slow_log.h"
#include "stream/accountant.h"
#include "stream/window.h"
#include "util/result.h"

namespace privsan {
namespace serve {

// --- Requests --------------------------------------------------------------

// `options` overrides ServiceOptions::session for this tenant only.
// `budget` and `window` configure the tenant's privacy accountant and
// retention window (both default-inactive; plain wire-encodable values,
// unlike the local-only `options` override).
struct CreateTenantRequest {
  std::string tenant;
  SearchLog initial;
  std::optional<SessionOptions> options;
  stream::BudgetConfig budget = {};
  stream::WindowPolicy window = {};
};

// Enqueues user logs; they coalesce into one incremental AppendUsers at the
// tenant's next flush.
struct AppendRequest {
  std::string tenant;
  SearchLog logs;
};

// Drains the tenant's pending-append queue now (no-op when empty).
struct FlushRequest {
  std::string tenant;
};

struct SolveRequest {
  std::string tenant;
  UtilityObjective objective = UtilityObjective::kOutputSize;
  UmpQuery query;
};

struct SweepRequest {
  std::string tenant;
  UtilityObjective objective = UtilityObjective::kOutputSize;
  std::vector<UmpQuery> grid;
  SweepOptions sweep;
};

struct SanitizeRequest {
  std::string tenant;
  PrivacyParams privacy;
};

struct StatsRequest {
  std::string tenant;
};

// Flushes queued appends, then persists the tenant's session state.
struct SaveSnapshotRequest {
  std::string tenant;
  std::string path;
};

// Creates `tenant` from a snapshot file; fails if the name exists.
struct RestoreTenantRequest {
  std::string tenant;
  std::string path;
  std::optional<SessionOptions> options;
};

struct DropTenantRequest {
  std::string tenant;
};

// Observability verbs. Neither addresses a tenant (`tenant` stays empty —
// RequestTenant returns it for uniformity); both are answered inline by
// Submit without touching any tenant queue, so a scrape never waits
// behind a sweep.

// Full Prometheus text scrape of the service's metric registry.
struct MetricsRequest {
  std::string tenant;  // always empty; present for RequestTenant
};

// Dump of the slow-request ring buffer, oldest-first. `limit` 0 returns
// everything; otherwise the newest `limit` records.
struct SlowLogRequest {
  std::string tenant;  // always empty; present for RequestTenant
  uint64_t limit = 0;
};

// Streaming-lifecycle verbs (stream/window.h, stream/accountant.h).

// Removes the named users from the tenant's log — the inverse of Append.
// Queued appends are flushed first so the removal sees every prior append
// in FIFO order; the DP rows are rebuilt and the warm basis is remapped
// down (core/session.h RemoveUsers).
struct RemoveUsersRequest {
  std::string tenant;
  std::vector<std::string> users;
};

// Removes every user whose last-seen timestamp is older than `cutoff`
// (explicit retention; the maintenance thread applies the tenant's
// WindowPolicy continuously on its own).
struct ExpireWindowRequest {
  std::string tenant;
  uint64_t cutoff = 0;
};

// Reads the tenant's privacy-budget accountant (cheap, read-only).
struct BudgetStatusRequest {
  std::string tenant;
};

// New verbs append at the end: the variant index is the wire protocol's
// frame verb byte (net/frame.h) and the metrics verb-table index.
using ServeRequest =
    std::variant<CreateTenantRequest, AppendRequest, FlushRequest,
                 SolveRequest, SweepRequest, SanitizeRequest, StatsRequest,
                 SaveSnapshotRequest, RestoreTenantRequest, DropTenantRequest,
                 MetricsRequest, SlowLogRequest, RemoveUsersRequest,
                 ExpireWindowRequest, BudgetStatusRequest>;

// The tenant a request addresses (empty for the tenant-less observability
// verbs Metrics and SlowLog).
const std::string& RequestTenant(const ServeRequest& request);

// Stable verb name for logs and error messages ("Solve", "Append", ...).
const char* RequestName(const ServeRequest& request);

// --- Responses -------------------------------------------------------------

// Serve-path counters for one tenant. All counters are monotonic;
// resident_bytes is a gauge refreshed whenever the tenant's state changes.
struct TenantStats {
  uint64_t appends_enqueued = 0;   // Append() calls accepted into the queue
  uint64_t flushes = 0;            // AppendUsers calls actually performed
  uint64_t appends_coalesced = 0;  // queued appends merged into those flushes
  // Flushes initiated by the service's maintenance thread (queue depth or
  // age trigger) rather than by an explicit Flush or a pre-solve flush.
  uint64_t maintenance_flushes = 0;
  uint64_t solves = 0;  // cache-missing Solves, Sweep cells, Sanitizes
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // Warm solves whose dual repair hit SimplexOptions::warm_repair_pivot_cap
  // and fell back cold — sustained growth means this tenant's appends are
  // too large to repair and the cap (or flush cadence) needs tuning.
  uint64_t repair_aborted = 0;
  // Simplex kernel health, maxed over this tenant's solves: basis
  // refactorization count, peak factorization fill (nonzeros an FTRAN
  // traverses), and the longest update run between refactorizations. A
  // shrinking update run or ballooning fill flags the tenant whose DP
  // systems degrade the Forrest–Tomlin update scheme.
  uint64_t refactorizations = 0;
  uint64_t factor_nnz = 0;
  uint64_t max_update_run = 0;
  // Hot-query refreshes: after a background flush, the most recent solve
  // query is re-solved off the query path so the repeated-budget query
  // stays a cache hit and the stored basis is re-optimized.
  uint64_t refresh_solves = 0;
  // Global-memory-budget lifecycle: times this tenant was spilled to its
  // eviction snapshot, and times it was transparently reloaded on access.
  uint64_t evictions = 0;
  uint64_t reloads = 0;
  // Admission control (ServiceOptions::max_queue_depth): requests rejected
  // with kResourceExhausted because the tenant's queue was full.
  uint64_t admission_rejected = 0;
  // Estimated resident footprint (session state + result cache); 0 while
  // evicted. The sum across tenants is what the maintenance thread holds
  // under ServiceOptions::memory_budget_bytes.
  uint64_t resident_bytes = 0;
  // Streaming lifecycle (RemoveUsers / ExpireWindow, plus window expiry
  // driven by the maintenance thread): users removed from the log.
  uint64_t users_removed = 0;
  // Privacy accountant: cumulative ε spend under the tenant's composition
  // in micro-ε (uint64 so the Prometheus export table stays uniform —
  // 1500000 means ε = 1.5; full-precision doubles come from BUDGET), and
  // charges refused with kBudgetExhausted.
  uint64_t epsilon_spent_micro = 0;
  uint64_t budget_refusals = 0;
};

// Metrics scrape payload: the registry rendered as Prometheus text.
struct MetricsText {
  std::string text;
};

// Slow-request log dump, oldest-first, plus ring bookkeeping so a scraper
// can tell whether (and how far) the window slid since its last pull.
struct SlowLogDump {
  std::vector<obs::SlowRequestRecord> records;
  uint64_t dropped = 0;
  double threshold_ms = 0;
};

// BudgetStatus payload: the accountant's position, full precision.
// remaining_epsilon is +inf (and enforced is false) for an unlimited
// tenant; spent figures are still reported.
struct BudgetStatus {
  double max_epsilon = 0.0;
  double max_delta = 0.0;
  double min_remaining_epsilon = 0.0;
  std::string composition;  // "basic" | "advanced"
  double spent_epsilon = 0.0;
  double spent_delta = 0.0;
  double remaining_epsilon = 0.0;
  bool enforced = false;
  uint64_t allocations = 0;
  uint64_t refusals = 0;
};

using ServePayload =
    std::variant<std::monostate, UmpSolution, SweepResult, SanitizeReport,
                 TenantStats, MetricsText, SlowLogDump, BudgetStatus>;

struct ServeResponse {
  Status status;
  ServePayload payload;

  bool ok() const { return status.ok(); }

  // Typed payload accessors; nullptr when the response carries a different
  // payload (or failed).
  const UmpSolution* solution() const {
    return std::get_if<UmpSolution>(&payload);
  }
  const SweepResult* sweep() const {
    return std::get_if<SweepResult>(&payload);
  }
  const SanitizeReport* report() const {
    return std::get_if<SanitizeReport>(&payload);
  }
  const TenantStats* stats() const {
    return std::get_if<TenantStats>(&payload);
  }
  const MetricsText* metrics() const {
    return std::get_if<MetricsText>(&payload);
  }
  const SlowLogDump* slow_log() const {
    return std::get_if<SlowLogDump>(&payload);
  }
  const BudgetStatus* budget() const {
    return std::get_if<BudgetStatus>(&payload);
  }
};

}  // namespace serve
}  // namespace privsan

#endif  // PRIVSAN_SERVE_API_H_
