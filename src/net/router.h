// Consistent-hash request router: one binary-frame front-end fanning a
// tenant space out over N sanitizer_serverd backends.
//
// Placement is a consistent-hash ring (FNV-1a over "tenant", with
// kVirtualNodes points per backend so load stays balanced at small N).
// The first request that names a tenant pins it to the backend the ring
// chooses at that moment; the pin — not the ring — is authoritative from
// then on, so ring changes never silently strand a tenant's state on the
// old backend. A pin lives exactly as long as the tenant's backend state:
// routing a DropTenant unpins, a NotFound reply unpins (the backend holds
// no such tenant), and migration treats NotFound from SaveSnapshot as
// "already gone" — so stale pins can neither block RemoveBackend nor grow
// pinned_ without bound.
//
// Ring changes migrate state explicitly: AddBackend/RemoveBackend
// recompute each pinned tenant's ring position and, for every tenant
// whose position moved, run SaveSnapshot on the old backend →
// RestoreTenant on the new → DropTenant on the old, through a snapshot
// file in Options::migrate_dir (the backends must share a filesystem with
// the router — they are loopback processes). The restored tenant resumes
// warm: its basis and cache travel in the snapshot. Migration is
// blocking and serialized with routing, so requests observe either the
// old pin or the fully-restored new one, never a half-moved tenant.
//
// Each backend gets one worker thread owning its NetClient: requests
// queue per backend, ship pipelined, and complete in backend reply
// order. A dead backend fails its queued requests with the transport
// error and the worker reconnects with backoff on the next request.
#ifndef PRIVSAN_NET_ROUTER_H_
#define PRIVSAN_NET_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "obs/registry.h"
#include "serve/api.h"
#include "util/result.h"

namespace privsan {
namespace net {

inline constexpr int kVirtualNodes = 64;

// The consistent-hash ring, mapping string keys onto backend names.
class HashRing {
 public:
  explicit HashRing(int virtual_nodes = kVirtualNodes)
      : virtual_nodes_(virtual_nodes) {}

  void Add(const std::string& node);
  void Remove(const std::string& node);
  bool empty() const { return ring_.empty(); }

  // The node owning `key`: first ring point clockwise of hash(key).
  // Must not be called on an empty ring.
  const std::string& Locate(const std::string& key) const;

  static uint64_t Hash(const std::string& key);  // FNV-1a

 private:
  int virtual_nodes_;
  std::map<uint64_t, std::string> ring_;
};

// One migrated tenant, for the admin log.
struct Migration {
  std::string tenant;
  uint16_t from = 0;
  uint16_t to = 0;
};

class Router {
 public:
  struct Options {
    std::vector<uint16_t> backends;  // ports on 127.0.0.1
    int virtual_nodes = kVirtualNodes;
    // Where migration snapshots are written (and deleted afterwards).
    std::string migrate_dir = ".";
    ClientOptions client;
  };

  explicit Router(Options options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Connects every configured backend; fails if any is unreachable.
  Status Start();

  // Routes one request; `respond` fires exactly once, from the backend
  // worker thread (or inline when no backend is available). Thread-safe;
  // never blocks on the network — this is NetServer's FrameHandler.
  void Submit(serve::ServeRequest request,
              std::function<void(serve::ServeResponse)> respond);

  // Ring changes; blocking (requests submitted meanwhile wait). Return
  // the tenants that moved.
  Result<std::vector<Migration>> AddBackend(uint16_t port);
  Result<std::vector<Migration>> RemoveBackend(uint16_t port);

  size_t backend_count() const;

  // Router-side Prometheus scrape: per-backend in-flight / reconnect /
  // fail-all counters, migration counts and durations, ring state. This
  // is what a MetricsRequest submitted to the router answers (the verb is
  // intercepted, not forwarded — each backend exports its own metrics).
  std::string Metrics() const { return registry_.RenderPrometheusText(); }

  // The router's own registry, so the serving front-end can co-register
  // its transport metrics (writev flush batching) on the same scrape.
  obs::MetricRegistry* registry() { return &registry_; }

 private:
  struct Job {
    serve::ServeRequest request;
    std::function<void(serve::ServeResponse)> respond;
  };
  struct Backend {
    uint16_t port = 0;
    NetClient client;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> queue;
    bool stop = false;
    std::thread worker;

    // Registry-owned metric slots, labeled {backend="<port>"}; registered
    // by ConnectBackend so the hot paths touch only atomics.
    obs::Counter* requests_total = nullptr;
    obs::Counter* failures_total = nullptr;
    obs::Counter* reconnects_total = nullptr;
    obs::Counter* fail_all_total = nullptr;
    obs::Gauge* inflight = nullptr;
    // Kernel health observed from this backend's Solve/Sweep/Stats
    // replies as they pass through the router, so one routerd scrape
    // shows which backend's LP kernels degrade without scraping each
    // backend individually.
    obs::Gauge* factor_nnz = nullptr;
    obs::Gauge* max_update_run = nullptr;
  };

  void WorkerLoop(Backend* backend);
  // Queues one job on a backend, counting it and holding the in-flight
  // gauge up until its respond fires. Every enqueue goes through here.
  void Enqueue(Backend* backend, Job job);
  // Sends `request` to one specific backend and waits for its response —
  // the migration path (routing would re-hash).
  serve::ServeResponse CallBackend(Backend* backend,
                                   serve::ServeRequest request);
  // Moves every pinned tenant whose ring position changed to its new
  // home; unpins tenants the old backend no longer knows. Caller holds
  // mu_.
  std::vector<Migration> MigrateLocked();
  // Erases the pin for `tenant` if it still names `key`; called from
  // worker threads on NotFound replies, so it only try-locks mu_ (a
  // migration blocked on that worker may hold it).
  void UnpinIfStale(const std::string& tenant, const std::string& key);
  Result<std::shared_ptr<Backend>> ConnectBackend(uint16_t port);
  static void StopBackend(Backend* backend);

  Options options_;

  obs::MetricRegistry registry_;
  obs::Counter* migrations_total_ = nullptr;
  obs::LatencyHistogram* migration_duration_ = nullptr;

  mutable std::mutex mu_;  // ring + pins + backend set (not the queues)
  HashRing ring_{kVirtualNodes};
  std::map<std::string, std::shared_ptr<Backend>> backends_;  // by ring key
  std::map<std::string, std::string> pinned_;  // tenant -> ring key
};

}  // namespace net
}  // namespace privsan

#endif  // PRIVSAN_NET_ROUTER_H_
