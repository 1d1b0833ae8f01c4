#include "net/router.h"

#include <chrono>
#include <filesystem>
#include <future>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

namespace privsan {
namespace net {

uint64_t HashRing::Hash(const std::string& key) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  for (const char c : key) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  // Raw FNV-1a of short keys differing only in a trailing digit ("n#0"
  // .. "n#63") clusters within a tiny arc, which collapses the ring onto
  // one node. The murmur3 finalizer gives the missing avalanche.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return hash;
}

void HashRing::Add(const std::string& node) {
  for (int i = 0; i < virtual_nodes_; ++i) {
    ring_[Hash(node + '#' + std::to_string(i))] = node;
  }
}

void HashRing::Remove(const std::string& node) {
  for (int i = 0; i < virtual_nodes_; ++i) {
    auto it = ring_.find(Hash(node + '#' + std::to_string(i)));
    if (it != ring_.end() && it->second == node) ring_.erase(it);
  }
}

const std::string& HashRing::Locate(const std::string& key) const {
  auto it = ring_.lower_bound(Hash(key));
  if (it == ring_.end()) it = ring_.begin();  // clockwise wrap
  return it->second;
}

Router::Router(Options options) : options_(std::move(options)) {
  migrations_total_ = registry_.GetCounter(
      "privsan_router_migrations_total",
      "Tenants migrated between backends by ring changes.");
  migration_duration_ = registry_.GetHistogram(
      "privsan_router_migration_duration_seconds",
      "Wall time of one warm tenant migration (save + restore + drop).");
  // Ring state is read at scrape time instead of being tracked by yet
  // another pair of counters the ring code would have to keep honest.
  registry_.AddCollector([this](obs::PrometheusWriter* writer) {
    size_t backends = 0;
    size_t pinned = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      backends = backends_.size();
      pinned = pinned_.size();
    }
    writer->Header("privsan_router_backends",
                   "Backends currently in the ring.", "gauge");
    writer->Value("privsan_router_backends", {},
                  static_cast<double>(backends));
    writer->Header("privsan_router_pinned_tenants",
                   "Tenants pinned to a backend.", "gauge");
    writer->Value("privsan_router_pinned_tenants", {},
                  static_cast<double>(pinned));
  });
}

Router::~Router() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, backend] : backends_) StopBackend(backend.get());
}

Status Router::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_ = HashRing(options_.virtual_nodes);
  for (const uint16_t port : options_.backends) {
    PRIVSAN_ASSIGN_OR_RETURN(std::shared_ptr<Backend> backend,
                             ConnectBackend(port));
    const std::string key = std::to_string(port);
    backends_[key] = std::move(backend);
    ring_.Add(key);
  }
  if (backends_.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  return Status::OK();
}

Result<std::shared_ptr<Router::Backend>> Router::ConnectBackend(
    uint16_t port) {
  PRIVSAN_ASSIGN_OR_RETURN(NetClient client,
                           NetClient::Connect(port, options_.client));
  auto backend = std::make_shared<Backend>();
  backend->port = port;
  backend->client = std::move(client);
  // GetCounter/GetGauge are idempotent, so a backend re-added on the same
  // port resumes its counter series instead of resetting it.
  const obs::LabelSet labels = {{"backend", std::to_string(port)}};
  backend->requests_total = registry_.GetCounter(
      "privsan_router_requests_total",
      "Requests enqueued toward a backend.", labels);
  backend->failures_total = registry_.GetCounter(
      "privsan_router_request_failures_total",
      "Requests answered with a transport error instead of a reply.",
      labels);
  backend->reconnects_total = registry_.GetCounter(
      "privsan_router_reconnects_total",
      "Successful reconnects after a lost backend connection.", labels);
  backend->fail_all_total = registry_.GetCounter(
      "privsan_router_fail_all_total",
      "Connection losses that failed every in-flight request at once.",
      labels);
  backend->inflight = registry_.GetGauge(
      "privsan_router_inflight",
      "Requests queued for or awaiting a reply from a backend.", labels);
  backend->factor_nnz = registry_.GetGauge(
      "privsan_router_backend_factor_nnz",
      "Peak basis-factorization nonzeros seen in this backend's replies.",
      labels);
  backend->max_update_run = registry_.GetGauge(
      "privsan_router_backend_max_update_run",
      "Longest Forrest-Tomlin update run seen in this backend's replies.",
      labels);
  backend->worker = std::thread([this, raw = backend.get()] {
    WorkerLoop(raw);
  });
  return backend;
}

void Router::StopBackend(Backend* backend) {
  {
    std::lock_guard<std::mutex> lock(backend->mu);
    backend->stop = true;
  }
  backend->cv.notify_all();
  if (backend->worker.joinable()) backend->worker.join();
}

namespace {

// Raises a backend's kernel-health peaks from any reply that carries solver
// effort: a Solve, Sweep or Sanitize answer, or a Stats reply's cumulative
// tenant view. The peak gauges race benignly across worker threads — a
// lost max costs one scrape of staleness.
void ObserveKernelHealth(obs::Gauge* factor_nnz, obs::Gauge* max_update_run,
                         const serve::ServeResponse& response) {
  lp::SolveStats stats;
  if (const UmpSolution* s = response.solution()) {
    stats = s->stats;
  } else if (const SweepResult* s = response.sweep()) {
    stats = s->totals();
  } else if (const SanitizeReport* r = response.report()) {
    stats = r->stats;
  } else if (const serve::TenantStats* t = response.stats()) {
    stats = *t;
  } else {
    return;
  }
  const double nnz = static_cast<double>(stats.factor_nnz);
  const double run = static_cast<double>(stats.max_update_run);
  if (nnz > factor_nnz->Value()) factor_nnz->Set(nnz);
  if (run > max_update_run->Value()) max_update_run->Set(run);
}

}  // namespace

void Router::Enqueue(Backend* backend, Job job) {
  backend->requests_total->Increment();
  backend->inflight->Add(1.0);
  // The metric pointers outlive the backend (the registry owns them), so
  // the decrement and the kernel-health observation are safe even if the
  // reply races a RemoveBackend.
  job.respond = [inflight = backend->inflight,
                 factor_nnz = backend->factor_nnz,
                 max_update_run = backend->max_update_run,
                 inner = std::move(job.respond)](
                    serve::ServeResponse response) {
    inflight->Add(-1.0);
    ObserveKernelHealth(factor_nnz, max_update_run, response);
    inner(std::move(response));
  };
  {
    std::lock_guard<std::mutex> lock(backend->mu);
    backend->queue.push_back(std::move(job));
  }
  backend->cv.notify_one();
}

void Router::Submit(serve::ServeRequest request,
                    std::function<void(serve::ServeResponse)> respond) {
  // Observability verbs never reach a backend. METRICS names no tenant, so
  // routing it would both pin the empty string and answer from whichever
  // backend the ring picked; the router is its own scrape target instead.
  // SLOWLOG is inherently per-backend state — tell the operator to scrape
  // the backend directly rather than return one backend's log as if it
  // covered the fleet.
  if (std::holds_alternative<serve::MetricsRequest>(request)) {
    respond(serve::ServeResponse{Status::OK(),
                                 serve::MetricsText{Metrics()}});
    return;
  }
  if (std::holds_alternative<serve::SlowLogRequest>(request)) {
    respond(serve::ServeResponse{
        Status::InvalidArgument(
            "SLOWLOG is per-backend state the router cannot aggregate; "
            "scrape a backend directly"),
        {}});
    return;
  }
  const bool is_drop =
      std::holds_alternative<serve::DropTenantRequest>(request);
  std::shared_ptr<Backend> backend;
  std::string tenant;
  std::string key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (backends_.empty()) {
      respond(serve::ServeResponse{
          Status::FailedPrecondition("router has no backends"), {}});
      return;
    }
    tenant = serve::RequestTenant(request);
    auto pin = pinned_.find(tenant);
    if (is_drop) {
      // Route the drop to wherever the state lives, then forget the pin:
      // a dropped tenant owns no state worth pinning, and a pin that
      // outlives the state would block RemoveBackend forever (a phantom
      // tenant can never migrate off). If the drop itself fails in
      // transit, the next request re-pins via the ring, which still names
      // this backend while the ring is unchanged.
      key = pin != pinned_.end() ? pin->second : ring_.Locate(tenant);
      if (pin != pinned_.end()) pinned_.erase(pin);
    } else {
      if (pin == pinned_.end()) {
        // First sighting: the ring chooses, the pin remembers.
        pin = pinned_.emplace(tenant, ring_.Locate(tenant)).first;
      }
      key = pin->second;
    }
    backend = backends_.at(key);
  }
  if (!is_drop) {
    // A NotFound reply proves the tenant holds no state on `key`: unpin,
    // so requests naming tenants that never existed cannot grow pinned_
    // without bound.
    respond = [this, tenant, key, inner = std::move(respond)](
                  serve::ServeResponse response) {
      if (response.status.code() == StatusCode::kNotFound) {
        UnpinIfStale(tenant, key);
      }
      inner(std::move(response));
    };
  }
  Enqueue(backend.get(), Job{std::move(request), std::move(respond)});
}

void Router::UnpinIfStale(const std::string& tenant,
                          const std::string& key) {
  // try_lock, not lock: this runs on a backend worker thread, and a ring
  // change may hold mu_ while blocking on that same worker — waiting here
  // would deadlock. A missed cleanup is retried on the next NotFound and
  // swept by MigrateLocked / RemoveBackend anyway.
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  auto it = pinned_.find(tenant);
  if (it != pinned_.end() && it->second == key) pinned_.erase(it);
}

void Router::WorkerLoop(Backend* backend) {
  // Responses owed by the backend, oldest first (its replies are FIFO).
  std::deque<std::function<void(serve::ServeResponse)>> awaiting;
  while (true) {
    std::vector<Job> jobs;
    {
      std::unique_lock<std::mutex> lock(backend->mu);
      if (awaiting.empty()) {
        backend->cv.wait(lock, [backend] {
          return backend->stop || !backend->queue.empty();
        });
      }
      if (backend->stop && backend->queue.empty() && awaiting.empty()) {
        return;
      }
      while (!backend->queue.empty()) {
        jobs.push_back(std::move(backend->queue.front()));
        backend->queue.pop_front();
      }
    }
    if (!jobs.empty() && !backend->client.connected()) {
      // The previous batch lost the connection; retry with backoff
      // before failing this one.
      Result<NetClient> reconnected =
          NetClient::Connect(backend->port, options_.client);
      if (reconnected.ok()) {
        backend->client = std::move(*reconnected);
        backend->reconnects_total->Increment();
      }
    }
    for (Job& job : jobs) {
      Result<uint64_t> sent = backend->client.Send(job.request);
      if (sent.ok()) {
        awaiting.push_back(std::move(job.respond));
      } else {
        backend->failures_total->Increment();
        job.respond(serve::ServeResponse{sent.status(), {}});
      }
    }
    if (!awaiting.empty()) {
      Result<serve::ServeResponse> response = backend->client.Receive();
      if (response.ok()) {
        awaiting.front()(std::move(*response));
        awaiting.pop_front();
      } else {
        // The connection died with requests in flight; their replies are
        // unknowable. Fail them all with the transport error.
        backend->fail_all_total->Increment();
        backend->failures_total->Increment(awaiting.size());
        for (auto& respond : awaiting) {
          respond(serve::ServeResponse{response.status(), {}});
        }
        awaiting.clear();
      }
    }
  }
}

serve::ServeResponse Router::CallBackend(Backend* backend,
                                         serve::ServeRequest request) {
  std::promise<serve::ServeResponse> promise;
  std::future<serve::ServeResponse> future = promise.get_future();
  Enqueue(backend,
          Job{std::move(request), [&promise](serve::ServeResponse response) {
                promise.set_value(std::move(response));
              }});
  return future.get();
}

std::vector<Migration> Router::MigrateLocked() {
  std::vector<Migration> migrations;
  for (auto it = pinned_.begin(); it != pinned_.end();) {
    const std::string& tenant = it->first;
    const std::string& pinned_key = it->second;
    const std::string& new_key = ring_.Locate(tenant);
    if (new_key == pinned_key) {
      ++it;
      continue;
    }
    Backend* from = backends_.at(pinned_key).get();
    Backend* to = backends_.at(new_key).get();
    const std::string path =
        options_.migrate_dir + "/" + tenant + ".mig";
    // The snapshot carries the whole session (pending appends are flushed
    // first, the solve basis travels with it), so the tenant resumes warm
    // on its new backend.
    const auto migrate_start = std::chrono::steady_clock::now();
    serve::ServeResponse saved =
        CallBackend(from, serve::SaveSnapshotRequest{tenant, path});
    if (saved.ok()) {
      serve::ServeResponse restored = CallBackend(
          to, serve::RestoreTenantRequest{tenant, path, std::nullopt});
      if (restored.ok()) {
        CallBackend(from, serve::DropTenantRequest{tenant});
        migrations.push_back(Migration{tenant, from->port, to->port});
        it->second = new_key;
        migrations_total_->Increment();
        migration_duration_->RecordSeconds(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          migrate_start)
                .count());
      }
      // On failure the pin stays where the state is — the old backend.
      ++it;
    } else if (saved.status.code() == StatusCode::kNotFound) {
      // A phantom pin: the backend holds no such tenant (a request named
      // a tenant that never existed, or it was dropped behind the
      // router's back). There is nothing to move — unpin, instead of
      // wedging every future RemoveBackend on it.
      it = pinned_.erase(it);
    } else {
      ++it;
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  return migrations;
}

Result<std::vector<Migration>> Router::AddBackend(uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = std::to_string(port);
  if (backends_.count(key) > 0) {
    return Status::InvalidArgument("backend " + key + " already routed");
  }
  PRIVSAN_ASSIGN_OR_RETURN(std::shared_ptr<Backend> backend,
                           ConnectBackend(port));
  backends_[key] = std::move(backend);
  ring_.Add(key);
  return MigrateLocked();
}

Result<std::vector<Migration>> Router::RemoveBackend(uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = std::to_string(port);
  auto it = backends_.find(key);
  if (it == backends_.end()) {
    return Status::NotFound("backend " + key + " is not routed");
  }
  if (backends_.size() == 1) {
    // No migration target exists, so MigrateLocked cannot sweep stale
    // pins here. Probe each pin instead: a tenant the backend does not
    // know (phantom name, or dropped behind the router's back) unpins; a
    // live one genuinely blocks the removal.
    for (auto pin = pinned_.begin(); pin != pinned_.end();) {
      if (pin->second != key) {
        ++pin;
        continue;
      }
      const serve::ServeResponse probed =
          CallBackend(it->second.get(), serve::StatsRequest{pin->first});
      if (probed.status.code() == StatusCode::kNotFound) {
        pin = pinned_.erase(pin);
        continue;
      }
      return Status::FailedPrecondition(
          "backend " + key + " still hosts tenants and is the last one");
    }
  }
  ring_.Remove(key);
  std::vector<Migration> migrations = MigrateLocked();
  for (const auto& [tenant, pinned_key] : pinned_) {
    if (pinned_key == key) {
      // A migration failed; the state is still on this backend. Put its
      // ring points back and keep serving rather than strand the tenant.
      ring_.Add(key);
      return Status::Internal("backend " + key +
                              " still hosts tenants after migration");
    }
  }
  StopBackend(it->second.get());
  backends_.erase(it);
  return migrations;
}

size_t Router::backend_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return backends_.size();
}

}  // namespace net
}  // namespace privsan
