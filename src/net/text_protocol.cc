#include "net/text_protocol.h"

#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "core/privacy_params.h"
#include "synth/generator.h"

namespace privsan {
namespace net {

namespace {

std::optional<UtilityObjective> ParseObjective(const std::string& token) {
  if (token == "OUMP" || token == "O-UMP" || token == "oump") {
    return UtilityObjective::kOutputSize;
  }
  if (token == "FUMP" || token == "F-UMP" || token == "fump") {
    return UtilityObjective::kFrequentPairs;
  }
  if (token == "DUMP" || token == "D-UMP" || token == "dump") {
    return UtilityObjective::kDiversity;
  }
  return std::nullopt;
}

std::string ErrLine(const Status& status) {
  return "ERR " + status.ToString();
}

std::string FormatStats(const serve::TenantStats& stats) {
  std::ostringstream out;
  out << "OK appends_enqueued=" << stats.appends_enqueued
      << " flushes=" << stats.flushes
      << " appends_coalesced=" << stats.appends_coalesced
      << " maintenance_flushes=" << stats.maintenance_flushes
      << " solves=" << stats.solves << " cache_hits=" << stats.cache_hits
      << " cache_misses=" << stats.cache_misses
      << " repair_aborted=" << stats.repair_aborted
      << " refactorizations=" << stats.refactorizations
      << " factor_nnz=" << stats.factor_nnz
      << " max_update_run=" << stats.max_update_run
      << " rows_copied=" << stats.rows_copied
      << " rows_rebuilt=" << stats.rows_rebuilt
      << " refresh_solves=" << stats.refresh_solves
      << " evictions=" << stats.evictions << " reloads=" << stats.reloads
      << " fast_lane_hits=" << stats.fast_lane_hits
      << " admission_rejected=" << stats.admission_rejected
      << " resident_bytes=" << stats.resident_bytes
      << " users_removed=" << stats.users_removed
      << " rows_patched_on_remove=" << stats.rows_patched_on_remove
      << " epsilon_spent_micro=" << stats.epsilon_spent_micro
      << " budget_refusals=" << stats.budget_refusals;
  return out.str();
}

// REMOVE and EXPIRE: a removal followed by Stats on the same tenant
// queue, so the counters reflect exactly this removal.
std::string FormatRemoval(std::vector<serve::ServeResponse>& responses) {
  if (!responses[0].ok()) return ErrLine(responses[0].status);
  if (!responses[1].ok()) return ErrLine(responses[1].status);
  const serve::TenantStats& stats = *responses[1].stats();
  std::ostringstream out;
  out << "OK users_removed=" << stats.users_removed
      << " rows_copied=" << stats.rows_copied
      << " rows_rebuilt=" << stats.rows_rebuilt;
  return out.str();
}

}  // namespace

// RESTORE ordering. Lines are numbered in Handle order; a RESTORE line
// waits while a SNAPSHOT line of its path with a smaller number is
// unanswered. A waiting line parks in its tenant's hold, and so does every
// later line for that tenant while the hold exists, so each tenant's lines
// reach the backend in line order: submissions run under `mu`, so a
// worker releasing a hold cannot interleave with the transport submitting
// that tenant's next line. `mu` is recursive because a backend may answer
// inline, and an answered SNAPSHOT releases holds.
struct TextProtocol::Backend {
  struct Line {
    uint64_t number = 0;
    std::string restore_path;  // set for a RESTORE line
    std::function<void()> submit;
  };

  const SubmitFn submit;
  std::recursive_mutex mu;
  uint64_t next_line = 0;
  std::map<std::string, std::set<uint64_t>> snapshots;  // unanswered, by path
  std::map<std::string, std::deque<Line>> holds;        // parked, by tenant

  bool Blocked(const Line& line) const {
    auto pending = snapshots.find(line.restore_path);
    return pending != snapshots.end() && *pending->second.begin() < line.number;
  }

  // Submits `tenant`'s parked lines in order until the hold empties or its
  // next line must still wait.
  void Release(const std::string& tenant) {
    for (auto hold = holds.find(tenant);
         hold != holds.end() && !Blocked(hold->second.front());
         hold = holds.find(tenant)) {
      Line line = std::move(hold->second.front());
      hold->second.pop_front();
      if (hold->second.empty()) holds.erase(hold);
      line.submit();
    }
  }

  void SnapshotAnswered(const std::string& path, uint64_t number) {
    std::lock_guard<std::recursive_mutex> lock(mu);
    auto pending = snapshots.find(path);
    pending->second.erase(number);
    if (pending->second.empty()) snapshots.erase(pending);
    std::vector<std::string> tenants;
    for (const auto& hold : holds) tenants.push_back(hold.first);
    for (const std::string& tenant : tenants) Release(tenant);
  }
};

TextProtocol::TextProtocol(SubmitFn submit, ListTenantsFn list_tenants,
                           serve::ThreadPool* gen_pool)
    : backend_(std::make_shared<Backend>(std::move(submit))),
      list_tenants_(std::move(list_tenants)),
      gen_pool_(gen_pool) {}

void TextProtocol::SubmitMany(std::vector<serve::ServeRequest> requests,
                              Formatter format, Done done) {
  struct Batch {
    std::mutex mu;
    std::vector<serve::ServeRequest> requests;
    std::vector<serve::ServeResponse> responses;
    size_t remaining = 0;
    Formatter format;
    Done done;
  };
  auto batch = std::make_shared<Batch>();
  batch->responses.resize(requests.size());
  batch->remaining = requests.size();
  batch->format = std::move(format);
  batch->done = std::move(done);
  // A batch addresses one tenant; only its first request can be a
  // SNAPSHOT or a RESTORE.
  const serve::ServeRequest& first = requests.front();
  const std::string tenant = serve::RequestTenant(first);
  const auto* snapshot = std::get_if<serve::SaveSnapshotRequest>(&first);
  const auto* restore = std::get_if<serve::RestoreTenantRequest>(&first);
  const std::string snapshot_path = snapshot ? snapshot->path : "";

  std::lock_guard<std::recursive_mutex> lock(backend_->mu);
  Backend::Line line{backend_->next_line++, restore ? restore->path : "", {}};
  if (snapshot) backend_->snapshots[snapshot_path].insert(line.number);
  batch->requests = std::move(requests);
  line.submit = [backend = backend_, batch, snapshot_path,
                 number = line.number] {
    for (size_t i = 0; i < batch->requests.size(); ++i) {
      backend->submit(
          std::move(batch->requests[i]),
          [backend, batch, i, snapshot_path,
           number](serve::ServeResponse response) {
            bool last = false;
            {
              std::lock_guard<std::mutex> lock(batch->mu);
              batch->responses[i] = std::move(response);
              last = (--batch->remaining == 0);
            }
            if (i == 0 && !snapshot_path.empty()) {
              backend->SnapshotAnswered(snapshot_path, number);
            }
            // The reply fires outside the lock; `done` may do I/O.
            if (last) batch->done(batch->format(batch->responses));
          });
    }
  };
  if (backend_->holds.count(tenant) > 0 || backend_->Blocked(line)) {
    backend_->holds[tenant].push_back(std::move(line));
  } else {
    line.submit();
  }
}

bool TextProtocol::Handle(const std::string& line, Done done) {
  std::istringstream in(line);
  std::string command;
  if (!(in >> command) || command[0] == '#') {
    done("");  // blank/comment: nothing to print, but the slot resolves
    return true;
  }

  if (command == "QUIT") {
    done("OK bye");
    return false;
  }
  if (command == "TENANTS") {
    if (!list_tenants_) {
      done("ERR TENANTS is not available over this transport");
    } else {
      std::string reply = "OK";
      for (const std::string& name : list_tenants_()) reply += ' ' + name;
      done(std::move(reply));
    }
    return true;
  }
  if (command == "METRICS") {
    // Tenant-less: one multi-line reply (the Prometheus scrape, ending
    // with its "# EOF" marker) — identical bytes on every transport.
    SubmitMany(
        {serve::MetricsRequest{}},
        [](auto& responses) -> std::string {
          if (!responses[0].ok()) return ErrLine(responses[0].status);
          const serve::MetricsText* metrics = responses[0].metrics();
          if (metrics == nullptr) {
            return ErrLine(Status::Internal("Metrics returned no payload"));
          }
          std::string text = metrics->text;
          // The transport appends the line terminator.
          while (!text.empty() && text.back() == '\n') text.pop_back();
          return text;
        },
        std::move(done));
    return true;
  }
  if (command == "SLOWLOG") {
    serve::SlowLogRequest request;
    in >> request.limit;  // optional; 0 (absent) dumps everything
    SubmitMany(
        {request},
        [](auto& responses) -> std::string {
          if (!responses[0].ok()) return ErrLine(responses[0].status);
          const serve::SlowLogDump* dump = responses[0].slow_log();
          if (dump == nullptr) {
            return ErrLine(Status::Internal("SlowLog returned no payload"));
          }
          std::ostringstream out;
          char threshold[32];
          std::snprintf(threshold, sizeof(threshold), "%.3f",
                        dump->threshold_ms);
          out << "OK slowlog entries=" << dump->records.size()
              << " dropped=" << dump->dropped
              << " threshold_ms=" << threshold;
          for (const obs::SlowRequestRecord& record : dump->records) {
            out << '\n' << obs::FormatSlowRecord(record);
          }
          return out.str();
        },
        std::move(done));
    return true;
  }

  std::string tenant;
  if (!(in >> tenant)) {
    done("ERR usage: " + command + " <tenant> ...");
    return true;
  }

  auto ack = [this, &done](serve::ServeRequest request,
                           std::string ok_line) {
    std::vector<serve::ServeRequest> requests;
    requests.push_back(std::move(request));
    SubmitMany(std::move(requests),
               [ok_line = std::move(ok_line)](auto& responses) {
                 return responses[0].ok() ? ok_line
                                          : ErrLine(responses[0].status);
               },
               std::move(done));
  };

  if (command == "CREATE") {
    serve::CreateTenantRequest create{tenant, SearchLog(), std::nullopt};
    // Optional stream configuration:
    //   CREATE <tenant> [<max_eps> <max_delta> <floor> <basic|advanced>
    //                    [<sliding|tumbling> <span_secs>]]
    std::string composition;
    if (in >> create.budget.max_epsilon >> create.budget.max_delta >>
        create.budget.min_remaining_epsilon >> composition) {
      Result<stream::Composition> mode =
          stream::CompositionFromString(composition);
      if (!mode.ok()) {
        done(ErrLine(mode.status()));
        return true;
      }
      create.budget.composition = *mode;
      std::string kind;
      if (in >> kind >> create.window.span) {
        Result<stream::WindowKind> window_kind =
            stream::WindowKindFromString(kind);
        if (!window_kind.ok()) {
          done(ErrLine(window_kind.status()));
          return true;
        }
        create.window.kind = *window_kind;
      }
    }
    ack(std::move(create), "OK created " + tenant);
  } else if (command == "REMOVE") {
    std::vector<std::string> users;
    std::string user;
    while (in >> user) users.push_back(std::move(user));
    if (users.empty()) {
      done("ERR usage: REMOVE <tenant> <user...>");
    } else {
      SubmitMany({serve::RemoveUsersRequest{tenant, std::move(users)},
                  serve::StatsRequest{tenant}},
                 FormatRemoval, std::move(done));
    }
  } else if (command == "EXPIRE") {
    uint64_t cutoff = 0;
    if (!(in >> cutoff)) {
      done("ERR usage: EXPIRE <tenant> <cutoff_secs>");
    } else {
      SubmitMany({serve::ExpireWindowRequest{tenant, cutoff},
                  serve::StatsRequest{tenant}},
                 FormatRemoval, std::move(done));
    }
  } else if (command == "BUDGET") {
    SubmitMany(
        {serve::BudgetStatusRequest{tenant}},
        [](auto& responses) -> std::string {
          if (!responses[0].ok()) return ErrLine(responses[0].status);
          const serve::BudgetStatus* budget = responses[0].budget();
          if (budget == nullptr) {
            return ErrLine(
                Status::Internal("BudgetStatus returned no payload"));
          }
          std::ostringstream out;
          out << "OK enforced=" << (budget->enforced ? 1 : 0)
              << " composition=" << budget->composition
              << " max_epsilon=" << budget->max_epsilon
              << " spent_epsilon=" << budget->spent_epsilon
              << " remaining_epsilon=" << budget->remaining_epsilon
              << " spent_delta=" << budget->spent_delta
              << " floor=" << budget->min_remaining_epsilon
              << " allocations=" << budget->allocations
              << " refusals=" << budget->refusals;
          return out.str();
        },
        std::move(done));
  } else if (command == "GEN") {
    uint64_t users = 0, events = 0, seed = 0;
    if (!(in >> users >> events >> seed)) {
      done("ERR usage: GEN <tenant> <users> <events> <seed>");
    } else if (users == 0 || users > kMaxGenUsers ||
               events > kMaxGenEvents) {
      // A count like "-1" parses as 2^64-1; reject it here instead of
      // letting the generator throw and kill the whole pipeline.
      done("ERR GEN counts out of range (users 1.." +
           std::to_string(kMaxGenUsers) + ", events 0.." +
           std::to_string(kMaxGenEvents) + ")");
    } else {
      SyntheticLogConfig config = TinyConfig();
      config.num_users = users;
      config.num_events = events;
      config.seed = seed;
      // Sharded over the backend's pool when one is available (nullptr =
      // serial) — bit-identical to the serial path for the given seed.
      Result<SearchLog> log = GenerateSearchLog(config, gen_pool_);
      if (!log.ok()) {
        done(ErrLine(log.status()));
      } else {
        std::string ok_line =
            "OK queued users=" + std::to_string(log->num_users()) +
            " clicks=" + std::to_string(log->total_clicks());
        ack(serve::AppendRequest{tenant, std::move(*log)},
            std::move(ok_line));
      }
    }
  } else if (command == "APPEND") {
    std::string user, query, url;
    uint64_t count = 0;
    if (!(in >> user >> query >> url >> count) || count == 0) {
      done("ERR usage: APPEND <tenant> <user> <query> <url> <count>");
    } else {
      SearchLogBuilder builder;
      builder.Add(user, query, url, count);
      ack(serve::AppendRequest{tenant, builder.Build()},
          "OK queued 1 tuple");
    }
  } else if (command == "FLUSH") {
    // Flush + Stats on the same tenant queue: the stats snapshot is
    // guaranteed to reflect the finished flush.
    SubmitMany(
        {serve::FlushRequest{tenant}, serve::StatsRequest{tenant}},
        [](auto& responses) -> std::string {
          if (!responses[0].ok()) return ErrLine(responses[0].status);
          if (!responses[1].ok()) return ErrLine(responses[1].status);
          const serve::TenantStats& stats = *responses[1].stats();
          std::ostringstream out;
          out << "OK flushes=" << stats.flushes
              << " coalesced=" << stats.appends_coalesced
              << " rows_copied=" << stats.rows_copied
              << " rows_rebuilt=" << stats.rows_rebuilt;
          return out.str();
        },
        std::move(done));
  } else if (command == "SOLVE") {
    std::string objective_token;
    double e_eps = 0.0, delta = 0.0;
    if (!(in >> objective_token >> e_eps >> delta)) {
      done("ERR usage: SOLVE <tenant> <OUMP|FUMP|DUMP> <e_eps> <delta> "
           "[output_size]");
    } else if (auto objective = ParseObjective(objective_token);
               !objective.has_value()) {
      done("ERR unknown objective: " + objective_token);
    } else {
      UmpQuery query;
      query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
      in >> query.output_size;  // optional; stays 0 when absent
      // Stats before + solve + stats after, all FIFO on the tenant
      // queue: `cached=` is exact even mid-pipeline.
      SubmitMany(
          {serve::StatsRequest{tenant},
           serve::SolveRequest{tenant, *objective, query},
           serve::StatsRequest{tenant}},
          [](auto& responses) -> std::string {
            if (!responses[1].ok()) return ErrLine(responses[1].status);
            const UmpSolution& solution = *responses[1].solution();
            const uint64_t hits_before =
                responses[0].ok() ? responses[0].stats()->cache_hits : 0;
            const uint64_t hits_after =
                responses[2].ok() ? responses[2].stats()->cache_hits : 0;
            std::ostringstream out;
            out << "OK objective=" << solution.objective_value
                << " output_size=" << solution.output_size
                << " warm=" << (solution.stats.warm_started ? 1 : 0)
                << " cached=" << (hits_after > hits_before ? 1 : 0)
                << " root_iterations=" << solution.stats.root_iterations;
            return out.str();
          },
          std::move(done));
    }
  } else if (command == "SWEEP") {
    std::string objective_token;
    double delta = 0.0;
    if (!(in >> objective_token >> delta)) {
      done("ERR usage: SWEEP <tenant> <OUMP|FUMP|DUMP> <delta> "
           "<e_eps...>");
    } else if (auto objective = ParseObjective(objective_token);
               !objective.has_value()) {
      done("ERR unknown objective: " + objective_token);
    } else {
      std::vector<UmpQuery> grid;
      double e_eps = 0.0;
      while (in >> e_eps) {
        UmpQuery query;
        query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
        grid.push_back(query);
      }
      if (grid.empty()) {
        done("ERR SWEEP needs at least one e_eps value");
      } else {
        SubmitMany(
            {serve::SweepRequest{tenant, *objective, std::move(grid),
                                 SweepOptions{}}},
            [](auto& responses) -> std::string {
              if (!responses[0].ok()) return ErrLine(responses[0].status);
              const SweepResult& sweep = *responses[0].sweep();
              std::ostringstream out;
              out << "OK cells=" << sweep.cells.size()
                  << " warm_solves=" << sweep.warm_solves
                  << " simplex_iterations="
                  << sweep.total_simplex_iterations << " objectives=";
              for (size_t i = 0; i < sweep.cells.size(); ++i) {
                out << (i > 0 ? "," : "") << sweep.cells[i].objective_value;
              }
              return out.str();
            },
            std::move(done));
      }
    }
  } else if (command == "SNAPSHOT") {
    std::string path;
    if (!(in >> path)) {
      done("ERR usage: SNAPSHOT <tenant> <path>");
    } else {
      ack(serve::SaveSnapshotRequest{tenant, path}, "OK wrote " + path);
    }
  } else if (command == "RESTORE") {
    std::string path;
    if (!(in >> path)) {
      done("ERR usage: RESTORE <tenant> <path>");
    } else {
      ack(serve::RestoreTenantRequest{tenant, path, std::nullopt},
          "OK restored " + tenant);
    }
  } else if (command == "DROP") {
    ack(serve::DropTenantRequest{tenant}, "OK dropped " + tenant);
  } else if (command == "STATS") {
    SubmitMany(
        {serve::StatsRequest{tenant}},
        [](auto& responses) -> std::string {
          if (!responses[0].ok()) return ErrLine(responses[0].status);
          return FormatStats(*responses[0].stats());
        },
        std::move(done));
  } else {
    done("ERR unknown command: " + command);
  }
  return true;
}

}  // namespace net
}  // namespace privsan
