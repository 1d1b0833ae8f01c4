// serve_stream: an operator's live tenant over the wire. A
// SanitizerService (2 workers, maintenance timer off) behind an in-process
// NetServer on loopback, one NetClient connection in a closed loop: with
// the server's event loop that is four threads. The tenant starts on a
// 400-user window of a larger seeded log, under an advanced-composition
// accountant, primed cold in set-up. Each tick appends new users, removes
// as many of the oldest, solves at the standing budget, probes other
// budgets (the first ask misses the flushed cache, repeats hit it) and
// reads BUDGET and STATS.
//
// A traced run replays the first ticks over the wire with spans, through
// in-process Submit, and on a bare session, so the serve and net figures
// are differences between entry points; the service's own stage records
// (SlowLog at a zero threshold) split the wire pass into layers.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/server.h"
#include "serve/service.h"
#include "verify.h"
#include "workloads.h"

namespace perfbench {

using namespace privsan;
using serve::ServeRequest;
using serve::ServeResponse;

namespace {

constexpr char kTenant[] = "stream";

enum OpClass { kAppend, kRemove, kStanding, kMiss, kHit, kBudget, kStats };
const char* const kOpNames[] = {"append", "remove", "standing", "miss",
                                "hit",    "budget", "stats"};

struct Op {
  OpClass op;
  size_t probe = 0;  // index into ProbeQueries() for kMiss / kHit
  ServeRequest request;
};

// The seeded request sequence, identical on every entry point.
struct Script {
  SearchLog source;
  SearchLog initial;                  // the tenant's first window
  std::vector<std::vector<Op>> ticks;
  std::vector<SearchLog> appended;    // per tick
  std::vector<std::vector<std::string>> removed;  // per tick
  UserId final_first = 0, final_end = 0;  // the last window, in `source`
};

ServeRequest SolveRequestFor(const UmpQuery& query) {
  return serve::SolveRequest{kTenant, UtilityObjective::kOutputSize, query};
}

Result<Script> MakeScript(uint64_t seed, size_t ticks) {
  Script script;
  PRIVSAN_ASSIGN_OR_RETURN(script.source,
                           GenerateSearchLog(StreamConfig(LogSeed(seed, 0))));
  UserId first = 0, end = kStreamWindowUsers;
  script.initial = UserSlice(script.source, first, end);
  const std::vector<UmpQuery> probes = ProbeQueries();
  for (size_t t = 0; t < ticks; ++t) {
    const UserId batch = static_cast<UserId>(TickBatch(t));
    if (end + batch > script.source.num_users()) {
      return Status::OutOfRange("stream log too short for the tick plan");
    }
    std::vector<std::string> retired;
    for (UserId u = first; u < first + batch; ++u) {
      retired.push_back(script.source.user_name(u));
    }
    script.appended.push_back(UserSlice(script.source, end, end + batch));
    script.removed.push_back(retired);
    std::vector<Op> ops;
    ops.push_back({kAppend, 0,
                   serve::AppendRequest{kTenant, script.appended.back()}});
    ops.push_back({kRemove, 0, serve::RemoveUsersRequest{kTenant, retired}});
    ops.push_back({kStanding, 0, SolveRequestFor(StandingQuery())});
    for (int round = 0; round < kProbeRepeats; ++round) {
      for (size_t p = 0; p < probes.size(); ++p) {
        ops.push_back({round == 0 ? kMiss : kHit, p,
                       SolveRequestFor(probes[p])});
      }
    }
    ops.push_back({kBudget, 0, serve::BudgetStatusRequest{kTenant}});
    ops.push_back({kStats, 0, serve::StatsRequest{kTenant}});
    script.ticks.push_back(std::move(ops));
    first += batch;
    end += batch;
  }
  script.final_first = first;
  script.final_end = end;
  return script;
}

serve::ServiceOptions StreamServiceOptions() {
  serve::ServiceOptions options;
  options.num_threads = 2;
  options.maintenance_interval_ms = 0;
  options.session = SessionDefaults();
  // Record every request, in a ring that holds the whole run, so the
  // stage records can be read back per request.
  options.slow_request_threshold_ms = 0;
  options.slow_log_capacity = 1 << 14;
  return options;
}

// One service, optionally behind a loopback NetServer with one client
// connection; created, primed and torn down as a unit.
class Stack {
 public:
  // Starts the service (and server + connection when `wire`), creates the
  // tenant on `initial` and primes it with one cold standing solve.
  static Result<std::unique_ptr<Stack>> Start(const SearchLog& initial,
                                              bool wire) {
    std::unique_ptr<Stack> stack(new Stack());
    stack->service_ =
        std::make_unique<serve::SanitizerService>(StreamServiceOptions());
    if (wire) {
      stack->server_ = std::make_unique<net::NetServer>(stack->service_.get());
      PRIVSAN_RETURN_IF_ERROR(stack->server_->Start());
      // A server that stops serving shows as failed client calls.
      net::NetServer* server = stack->server_.get();
      stack->loop_ = std::thread([server] { (void)server->Serve(); });
      PRIVSAN_ASSIGN_OR_RETURN(stack->client_,
                               net::NetClient::Connect(stack->server_->port()));
    }
    serve::CreateTenantRequest create;
    create.tenant = kTenant;
    create.initial = initial;
    create.budget.max_epsilon = 1e4;  // enforced, never reached
    create.budget.composition = stream::Composition::kAdvanced;
    PRIVSAN_RETURN_IF_ERROR(stack->Call(create).status);
    PRIVSAN_RETURN_IF_ERROR(
        stack->Call(SolveRequestFor(StandingQuery())).status);
    return stack;
  }

  ~Stack() {
    client_.Close();
    if (loop_.joinable()) {
      server_->Shutdown();
      loop_.join();
    }
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  ServeResponse Call(const ServeRequest& request) {
    if (server_ == nullptr) return service_->Submit(request).get();
    Result<ServeResponse> response = client_.Call(request);
    if (!response.ok()) return {response.status(), {}};
    return std::move(*response);
  }

  serve::SanitizerService& service() { return *service_; }

 private:
  Stack() = default;

  std::unique_ptr<serve::SanitizerService> service_;
  std::unique_ptr<net::NetServer> server_;
  std::thread loop_;
  net::NetClient client_;
};

struct Reply {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int span = -1;  // the op's client span in a traced pass
  ServeResponse response;
};

struct PassRun {
  std::vector<std::vector<Reply>> replies;  // [tick][op]
  std::vector<double> tick_ms;  // APPEND sent -> standing SOLVE answered
  std::vector<int64_t> tick_ns;  // whole tick, probes and reads included
  int64_t pass_ns = 0;
};

// A traced run replays the first two batch cycles only (with spans over
// the wire, through in-process Submit, and solved on a bare session), so
// it stays well inside the run deadline on a slow box.
constexpr size_t kCompareTicks = 16;

// Runs the first `ticks` ticks of the script through `stack`, one request
// in flight at a time. With `tracer` enabled each tick is a "bench.tick"
// root and each request a `layer`.<op> span.
PassRun RunPass(Stack& stack, const Script& script, size_t ticks,
                Tracer& tracer, const char* layer) {
  PassRun run;
  const int64_t pass_start = NowNs();
  for (size_t t = 0; t < ticks; ++t) {
    Tracer::Scope root(tracer, "bench.tick", t);
    std::vector<Reply> replies;
    const int64_t tick_start = NowNs();
    for (const Op& op : script.ticks[t]) {
      Reply reply;
      {
        Tracer::Scope span(tracer,
                           tracer.enabled()
                               ? std::string(layer) + "." + kOpNames[op.op]
                               : std::string(),
                           t);
        reply.span = span.id();
        reply.start_ns = NowNs();
        const Status late = CheckRunDeadline();
        reply.response =
            late.ok() ? stack.Call(op.request) : ServeResponse{late, {}};
        reply.end_ns = NowNs();
      }
      if (op.op == kStanding) {
        run.tick_ms.push_back(ToMs(reply.end_ns - tick_start));
      }
      replies.push_back(std::move(reply));
    }
    run.tick_ns.push_back(NowNs() - tick_start);
    run.replies.push_back(std::move(replies));
  }
  run.pass_ns = NowNs() - pass_start;
  return run;
}

// Nests the service's stage records under the client spans of a traced
// wire pass. A record carries durations, not timestamps: the server span
// is centred in its client span and its stages laid end to end from its
// start, so self times are exact while positions inside a client span are
// nominal. Solve time of a RemoveUsers request is the session's removal.
bool AddServerSpans(Tracer& tracer, const Script& script, const PassRun& run,
                    const std::vector<obs::SlowRequestRecord>& records) {
  static const char* const kVerbs[] = {"Append", "RemoveUsers", "Solve",
                                       "Solve",  "Solve",       "BudgetStatus",
                                       "Stats"};
  size_t next = 2;  // CreateTenant and the priming solve come first
  for (size_t t = 0; t < run.replies.size(); ++t) {
    for (size_t k = 0; k < script.ticks[t].size(); ++k) {
      const Op& op = script.ticks[t][k];
      const Reply& reply = run.replies[t][k];
      if (next >= records.size() || records[next].verb != kVerbs[op.op]) {
        return false;
      }
      const obs::SlowRequestRecord& record = records[next++];
      const int64_t client_ns = reply.end_ns - reply.start_ns;
      auto ns = [](double ms) { return static_cast<int64_t>(ms * 1e6); };
      const int64_t total = std::min(ns(record.total_ms), client_ns);
      const int64_t start = reply.start_ns + (client_ns - total) / 2;
      const int server =
          tracer.Add("serve.request", start, start + total, reply.span, t);
      int64_t at = start;
      auto stage = [&](const char* name, double ms) {
        const int64_t length = std::min(ns(ms), start + total - at);
        if (length <= 0) return;
        tracer.Add(name, at, at + length, server, t);
        at += length;
      };
      stage("serve.queue", record.trace.queue_ms);
      stage("core.flush", record.trace.flush_ms);
      stage("serve.cache", record.trace.cache_ms);
      stage(op.op == kRemove ? "core.remove" : "lp.solve",
            record.trace.solve_ms);
    }
  }
  return next == records.size();
}

// What the bare-session replay saw at one tick.
struct BareTick {
  const SearchLog* log = nullptr;  // the session's log after the removal
  std::vector<double> objectives;  // standing, then one per probe (traced)
};

// Replays the script's appends and removals on a bare SanitizerSession,
// plus the service's uncached solves in the first `solve_ticks` ticks,
// calling on_tick(t, tick) after each tick.
template <typename OnTick>
Status RunBare(const Script& script, size_t solve_ticks, Tracer& tracer,
               AppendStats* append_total, OnTick on_tick) {
  PRIVSAN_ASSIGN_OR_RETURN(
      SanitizerSession session,
      SanitizerSession::Create(script.initial, SessionDefaults()));
  const std::vector<UmpQuery> probes = ProbeQueries();
  if (solve_ticks > 0) {
    PRIVSAN_RETURN_IF_ERROR(
        session.Solve(UtilityObjective::kOutputSize, StandingQuery()).status());
  }
  for (size_t t = 0; t < script.ticks.size(); ++t) {
    PRIVSAN_RETURN_IF_ERROR(CheckRunDeadline());
    Tracer::Scope root(tracer, "bench.tick", t);
    // The service lands a queued append as one coalesced batch.
    SearchLogBuilder builder;
    builder.AddAll(script.appended[t]);
    const SearchLog batch = builder.Build();
    PRIVSAN_RETURN_IF_ERROR(InSpan(tracer, "core.append", t, [&] {
      return session.AppendUsers(batch);
    }));
    append_total->rows_copied += session.last_append_stats().rows_copied;
    append_total->rows_rebuilt += session.last_append_stats().rows_rebuilt;
    PRIVSAN_RETURN_IF_ERROR(InSpan(tracer, "core.remove", t, [&] {
      return session.RemoveUsers(script.removed[t]);
    }));
    append_total->rows_copied += session.last_remove_stats().rows_copied;
    append_total->rows_rebuilt += session.last_remove_stats().rows_rebuilt;
    BareTick tick;
    tick.log = &session.log();
    if (t < solve_ticks) {
      PRIVSAN_ASSIGN_OR_RETURN(
          UmpSolution standing, InSpan(tracer, "lp.repair", t, [&] {
            return session.Solve(UtilityObjective::kOutputSize, StandingQuery());
          }));
      tick.objectives.push_back(standing.objective_value);
      for (const UmpQuery& probe : probes) {
        PRIVSAN_ASSIGN_OR_RETURN(
            UmpSolution answer, InSpan(tracer, "lp.probe", t, [&] {
              return session.Solve(UtilityObjective::kOutputSize, probe);
            }));
        tick.objectives.push_back(answer.objective_value);
      }
    }
    on_tick(t, tick);
  }
  return Status::OK();
}

// Checks every reply of one pass at tick t against the bare session's log
// (and its objectives, when it solved). Returns the standing answer's
// λ/|D|, or -1 when it did not verify.
double VerifyTick(const Script& script, const std::vector<Reply>& replies,
                  size_t t, const BareTick& bare, DpConstraintSystem* rows,
                  const char* pass, Ledger* ledger) {
  const size_t num_probes = ProbeQueries().size();
  const uint64_t charged = 1 + (t + 1) * (1 + num_probes);
  const uint64_t hits = (t + 1) * num_probes * (kProbeRepeats - 1);
  std::vector<const UmpSolution*> misses(num_probes, nullptr);
  double utility = -1.0;
  for (size_t k = 0; k < replies.size(); ++k) {
    const Op& op = script.ticks[t][k];
    const ServeResponse& response = replies[k].response;
    std::string why = response.status.ToString();
    bool ok = response.ok();
    if (ok && (op.op == kStanding || op.op == kMiss || op.op == kHit)) {
      const UmpSolution* solution = response.solution();
      const UmpQuery& query = std::get<serve::SolveRequest>(op.request).query;
      ok = solution != nullptr &&
           CountsSatisfyPrivacy(*bare.log, rows, query.privacy, solution->x,
                                &why);
      const size_t slot = op.op == kStanding ? 0 : 1 + op.probe;
      if (ok && op.op != kHit && slot < bare.objectives.size() &&
          !SameObjective(solution->objective_value, bare.objectives[slot])) {
        ok = false;
        why = "objective differs from the bare session's";
      }
      if (ok && op.op == kMiss) misses[op.probe] = solution;
      if (ok && op.op == kHit &&
          (misses[op.probe] == nullptr || misses[op.probe]->x != solution->x)) {
        ok = false;
        why = "cache hit differs from the answer it caches";
      }
      if (ok && op.op == kStanding) {
        utility = static_cast<double>(solution->output_size) /
                  static_cast<double>(bare.log->total_clicks());
      }
    } else if (ok && op.op == kBudget) {
      const serve::BudgetStatus* budget = response.budget();
      ok = budget != nullptr && budget->allocations == charged &&
           budget->refusals == 0;
      why = "accountant allocations differ from the uncached solves";
    } else if (ok && op.op == kStats) {
      const serve::TenantStats* stats = response.stats();
      ok = stats != nullptr && stats->cache_misses == charged &&
           stats->cache_hits == hits && stats->flushes == t + 1 &&
           stats->appends_coalesced == t + 1 && stats->budget_refusals == 0;
      why = "tenant stats differ from the script";
    }
    ledger->Op(ok, std::string(pass) + " tick " + std::to_string(t) + " " +
                       kOpNames[op.op] + ": " + why);
  }
  return utility;
}

struct ClassLatencies {
  std::vector<double> ms[7];
};

// Request latencies of the first `ticks` ticks of a pass, per class.
ClassLatencies LatenciesOf(const Script& script, const PassRun& run,
                           size_t ticks) {
  ClassLatencies latencies;
  for (size_t t = 0; t < ticks; ++t) {
    for (size_t k = 0; k < run.replies[t].size(); ++k) {
      const Reply& reply = run.replies[t][k];
      latencies.ms[script.ticks[t][k].op].push_back(
          ToMs(reply.end_ns - reply.start_ns));
    }
  }
  return latencies;
}

}  // namespace

Result<Outcome> RunServeStream(const RunConfig& config) {
  RunClockStart();
  Outcome outcome;
  Ledger ledger(&outcome);
  PRIVSAN_ASSIGN_OR_RETURN(const Script script,
                           MakeScript(config.seed, config.plan.ticks));

  // Set-up: service, loopback server, connection, tenant and the priming
  // cold solve, repeated; the last stack serves the timed pass.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  const int repeats = config.trace ? 1 : config.plan.setup_repeats;
  for (int r = 0; r < repeats; ++r) {
    stack.reset();
    const int64_t start = NowNs();
    PRIVSAN_ASSIGN_OR_RETURN(stack, Stack::Start(script.initial, true));
    setup_s.push_back(ToSeconds(NowNs() - start));
  }
  Tracer off(false);
  const size_t ticks = script.ticks.size();
  const PassRun wire = RunPass(*stack, script, ticks, off, "net");
  stack.reset();

  // Traced passes: over the wire with spans, then through in-process
  // Submit.
  Tracer wire_tracer(config.trace), submit_tracer(config.trace),
      bare_tracer(config.trace);
  PassRun traced, submit;
  if (config.trace) {
    PRIVSAN_ASSIGN_OR_RETURN(stack, Stack::Start(script.initial, true));
    traced = RunPass(*stack, script, std::min(ticks, kCompareTicks),
                     wire_tracer, "net");
    ledger.Check(AddServerSpans(wire_tracer, script, traced,
                                stack->service().SlowLog()),
                 "stage records do not match the wire pass's requests");
    stack.reset();
    PRIVSAN_ASSIGN_OR_RETURN(stack, Stack::Start(script.initial, false));
    submit = RunPass(*stack, script, std::min(ticks, kCompareTicks),
                     submit_tracer, "serve");
    stack.reset();
  }

  // Bare-session replay: the reference log of every tick for the audits,
  // and (traced) the session-level timings and objectives.
  AppendStats rows_total;
  double utility = 0.0;
  Status bare = RunBare(
      script, config.trace ? submit.replies.size() : 0, bare_tracer,
      &rows_total,
      [&](size_t t, const BareTick& tick) {
        Result<DpConstraintSystem> rows =
            DpConstraintSystem::BuildRows(*tick.log);
        if (!ledger.Check(rows.ok(), "rows of tick " + std::to_string(t))) {
          return;
        }
        utility += std::max(0.0, VerifyTick(script, wire.replies[t], t, tick,
                                            &*rows, "wire", &ledger));
        if (t < traced.replies.size()) {
          VerifyTick(script, traced.replies[t], t, tick, &*rows, "traced",
                     &ledger);
          VerifyTick(script, submit.replies[t], t, tick, &*rows, "submit",
                     &ledger);
        }
      });
  ledger.Check(bare.ok(), "bare replay: " + bare.ToString());
  outcome.metrics["utility"] =
      utility / static_cast<double>(script.ticks.size());

  // The final window, rebuilt as a fresh session over the surviving users,
  // must answer the standing budget as the tenant last did.
  {
    Result<SanitizerSession> fresh = SanitizerSession::Create(
        UserSlice(script.source, script.final_first, script.final_end),
        SessionDefaults());
    const Result<UmpSolution> cold =
        fresh.ok() ? fresh->Solve(UtilityObjective::kOutputSize, StandingQuery())
                   : Result<UmpSolution>(fresh.status());
    const UmpSolution* last = wire.replies.back()[2].response.solution();
    ledger.Op(cold.ok() && last != nullptr &&
                  SameObjective(cold->objective_value, last->objective_value),
              "final window: fresh cold solve differs from the tenant's");
  }

  if (!config.trace) {
    outcome.metrics["setup_s"] = Median(setup_s);
    outcome.metrics["pass_s"] = ToSeconds(wire.pass_ns);
    outcome.metrics["peak_rss_mb"] = PeakRssMb();
    outcome.metrics["ok_ratio"] = outcome.ok_ratio();
    return outcome;
  }

  // Entry-point differences over the replayed ticks: wire vs in-process
  // Submit per request class, Submit vs bare session per tick.
  const size_t compared = submit.replies.size();
  int64_t untraced_ns = 0;
  for (size_t t = 0; t < compared; ++t) untraced_ns += wire.tick_ns[t];
  ReportTracedPass(wire_tracer.spans(), untraced_ns, &outcome, &ledger);
  ReportAnswers(wire.tick_ms, &outcome);

  const ClassLatencies wire_ms = LatenciesOf(script, wire, compared);
  const ClassLatencies submit_ms = LatenciesOf(script, submit, compared);
  std::map<std::string, std::vector<double>> bare_ms =
      SpanMsByName(bare_tracer.spans());
  std::vector<double> bare_tick_ms;
  for (size_t t = 0; t < std::min(compared, bare_ms["lp.repair"].size());
       ++t) {
    bare_tick_ms.push_back(bare_ms["core.append"][t] +
                           bare_ms["core.remove"][t] +
                           bare_ms["lp.repair"][t]);
  }
  const std::vector<double> wire_tick_ms(wire.tick_ms.begin(),
                                         wire.tick_ms.begin() + compared);
  outcome.metrics["serve.overhead_ms"] =
      Median(submit.tick_ms) - Median(bare_tick_ms);
  outcome.metrics["net.overhead_ms.tick"] =
      Median(wire_tick_ms) - Median(submit.tick_ms);
  const std::pair<const char*, OpClass> classes[] = {
      {"net.overhead_ms.miss", kMiss},
      {"net.overhead_ms.hit", kHit},
      {"net.overhead_ms.budget", kBudget},
      {"net.overhead_ms.stats", kStats}};
  for (const auto& [name, op] : classes) {
    outcome.metrics[name] = Median(wire_ms.ms[op]) - Median(submit_ms.ms[op]);
  }
  outcome.metrics["net.read_ms"] =
      Median(LatenciesOf(script, wire, ticks).ms[kHit]);

  // Codec on the pass's own replies: frame bytes per class, and the
  // encode/decode cost per reply.
  double bytes[7] = {}, counts[7] = {};
  int64_t encode_ns = 0, decode_ns = 0, replies = 0;
  for (size_t t = 0; t < wire.replies.size(); ++t) {
    for (size_t k = 0; k < wire.replies[t].size(); ++k) {
      const OpClass op = script.ticks[t][k].op;
      const int64_t t0 = NowNs();
      const net::Frame frame = net::EncodeResponse(wire.replies[t][k].response, k);
      const int64_t t1 = NowNs();
      const bool decoded = net::DecodeResponse(frame).ok();
      decode_ns += NowNs() - t1;
      encode_ns += t1 - t0;
      ++replies;
      ledger.Op(decoded, "reply " + std::to_string(t) + "/" +
                             std::to_string(k) + " does not decode");
      const OpClass cls = (op == kMiss || op == kHit) ? kStanding : op;
      bytes[cls] += static_cast<double>(net::EncodeFrame(frame).size());
      counts[cls] += 1;
    }
  }
  const std::pair<const char*, OpClass> byte_classes[] = {
      {"net.reply_bytes.append", kAppend},
      {"net.reply_bytes.remove", kRemove},
      {"net.reply_bytes.solve", kStanding},
      {"net.reply_bytes.budget", kBudget},
      {"net.reply_bytes.stats", kStats}};
  for (const auto& [name, op] : byte_classes) {
    outcome.metrics[name] = counts[op] == 0 ? 0.0 : bytes[op] / counts[op];
  }
  outcome.metrics["net.encode_us"] =
      static_cast<double>(encode_ns) * 1e-3 / static_cast<double>(replies);
  outcome.metrics["net.decode_us"] =
      static_cast<double>(decode_ns) * 1e-3 / static_cast<double>(replies);

  // The service's own stage records of the traced wire pass.
  std::vector<double> queue_ms, flush_ms, solve_ms, cache_ms;
  for (const Span& span : wire_tracer.spans()) {
    const double ms = ToMs(span.end_ns - span.start_ns);
    if (span.name == "serve.queue") queue_ms.push_back(ms);
    if (span.name == "core.flush") flush_ms.push_back(ms);
    if (span.name == "lp.solve") solve_ms.push_back(ms);
    if (span.name == "serve.cache") cache_ms.push_back(ms);
  }
  outcome.metrics["serve.queue_ms"] = Median(queue_ms);
  outcome.metrics["serve.flush_ms"] = Median(flush_ms);
  outcome.metrics["serve.solve_ms"] = Median(solve_ms);
  outcome.metrics["serve.cache_ms"] = Median(cache_ms);

  // Counters from the replies, the session stats and the last BUDGET and
  // STATS of the untraced pass.
  int64_t repair_iterations = 0, warm = 0, aborted = 0;
  for (const std::vector<Reply>& tick : wire.replies) {
    const UmpSolution* standing = tick[2].response.solution();
    if (standing == nullptr) continue;
    repair_iterations += standing->stats.dual_iterations;
    warm += standing->stats.warm_started ? 1 : 0;
    aborted += standing->stats.repair_aborted;
  }
  outcome.metrics["lp.repair_ms"] = Median(bare_ms["lp.repair"]);
  outcome.metrics["lp.repair_iterations"] =
      static_cast<double>(repair_iterations);
  outcome.metrics["lp.repair_solves"] = static_cast<double>(ticks);
  outcome.metrics["lp.warm_started_ratio"] =
      static_cast<double>(warm) / static_cast<double>(ticks);
  outcome.metrics["lp.repair_aborted"] = static_cast<double>(aborted);
  outcome.metrics["core.append_ms"] = Median(bare_ms["core.append"]);
  outcome.metrics["core.remove_ms"] = Median(bare_ms["core.remove"]);
  const double patched =
      static_cast<double>(rows_total.rows_copied + rows_total.rows_rebuilt);
  outcome.metrics["core.rows_patched"] = patched;
  outcome.metrics["core.rows_copied_ratio"] =
      patched == 0 ? 0.0
                   : static_cast<double>(rows_total.rows_copied) / patched;
  const std::vector<Reply>& last = wire.replies.back();
  if (const serve::TenantStats* stats = last.back().response.stats()) {
    const double lookups =
        static_cast<double>(stats->cache_hits + stats->cache_misses);
    outcome.metrics["serve.flushes"] = static_cast<double>(stats->flushes);
    outcome.metrics["serve.coalesced_per_flush"] =
        stats->flushes == 0 ? 0.0
                            : static_cast<double>(stats->appends_coalesced) /
                                  static_cast<double>(stats->flushes);
    outcome.metrics["serve.cache_lookups"] = lookups;
    outcome.metrics["serve.cache_hit_ratio"] =
        lookups == 0 ? 0.0 : static_cast<double>(stats->cache_hits) / lookups;
  }
  if (const serve::BudgetStatus* budget = last[last.size() - 2].response.budget()) {
    outcome.metrics["stream.allocations"] =
        static_cast<double>(budget->allocations);
    outcome.metrics["stream.spent_epsilon"] = budget->spent_epsilon;
    outcome.metrics["stream.refusals"] = static_cast<double>(budget->refusals);
  }
  outcome.metrics["ok_ratio"] = outcome.ok_ratio();

  outcome.spans = wire_tracer.spans();
  for (const Tracer* tracer : {&submit_tracer, &bare_tracer}) {
    const int offset = static_cast<int>(outcome.spans.size());
    for (Span span : tracer->spans()) {
      if (span.parent >= 0) span.parent += offset;
      outcome.spans.push_back(std::move(span));
    }
  }
  return outcome;
}

}  // namespace perfbench
