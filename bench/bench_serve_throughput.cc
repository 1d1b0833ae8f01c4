// Serve-path throughput: what the SanitizerService layer buys over naive
// re-solving.
//
// Part 1 — append-flush latency. A publisher receiving K append batches
// can (a) cold re-solve after every batch — rebuild preprocessing, DP rows
// and the LP from scratch each time (a fresh SanitizerSession per batch) — or
// (b) enqueue all K batches in the service and let one flush coalesce them
// into a single re-preprocess + DP-row rebuild + basis remap, then solve
// warm. Same final state, one warm solve instead of K cold ones.
//
// Part 2 — multi-tenant solves/sec. T client threads, each owning a tenant,
// sweep a budget grid through the shared service twice: the first pass
// solves (warm-started within each tenant), the second is pure result-cache
// hits.
//
// Part 3 — snapshot/restore. Solve, snapshot to disk, restore into a fresh
// service ("restart"), re-solve: the restored session must warm-start from
// the remapped basis (reported warm iterations << cold) with an identical
// objective.
//
// Part 4 — mixed append/solve workload. R rounds of "append a small batch,
// then solve" through two service configurations: inline flush (the solve
// pays the coalescing merge + re-preprocess + row rebuild + basis remap) and
// background flush (the maintenance thread lands the batch between
// requests, so the solve finds the log already flushed). Reports
// p50/p95/p99 of the first-solve-after-append and append-ack latencies per
// mode; final objectives must match each other and a from-scratch cold
// solve.
//
// Part 5 — windowed-stream workload. A sliding user population: each tick
// appends a fresh batch, removes the oldest live batch (RemoveUsers — DP
// rows rebuilt, basis remapped down) and re-solves. The tenant carries a
// privacy budget, so every tick's solve is also an accountant charge. The
// post-removal solve must warm-start and match a cold solve on the
// surviving window; a final ExpireWindow retires the whole population
// through the retention path.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "obs/histogram.h"
#include "util/timer.h"

using namespace privsan;

namespace {

UmpQuery Query(double e_eps, double delta) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
  return query;
}

// Exact interpolated percentile over raw samples, shared with the serving
// histograms (obs/histogram.h) so bench numbers and scrape quantiles agree
// on semantics.
double PercentileMs(std::vector<double> seconds, double q) {
  return obs::ExactPercentileMs(std::move(seconds), q);
}

double MeanMs(const std::vector<double>& seconds) {
  if (seconds.empty()) return 0.0;
  double total = 0.0;
  for (double s : seconds) total += s;
  return 1e3 * total / static_cast<double>(seconds.size());
}

}  // namespace

int main() {
  bench::JsonReport report("serve_throughput");
  const bench::BenchDataset dataset = bench::LoadDataset();
  const SearchLog& raw = dataset.raw;
  const UmpQuery query = Query(2.0, 0.5);

  // ---- Part 1: per-append cold re-solves vs one batched warm flush ------
  // The serve shape: an established base (90% of users) receiving a stream
  // of small batches. The naive baseline pays a full rebuild + cold solve
  // per batch on an almost-full log; the service pays one coalesced
  // incremental append + one warm solve for the same final state.
  const int kBatches = 12;
  const UserId cut = raw.num_users() * 9 / 10;
  const UserId per_batch =
      (raw.num_users() - cut + kBatches - 1) / kBatches;

  std::cout << "== append-flush latency (" << kBatches << " batches of ~"
            << per_batch << " users onto a " << cut << "-user base) ==\n";

  // (a) The naive loop: every batch triggers a full rebuild + cold solve.
  WallTimer cold_timer;
  int64_t cold_root_iterations = 0;
  uint64_t cold_final_lambda = 0;
  for (int b = 1; b <= kBatches; ++b) {
    const UserId end =
        std::min<UserId>(raw.num_users(), cut + b * per_batch);
    SanitizerSession session =
        SanitizerSession::Create(UserSlice(raw, 0, end)).value();
    const UmpSolution solution =
        session.Solve(UtilityObjective::kOutputSize, query).value();
    cold_root_iterations += solution.stats.root_iterations;
    cold_final_lambda = solution.output_size;
  }
  const double cold_seconds = cold_timer.ElapsedSeconds();

  // (b) The serve path: prime a tenant on the base, enqueue all batches,
  // flush once (coalesced incremental append), solve warm.
  serve::SanitizerService service;
  service.CreateTenant("publisher", UserSlice(raw, 0, cut));
  const UmpSolution primed =
      service.Solve("publisher", UtilityObjective::kOutputSize, query)
          .value();
  (void)primed;  // prime the basis; not part of the append loop below

  WallTimer warm_timer;
  for (int b = 0; b < kBatches; ++b) {
    const UserId begin = cut + b * per_batch;
    const UserId end = std::min<UserId>(raw.num_users(), begin + per_batch);
    service.Append("publisher", UserSlice(raw, begin, end));
  }
  const UmpSolution warm_solution =
      service.Solve("publisher", UtilityObjective::kOutputSize, query)
          .value();
  const double warm_seconds = warm_timer.ElapsedSeconds();
  const serve::TenantStats publisher_stats =
      service.Stats("publisher").value();

  const int mismatches =
      warm_solution.output_size == cold_final_lambda ? 0 : 1;
  const double speedup = warm_seconds > 0 ? cold_seconds / warm_seconds : 0;
  std::cout << "per-append cold: " << cold_seconds << " s ("
            << cold_root_iterations << " root iterations)\n"
            << "batched warm:    " << warm_seconds << " s ("
            << warm_solution.stats.root_iterations << " root iterations, "
            << publisher_stats.flushes << " flush, repair_aborted "
            << publisher_stats.repair_aborted << ")\n"
            << "speedup: " << speedup << "x, objective mismatches: "
            << mismatches << "\n\n";

  {
    bench::JsonRecord record;
    record.Add("record", "append_flush")
        .Add("mode", "per_append_cold")
        .Add("batches", static_cast<int64_t>(kBatches))
        .Add("seconds", cold_seconds)
        .Add("root_iterations", cold_root_iterations);
    report.Add(std::move(record));
  }
  {
    bench::JsonRecord record;
    record.Add("record", "append_flush")
        .Add("mode", "batched_warm")
        .Add("batches", static_cast<int64_t>(kBatches))
        .Add("seconds", warm_seconds)
        .Add("root_iterations", warm_solution.stats.root_iterations)
        .Add("repair_aborted", publisher_stats.repair_aborted)
        .Add("basis_repairs",
             static_cast<int64_t>(warm_solution.stats.basis_repairs));
    report.Add(std::move(record));
  }
  {
    bench::JsonRecord record;
    record.Add("record", "append_speedup")
        .Add("batches", static_cast<int64_t>(kBatches))
        .Add("speedup", speedup)
        .Add("objective_mismatches", static_cast<int64_t>(mismatches));
    report.Add(std::move(record));
  }

  // ---- Part 2: multi-tenant solves/sec ----------------------------------
  const int kTenants = 4;
  std::vector<UmpQuery> grid =
      bench::BudgetGrid(bench::EEpsilonGrid(), {1e-3, 1e-1, 0.5});
  std::cout << "== multi-tenant throughput (" << kTenants
            << " tenants x " << grid.size() << "-cell grid) ==\n";
  for (int t = 0; t < kTenants; ++t) {
    // Distinct per-tenant logs: disjoint user slices of the dataset.
    const UserId lo = raw.num_users() * t / kTenants;
    const UserId hi = raw.num_users() * (t + 1) / kTenants;
    service.CreateTenant("tenant" + std::to_string(t),
                         UserSlice(raw, lo, hi));
  }
  for (const char* mode : {"warm", "cached"}) {
    WallTimer timer;
    std::atomic<int64_t> solved{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kTenants; ++t) {
      clients.emplace_back([&service, &grid, &solved, t] {
        const std::string name = "tenant" + std::to_string(t);
        for (const UmpQuery& cell : grid) {
          if (service.Solve(name, UtilityObjective::kOutputSize, cell)
                  .ok()) {
            solved.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    const double seconds = timer.ElapsedSeconds();
    const double rate = seconds > 0 ? solved.load() / seconds : 0;
    std::cout << mode << " pass: " << solved.load() << " solves in "
              << seconds << " s = " << rate << " solves/sec\n";
    bench::JsonRecord record;
    record.Add("record", "throughput")
        .Add("mode", mode)
        .Add("tenants", static_cast<int64_t>(kTenants))
        .Add("solves", solved.load())
        .Add("seconds", seconds)
        .Add("solves_per_sec", rate);
    report.Add(std::move(record));
  }
  std::cout << "\n";

  // ---- Part 3: snapshot / restore ---------------------------------------
  std::cout << "== snapshot / restore ==\n";
  const std::string path = "bench_serve_snapshot.bin";
  WallTimer save_timer;
  service.SaveSnapshot("publisher", path);
  const double save_seconds = save_timer.ElapsedSeconds();

  // Cold reference: a fresh session on the same final log.
  SanitizerSession cold_session = SanitizerSession::Create(raw).value();
  const UmpSolution cold_solution =
      cold_session.Solve(UtilityObjective::kOutputSize, query).value();

  serve::SanitizerService restarted;
  WallTimer restore_timer;
  restarted.RestoreTenant("publisher", path);
  const double restore_seconds = restore_timer.ElapsedSeconds();
  const UmpSolution restored_solution =
      restarted.Solve("publisher", UtilityObjective::kOutputSize, query)
          .value();
  std::remove(path.c_str());

  const int snapshot_mismatches =
      restored_solution.output_size == warm_solution.output_size ? 0 : 1;
  std::cout << "cold solve:           " << cold_solution.stats.root_iterations
            << " root iterations\n"
            << "restored warm solve:  "
            << restored_solution.stats.root_iterations
            << " root iterations (warm_started="
            << (restored_solution.stats.warm_started ? 1 : 0) << ")\n"
            << "save " << save_seconds << " s, restore " << restore_seconds
            << " s, objective mismatches: " << snapshot_mismatches << "\n";
  bench::JsonRecord record;
  record.Add("record", "snapshot")
      .Add("cold_root_iterations", cold_solution.stats.root_iterations)
      .Add("restored_root_iterations",
           restored_solution.stats.root_iterations)
      .Add("restored_warm_started",
           static_cast<int64_t>(restored_solution.stats.warm_started ? 1 : 0))
      .Add("save_seconds", save_seconds)
      .Add("restore_seconds", restore_seconds)
      .Add("objective_mismatches", static_cast<int64_t>(snapshot_mismatches));
  report.Add(std::move(record));

  // ---- Part 4: mixed append/solve workload (inline vs background flush) --
  // The steady-state serve shape: one new user trickles in, then the
  // client re-queries its budget. Inline, that first solve pays the whole
  // append-coalescing pipeline — merge + re-preprocess + row rebuild +
  // basis remap + model rebuild + the append's repair pivots. With
  // maintenance on, the background flush lands the batch, prewarms the
  // models and refreshes the hot query between requests, so the client's
  // solve finds a current cache entry (and, at any other budget, an
  // already re-optimized basis).
  std::cout << "\n== mixed append/solve workload ==\n";
  const int kRounds = 6;
  std::vector<SearchLog> round_batches;
  {
    // Each round's batch is one new user clicking the least-shared pair of
    // the base log.
    const PreprocessResult base_pre =
        RemoveUniquePairs(UserSlice(raw, 0, raw.num_users() * 9 / 10));
    const SearchLog& base_log = base_pre.log;
    PairId target = 0;
    for (PairId p = 1; p < base_log.num_pairs(); ++p) {
      if (base_log.PairUserCount(p) < base_log.PairUserCount(target)) {
        target = p;
      }
    }
    for (int r = 0; r < kRounds; ++r) {
      SearchLogBuilder one_user;
      one_user.Add("mixed_user_" + std::to_string(r),
                   base_log.query_name(base_log.pair_query(target)),
                   base_log.url_name(base_log.pair_url(target)), 1);
      round_batches.push_back(one_user.Build());
    }
  }

  double mean_solve_ms[2] = {0.0, 0.0};
  uint64_t final_objective[2] = {0, 0};
  int mixed_mismatches = 0;
  for (const char* mode : {"inline_flush", "background_flush"}) {
    const bool background = std::string(mode) == "background_flush";
    serve::ServiceOptions mixed_options;
    if (background) {
      mixed_options.maintenance_interval_ms = 1;
      mixed_options.flush_max_age_ms = 2;
      mixed_options.flush_queue_depth = 64;  // age-triggered in this bench
    }
    serve::SanitizerService mixed(mixed_options);
    mixed.CreateTenant("mix", UserSlice(raw, 0, raw.num_users() * 9 / 10));
    (void)mixed.Solve("mix", UtilityObjective::kOutputSize, query)
        .value();  // prime the basis

    std::vector<double> solve_seconds, append_seconds;
    uint64_t last_solution = 0;
    for (int r = 0; r < kRounds; ++r) {
      WallTimer append_timer;
      if (!mixed.Append("mix", round_batches[r]).ok()) return 1;
      append_seconds.push_back(append_timer.ElapsedSeconds());
      if (background) {
        // Let the maintenance thread land the batch off the query path —
        // the idle gap between traffic bursts in a live service.
        const uint64_t want_flushes = static_cast<uint64_t>(r + 1);
        WallTimer wait_timer;
        while (mixed.Stats("mix").value().flushes < want_flushes) {
          if (wait_timer.ElapsedSeconds() > 10.0) break;
          std::this_thread::yield();
        }
      }
      WallTimer solve_timer;
      const Result<UmpSolution> solution =
          mixed.Solve("mix", UtilityObjective::kOutputSize, query);
      if (!solution.ok()) return 1;
      solve_seconds.push_back(solve_timer.ElapsedSeconds());
      last_solution = solution->output_size;
    }
    const serve::TenantStats mixed_stats = mixed.Stats("mix").value();
    const int index = background ? 1 : 0;
    mean_solve_ms[index] = MeanMs(solve_seconds);
    final_objective[index] = last_solution;

    std::cout << mode << ": first-solve-after-append mean "
              << mean_solve_ms[index] << " ms, p50/p95/p99 "
              << PercentileMs(solve_seconds, 0.50) << "/"
              << PercentileMs(solve_seconds, 0.95) << "/"
              << PercentileMs(solve_seconds, 0.99)
              << " ms; append ack p50 " << PercentileMs(append_seconds, 0.50)
              << " ms; maintenance flushes "
              << mixed_stats.maintenance_flushes << ", refresh solves "
              << mixed_stats.refresh_solves << "\n";

    bench::JsonRecord record;
    record.Add("record", "mixed_workload")
        .Add("mode", mode)
        .Add("batches", static_cast<int64_t>(kRounds))
        .Add("mean_first_solve_ms", mean_solve_ms[index])
        .Add("solve_ms_p50", PercentileMs(solve_seconds, 0.50))
        .Add("solve_ms_p95", PercentileMs(solve_seconds, 0.95))
        .Add("solve_ms_p99", PercentileMs(solve_seconds, 0.99))
        .Add("append_ms_p50", PercentileMs(append_seconds, 0.50))
        .Add("append_ms_p95", PercentileMs(append_seconds, 0.95))
        .Add("append_ms_p99", PercentileMs(append_seconds, 0.99))
        .Add("maintenance_flushes", mixed_stats.maintenance_flushes)
        .Add("refresh_solves", mixed_stats.refresh_solves);
    report.Add(std::move(record));
  }

  // Correctness: both modes ran the same append/solve sequence, so their
  // final optima must agree with each other and with a cold solve on the
  // concatenated log.
  {
    SearchLogBuilder full;
    full.AddAll(UserSlice(raw, 0, raw.num_users() * 9 / 10));
    for (const SearchLog& batch : round_batches) full.AddAll(batch);
    SanitizerSession cold_mixed =
        SanitizerSession::Create(full.Build()).value();
    const uint64_t cold_final =
        cold_mixed.Solve(UtilityObjective::kOutputSize, query)
            .value()
            .output_size;
    mixed_mismatches =
        (final_objective[0] == cold_final ? 0 : 1) +
        (final_objective[1] == cold_final ? 0 : 1);
  }
  const double flush_speedup =
      mean_solve_ms[1] > 0 ? mean_solve_ms[0] / mean_solve_ms[1] : 0.0;
  std::cout << "background flush speedup on first-solve-after-append: "
            << flush_speedup << "x, objective mismatches: "
            << mixed_mismatches << "\n";
  {
    bench::JsonRecord record;
    record.Add("record", "mixed_workload_speedup")
        .Add("batches", static_cast<int64_t>(kRounds))
        .Add("background_flush_speedup", flush_speedup)
        .Add("objective_mismatches", static_cast<int64_t>(mixed_mismatches));
    report.Add(std::move(record));
  }

  // ---- Part 5: windowed-stream workload (append + remove + solve) --------
  // A sliding population: the live window holds 60% of the dataset's
  // users; each tick appends the next 10% and retires the oldest 10%.
  std::cout << "\n== windowed-stream workload ==\n";
  const int kTicks = 4;
  const UserId window_base = raw.num_users() * 6 / 10;
  const UserId tick_step = (raw.num_users() - window_base) / kTicks;

  serve::SanitizerService stream_service;
  {
    serve::CreateTenantRequest create{
        "stream", UserSlice(raw, 0, window_base), std::nullopt};
    // Generous budget: every tick's solve is charged and recorded, none
    // refused — the accountant's steady-state bookkeeping cost is in the
    // measured path.
    create.budget.max_epsilon = 1000.0;
    if (!stream_service.Submit(create).get().status.ok()) return 1;
  }
  (void)stream_service.Solve("stream", UtilityObjective::kOutputSize, query)
      .value();  // prime the basis

  std::vector<double> tick_seconds;
  bool remove_warm_started = true;
  uint64_t window_final_objective = 0;
  WallTimer window_timer;
  for (int t = 0; t < kTicks; ++t) {
    const UserId append_lo = window_base + t * tick_step;
    const UserId retire_lo = t * tick_step;
    std::vector<std::string> retired;
    for (UserId u = retire_lo; u < retire_lo + tick_step; ++u) {
      retired.push_back(raw.user_name(u));
    }
    WallTimer tick_timer;
    if (!stream_service
             .Append("stream",
                     UserSlice(raw, append_lo, append_lo + tick_step))
             .ok()) {
      return 1;
    }
    // RemoveUsers flushes the queued append first: one coalesced flush and
    // one row rebuild per tick, exactly the maintenance-driven expiry shape.
    if (!stream_service.RemoveUsers("stream", retired).ok()) return 1;
    const Result<UmpSolution> ticked = stream_service.Solve(
        "stream", UtilityObjective::kOutputSize, query);
    if (!ticked.ok()) return 1;
    tick_seconds.push_back(tick_timer.ElapsedSeconds());
    remove_warm_started =
        remove_warm_started && ticked->stats.warm_started;
    window_final_objective = ticked->output_size;
  }
  const double window_seconds = window_timer.ElapsedSeconds();
  const serve::TenantStats window_stats =
      stream_service.Stats("stream").value();
  const serve::BudgetStatus window_budget =
      stream_service.Budget("stream").value();

  // Cold reference: the final live window is exactly the surviving slice.
  int window_mismatches = 0;
  {
    SanitizerSession cold_window =
        SanitizerSession::Create(
            UserSlice(raw, kTicks * tick_step, raw.num_users()))
            .value();
    const uint64_t cold_final =
        cold_window.Solve(UtilityObjective::kOutputSize, query)
            .value()
            .output_size;
    window_mismatches = window_final_objective == cold_final ? 0 : 1;
  }

  std::cout << kTicks << " ticks in " << window_seconds << " s (tick p50 "
            << PercentileMs(tick_seconds, 0.50) << " ms); users removed "
            << window_stats.users_removed
            << ", remove_warm_started=" << (remove_warm_started ? 1 : 0)
            << ", spent epsilon " << window_budget.spent_epsilon << " over "
            << window_budget.allocations << " charges ("
            << window_budget.refusals << " refusals), objective mismatches: "
            << window_mismatches << "\n";
  {
    bench::JsonRecord record;
    record.Add("record", "windowed_stream")
        .Add("batches", static_cast<int64_t>(kTicks))
        .Add("seconds", window_seconds)
        .Add("tick_ms_p50", PercentileMs(tick_seconds, 0.50))
        .Add("tick_ms_p95", PercentileMs(tick_seconds, 0.95))
        .Add("users_removed",
             static_cast<int64_t>(window_stats.users_removed))
        .Add("remove_warm_started",
             static_cast<int64_t>(remove_warm_started ? 1 : 0))
        .Add("epsilon_spent_micro",
             static_cast<int64_t>(window_stats.epsilon_spent_micro))
        .Add("budget_refusals",
             static_cast<int64_t>(window_stats.budget_refusals))
        .Add("objective_mismatches",
             static_cast<int64_t>(window_mismatches));
    report.Add(std::move(record));
  }

  // Teardown through the retention path: expire every remaining user.
  {
    WallTimer expire_timer;
    if (!stream_service
             .ExpireWindow("stream",
                           std::numeric_limits<uint64_t>::max())
             .ok()) {
      return 1;
    }
    const double expire_seconds = expire_timer.ElapsedSeconds();
    const uint64_t expired = stream_service.Stats("stream")
                                 .value()
                                 .users_removed -
                             window_stats.users_removed;
    std::cout << "expire-all: " << expired << " users in " << expire_seconds
              << " s\n";
    bench::JsonRecord record;
    record.Add("record", "windowed_expire")
        .Add("seconds", expire_seconds)
        .Add("users_removed", static_cast<int64_t>(expired));
    report.Add(std::move(record));
  }

  // Warm-vs-cold equivalence is a correctness gate, not a perf number.
  return mismatches == 0 && snapshot_mismatches == 0 &&
                 mixed_mismatches == 0 && window_mismatches == 0 &&
                 remove_warm_started
             ? 0
             : 1;
}
