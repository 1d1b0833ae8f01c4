// cold_release: N fresh logs from distinct seeds, each built into a
// SanitizerSession in set-up and released once with Sanitize (O-UMP) at
// its own Table 4 cell, serially. A release is almost entirely one cold
// primal simplex solve; warm starts, caches, serve and net are bypassed.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/audit.h"
#include "core/sampler.h"
#include "core/session.h"
#include "log/preprocess.h"
#include "verify.h"
#include "workloads.h"

namespace perfbench {

using namespace privsan;

namespace {

// Release i runs at Table 4 cell 2i mod 49: distinct for every i < 49 and
// the same schedule on every seed, so runs differ only in their logs.
PrivacyParams ReleaseCell(size_t i) { return Table4Cells()[(2 * i) % 49]; }

struct UntracedPass {
  std::vector<int64_t> setup_ns;    // one entry per set-up repeat
  std::vector<int64_t> create_ns;   // per log, last set-up
  std::vector<int64_t> release_ns;  // per release
  int64_t pass_ns = 0;
  std::vector<Result<SanitizeReport>> reports;
};

Result<UntracedPass> RunUntraced(const std::vector<SearchLog>& raws,
                                 int setup_repeats) {
  UntracedPass pass;
  std::vector<SanitizerSession> sessions;
  for (int r = 0; r < setup_repeats; ++r) {
    sessions.clear();
    pass.create_ns.clear();
    const int64_t start = NowNs();
    for (const SearchLog& raw : raws) {
      const int64_t t = NowNs();
      PRIVSAN_ASSIGN_OR_RETURN(
          SanitizerSession session,
          SanitizerSession::Create(raw, SessionDefaults()));
      pass.create_ns.push_back(NowNs() - t);
      sessions.push_back(std::move(session));
    }
    pass.setup_ns.push_back(NowNs() - start);
  }
  const int64_t pass_start = NowNs();
  for (size_t i = 0; i < sessions.size(); ++i) {
    const int64_t t = NowNs();
    const Status late = CheckRunDeadline();
    pass.reports.push_back(late.ok() ? sessions[i].Sanitize(ReleaseCell(i))
                                     : Result<SanitizeReport>(late));
    pass.release_ns.push_back(NowNs() - t);
  }
  pass.pass_ns = NowNs() - pass_start;
  return pass;
}

// A sampled output of exactly the released size, and Theorem 1 on the
// released counts of the preprocessed `log`.
bool VerifyCounts(const SearchLog& log, const PrivacyParams& privacy,
                  std::span<const uint64_t> x, const SearchLog& output,
                  std::string* why) {
  uint64_t released = 0;
  for (uint64_t count : x) released += count;
  if (output.total_clicks() != released) {
    *why = "sampled output holds " + std::to_string(output.total_clicks()) +
           " clicks, not " + std::to_string(released);
    return false;
  }
  Result<DpConstraintSystem> rows = DpConstraintSystem::BuildRows(log);
  if (!rows.ok()) {
    *why = rows.status().ToString();
    return false;
  }
  return CountsSatisfyPrivacy(log, &*rows, privacy, x, why);
}

bool VerifyRelease(const Result<SanitizeReport>& report,
                   const PrivacyParams& privacy, std::string* why) {
  if (!report.ok()) {
    *why = report.status().ToString();
    return false;
  }
  if (!report->audit.satisfies_privacy) {
    *why = "Sanitize's own audit rejects its release";
    return false;
  }
  return VerifyCounts(report->preprocessed_input, privacy,
                      report->optimal_counts, report->output, why);
}

// The layer calls Sanitize makes on a fresh session, each in its own span;
// the release must match the untraced one (`lambda`) and verify the same
// way. Solver counters add into `total`.
bool TracedRelease(Tracer& tracer, const SearchLog& raw,
                   const PrivacyParams& privacy, uint64_t id, uint64_t lambda,
                   UmpStats* total, std::string* why) {
  const PreprocessResult pre = InSpan(tracer, "log.preprocess", id, [&] {
    return RemoveUniquePairs(raw);
  });
  Result<DpConstraintSystem> rows = InSpan(tracer, "core.rows", id, [&] {
    return DpConstraintSystem::BuildRows(pre.log);
  });
  if (!rows.ok()) {
    *why = rows.status().ToString();
    return false;
  }
  Result<std::unique_ptr<UmpProblem>> problem =
      InSpan(tracer, "core.model", id,
             [&] {
               return MakeOumpProblem(pre.log, &*rows, OumpSpec{},
                                      SessionDefaults().simplex);
             });
  if (!problem.ok()) {
    *why = problem.status().ToString();
    return false;
  }
  UmpQuery query;
  query.privacy = privacy;
  const Result<UmpSolution> solution =
      InSpan(tracer, "lp.solve", id, [&] { return (*problem)->Solve(query); });
  if (!solution.ok()) {
    *why = solution.status().ToString();
    return false;
  }
  const Result<SearchLog> sample = InSpan(tracer, "core.sample", id, [&] {
    return SampleOutput(pre.log, solution->x, SessionDefaults().seed);
  });
  const Result<AuditReport> audit = InSpan(tracer, "core.audit", id, [&] {
    return AuditSolution(pre.log, privacy, solution->x);
  });
  total->simplex_iterations += solution->stats.simplex_iterations;
  total->refactorizations += solution->stats.refactorizations;
  total->factor_nnz = std::max(total->factor_nnz, solution->stats.factor_nnz);
  if (!sample.ok() || !audit.ok() || !audit->satisfies_privacy) {
    *why = "traced sample or audit failed";
    return false;
  }
  if (solution->output_size != lambda) {
    *why = "traced lambda " + std::to_string(solution->output_size) +
           " differs from the released " + std::to_string(lambda);
    return false;
  }
  return VerifyCounts(pre.log, privacy, solution->x, *sample, why);
}

}  // namespace

Result<Outcome> RunColdRelease(const RunConfig& config) {
  RunClockStart();
  Outcome outcome;
  Ledger ledger(&outcome);
  std::vector<SearchLog> raws;
  for (size_t i = 0; i < config.plan.releases; ++i) {
    PRIVSAN_ASSIGN_OR_RETURN(
        SearchLog raw,
        GenerateSearchLog(MediumConfig(LogSeed(config.seed, i))));
    raws.push_back(std::move(raw));
  }

  PRIVSAN_ASSIGN_OR_RETURN(
      UntracedPass untraced,
      RunUntraced(raws, config.trace ? 1 : config.plan.setup_repeats));
  std::vector<uint64_t> lambdas(raws.size(), 0);
  double utility = 0.0;
  for (size_t i = 0; i < raws.size(); ++i) {
    std::string why;
    const Result<SanitizeReport>& report = untraced.reports[i];
    if (ledger.Op(VerifyRelease(report, ReleaseCell(i), &why),
                  "release " + std::to_string(i) + ": " + why)) {
      lambdas[i] = report->output_size;
      utility += static_cast<double>(report->output_size) /
                 static_cast<double>(report->preprocessed_input.total_clicks());
    }
  }
  untraced.reports.clear();
  utility /= static_cast<double>(raws.size());
  outcome.metrics["utility"] = utility;

  if (!config.trace) {
    std::vector<double> setup_s;
    for (int64_t ns : untraced.setup_ns) setup_s.push_back(ToSeconds(ns));
    outcome.metrics["setup_s"] = Median(setup_s);
    outcome.metrics["pass_s"] = ToSeconds(untraced.pass_ns);
    outcome.metrics["peak_rss_mb"] = PeakRssMb();
    outcome.metrics["ok_ratio"] = outcome.ok_ratio();
    return outcome;
  }

  // Traced replay on the same logs and cells. Its untraced counterpart is
  // Create + Sanitize, since the replay preprocesses and builds rows too.
  int64_t untraced_ns = 0;
  std::vector<double> release_ms;
  for (size_t i = 0; i < raws.size(); ++i) {
    untraced_ns += untraced.create_ns[i] + untraced.release_ns[i];
    release_ms.push_back(ToMs(untraced.release_ns[i]));
  }
  ReportAnswers(release_ms, &outcome);
  Tracer tracer(true);
  UmpStats total;
  for (size_t i = 0; i < raws.size(); ++i) {
    if (const Status late = CheckRunDeadline(); !late.ok()) {
      ledger.Op(false, "traced release: " + late.ToString());
      continue;
    }
    Tracer::Scope root(tracer, "bench.release", i);
    std::string why;
    ledger.Op(TracedRelease(tracer, raws[i], ReleaseCell(i), i, lambdas[i],
                            &total, &why),
              "traced release " + std::to_string(i) + ": " + why);
  }
  std::map<std::string, std::vector<double>> ms =
      SpanMsByName(tracer.spans());
  double solve_ms = 0.0;
  for (double t : ms["lp.solve"]) solve_ms += t;
  outcome.metrics["log.preprocess_ms"] = Median(ms["log.preprocess"]);
  outcome.metrics["core.rows_ms"] = Median(ms["core.rows"]);
  outcome.metrics["core.model_ms"] = Median(ms["core.model"]);
  outcome.metrics["core.sample_ms"] = Median(ms["core.sample"]);
  outcome.metrics["core.audit_ms"] = Median(ms["core.audit"]);
  outcome.metrics["lp.cold_solve_ms"] = Median(ms["lp.solve"]);
  outcome.metrics["lp.cold_iterations"] =
      static_cast<double>(total.simplex_iterations);
  outcome.metrics["lp.us_per_iteration"] =
      total.simplex_iterations == 0
          ? 0.0
          : solve_ms * 1e3 / static_cast<double>(total.simplex_iterations);
  outcome.metrics["lp.refactorizations"] =
      static_cast<double>(total.refactorizations);
  outcome.metrics["lp.factor_nnz"] = static_cast<double>(total.factor_nnz);
  outcome.metrics["metrics.lambda_ratio"] = utility;
  ReportTracedPass(tracer.spans(), untraced_ns, &outcome, &ledger);
  outcome.metrics["ok_ratio"] = outcome.ok_ratio();
  outcome.spans = tracer.spans();
  return outcome;
}

}  // namespace perfbench
