// paper_sweeps: the paper's evaluation as an analyst reruns it, over logs
// in groups of five. Every log runs Table 4's 7x7 O-UMP grid; log l also
// runs support row l mod 5 of Tables 5/6's F-UMP grid (6 output sizes, |O|
// from the log's λ at e^ε = 2, δ = 0.5) and part l mod 2 of Table 7's D-UMP
// grid with SPE, greedy and LP rounding, so five logs cover every table.
// Spreading the F-UMP rows over five logs averages their log-to-log cost
// (a warm F-UMP grid varies ±15% between logs; whole grids on one log left
// a 26% run-to-run spread). Every cell is one SweepBudgets call on the
// log's session, so the session chains each cell's warm start from the
// previous cell exactly as one SweepBudgets call over the grid would, and
// each cell's latency is the benchmark's own measurement.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "log/preprocess.h"
#include "metrics/utility_metrics.h"
#include "verify.h"
#include "workloads.h"

namespace perfbench {

using namespace privsan;

namespace {

enum Table { kTable4 = 0, kTable56 = 1, kTable7 = 2 };

UtilityObjective ObjectiveOf(Table table) {
  switch (table) {
    case kTable4:
      return UtilityObjective::kOutputSize;
    case kTable56:
      return UtilityObjective::kFrequentPairs;
    case kTable7:
      break;
  }
  return UtilityObjective::kDiversity;
}

struct Cell {
  Table table = kTable4;
  UmpQuery query;
  double support = 0.0;  // Tables 5/6 only
};

UmpQuery QueryAt(const PrivacyParams& privacy) {
  UmpQuery query;
  query.privacy = privacy;
  return query;
}

std::vector<Cell> Table4Grid() {
  std::vector<Cell> cells;
  for (const PrivacyParams& privacy : Table4Cells()) {
    cells.push_back({kTable4, QueryAt(privacy), 0.0});
  }
  return cells;
}

// One support row of Tables 5/6: one warm chain (a support reshapes the
// F-UMP model, so its first cell is cold).
std::vector<Cell> Table56Row(uint64_t lambda, size_t log_index) {
  const double support = FumpSupports()[log_index % FumpSupports().size()];
  std::vector<Cell> cells;
  for (uint64_t size : FumpOutputSizes(lambda)) {
    UmpQuery query = QueryAt(PrivacyParams::FromEEpsilon(2.0, 0.5));
    query.output_size = size;
    cells.push_back({kTable56, query, support});
  }
  return cells;
}

// One part of Table 7, solver by solver.
std::vector<Cell> Table7Part(size_t log_index) {
  std::vector<Cell> cells;
  for (DumpSolverKind solver : DumpSolvers()) {
    for (const PrivacyParams& privacy :
         Table7Cells(static_cast<int>(log_index % 2))) {
      UmpQuery query = QueryAt(privacy);
      query.solver = solver;
      cells.push_back({kTable7, query, 0.0});
    }
  }
  return cells;
}

// Cells whose warm answer is also solved cold after the pass: the λ cell
// of Table 4 on the first log, and the fourth Tables 5/6 cell of every log.
constexpr size_t kColdCheckFumpCell = 3;

struct CellRun {
  Cell cell;
  int64_t ns = 0;
  Result<UmpSolution> solution = Status::Internal("not run");
};

Result<UmpSolution> SolveCell(SanitizerSession& session, const Cell& cell,
                              bool warm) {
  SweepOptions sweep;
  sweep.warm_start = warm;
  if (cell.table == kTable56) sweep.min_support = cell.support;
  PRIVSAN_ASSIGN_OR_RETURN(
      SweepResult result,
      session.SweepBudgets(ObjectiveOf(cell.table), {cell.query}, sweep));
  return std::move(result.cells.front());
}

uint64_t LambdaOf(const std::vector<CellRun>& table4) {
  const Result<UmpSolution>& cell = table4[kLambdaCell].solution;
  return cell.ok() ? cell->output_size : 0;
}

// One log through its cells, each timed.
std::vector<CellRun> SweepLog(SanitizerSession& session, size_t log_index) {
  std::vector<CellRun> runs;
  auto run_all = [&](const std::vector<Cell>& cells) {
    for (const Cell& cell : cells) {
      CellRun run{cell};
      const int64_t start = NowNs();
      const Status late = CheckRunDeadline();
      run.solution = late.ok() ? SolveCell(session, cell, /*warm=*/true)
                               : Result<UmpSolution>(late);
      run.ns = NowNs() - start;
      runs.push_back(std::move(run));
    }
  };
  run_all(Table4Grid());
  run_all(Table56Row(LambdaOf(runs), log_index));
  run_all(Table7Part(log_index));
  return runs;
}

// The answer's utility: λ/|D| (Table 4), frequent-pair recall (Tables
// 5/6), retained diversity (Table 7).
double CellUtility(const SearchLog& log, const Cell& cell,
                   const UmpSolution& solution) {
  switch (cell.table) {
    case kTable4:
      return static_cast<double>(solution.output_size) /
             static_cast<double>(log.total_clicks());
    case kTable56:
      return FrequentPairMetrics(log, solution.x, cell.support).recall;
    case kTable7:
      break;
  }
  return DiversityRatio(solution.x);
}

struct SweepTotals {
  int64_t table_ns[3] = {0, 0, 0};
  double utility_sum[3] = {0, 0, 0};
  int64_t utility_count[3] = {0, 0, 0};
};

// Theorem 1 on every cell, then the fixed cold-reference sample. Adds each
// verified cell's utility into `totals`.
void VerifyLog(SanitizerSession& session, const std::vector<CellRun>& runs,
               size_t log_index, Ledger* ledger, SweepTotals* totals) {
  const SearchLog& log = session.log();
  Result<DpConstraintSystem> rows = DpConstraintSystem::BuildRows(log);
  if (!ledger->Check(rows.ok(), "rows of log " + std::to_string(log_index))) {
    return;
  }
  for (size_t i = 0; i < runs.size(); ++i) {
    const CellRun& run = runs[i];
    std::string why = run.solution.ok() ? "" : run.solution.status().ToString();
    const bool ok =
        run.solution.ok() &&
        CountsSatisfyPrivacy(log, &*rows, run.cell.query.privacy,
                             run.solution->x, &why);
    if (ledger->Op(ok, "log " + std::to_string(log_index) + " cell " +
                           std::to_string(i) + ": " + why)) {
      totals->utility_sum[run.cell.table] +=
          CellUtility(log, run.cell, *run.solution);
      ++totals->utility_count[run.cell.table];
    }
  }
  std::vector<size_t> checks = {Table4Cells().size() + kColdCheckFumpCell};
  if (log_index == 0) checks.push_back(kLambdaCell);
  for (size_t i : checks) {
    const CellRun& run = runs[i];
    const Status late = CheckRunDeadline();
    const Result<UmpSolution> cold =
        late.ok() ? SolveCell(session, run.cell, false)
                  : Result<UmpSolution>(late);
    ledger->Op(run.solution.ok() && cold.ok() &&
                   SameObjective(run.solution->objective_value,
                                 cold->objective_value),
               "log " + std::to_string(log_index) + " cell " +
                   std::to_string(i) + ": warm objective differs from cold");
  }
}

// The traced replay of one log at the layer level: the factories and
// UmpProblem::Solve with the warm hint the session would pass. Returns the
// per-cell solutions in SweepLog's order.
struct TracedLog {
  std::vector<Result<UmpSolution>> cells;
  std::vector<int64_t> ns;
};

const char* CellSpan(const Cell& cell) {
  if (cell.table == kTable4) return "lp.oump_cell";
  if (cell.table == kTable56) return "lp.fump_cell";
  switch (*cell.query.solver) {
    case DumpSolverKind::kSpe:
      return "core.dump_spe";
    case DumpSolverKind::kGreedy:
      return "lp.dump_greedy";
    default:
      break;
  }
  return "lp.dump_lpround";
}

TracedLog TraceLog(Tracer& tracer, const SearchLog& log,
                   DpConstraintSystem* rows, uint64_t id) {
  TracedLog traced;
  auto chain = [&](UmpProblem* problem, const std::vector<Cell>& cells) {
    WarmStartHint hint;
    for (const Cell& cell : cells) {
      const Status late = CheckRunDeadline();
      Result<UmpSolution> solution = Status::Internal("not run");
      int span_id = -1;
      if (!late.ok()) {
        solution = late;
      } else {
        Tracer::Scope span(tracer, CellSpan(cell), id);
        span_id = span.id();
        solution = problem->Solve(cell.query, hint.empty() ? nullptr : &hint);
      }
      if (solution.ok() && !solution->basis.empty()) {
        hint.basis = solution->basis;
      }
      traced.cells.push_back(std::move(solution));
      traced.ns.push_back(tracer.DurationNs(span_id));
    }
  };
  auto fail_all = [&](const Status& status, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      traced.cells.push_back(status);
      traced.ns.push_back(0);
    }
  };

  const std::vector<Cell> table4 = Table4Grid();
  const lp::SimplexOptions simplex = SessionDefaults().simplex;
  Result<std::unique_ptr<UmpProblem>> oump =
      InSpan(tracer, "core.model", id,
             [&] { return MakeOumpProblem(log, rows, OumpSpec{}, simplex); });
  if (oump.ok()) {
    chain(oump->get(), table4);
  } else {
    fail_all(oump.status(), table4.size());
  }
  const Result<UmpSolution>& lambda_cell = traced.cells[kLambdaCell];
  const std::vector<Cell> table56 =
      Table56Row(lambda_cell.ok() ? lambda_cell->output_size : 0, id);
  FumpSpec spec;
  spec.min_support = table56.front().support;
  Result<std::unique_ptr<UmpProblem>> fump =
      InSpan(tracer, "core.fump_model", id,
             [&] { return MakeFumpProblem(log, rows, spec, simplex); });
  if (fump.ok()) {
    chain(fump->get(), table56);
  } else {
    fail_all(fump.status(), table56.size());
  }
  const std::vector<Cell> table7 = Table7Part(id);
  Result<std::unique_ptr<UmpProblem>> dump =
      InSpan(tracer, "core.dump_model", id,
             [&] { return MakeDumpProblem(log, rows, DumpSpec{}, simplex); });
  if (dump.ok()) {
    chain(dump->get(), table7);
  } else {
    fail_all(dump.status(), table7.size());
  }
  return traced;
}

}  // namespace

Result<Outcome> RunPaperSweeps(const RunConfig& config) {
  RunClockStart();
  Outcome outcome;
  Ledger ledger(&outcome);
  std::vector<SearchLog> raws;
  for (size_t i = 0; i < config.plan.logs; ++i) {
    PRIVSAN_ASSIGN_OR_RETURN(
        SearchLog raw,
        GenerateSearchLog(MediumConfig(LogSeed(config.seed, i))));
    raws.push_back(std::move(raw));
  }

  std::vector<double> setup_s;
  std::vector<SanitizerSession> sessions;
  const int repeats = config.trace ? 1 : config.plan.setup_repeats;
  for (int r = 0; r < repeats; ++r) {
    sessions.clear();
    const int64_t start = NowNs();
    for (const SearchLog& raw : raws) {
      PRIVSAN_ASSIGN_OR_RETURN(
          SanitizerSession session,
          SanitizerSession::Create(raw, SessionDefaults()));
      sessions.push_back(std::move(session));
    }
    setup_s.push_back(ToSeconds(NowNs() - start));
  }

  std::vector<std::vector<CellRun>> runs;
  const int64_t pass_start = NowNs();
  for (size_t l = 0; l < sessions.size(); ++l) {
    runs.push_back(SweepLog(sessions[l], l));
  }
  const int64_t pass_ns = NowNs() - pass_start;

  SweepTotals totals;
  std::vector<double> cell_ms;
  for (size_t l = 0; l < sessions.size(); ++l) {
    for (const CellRun& run : runs[l]) {
      cell_ms.push_back(ToMs(run.ns));
      totals.table_ns[run.cell.table] += run.ns;
    }
    VerifyLog(sessions[l], runs[l], l, &ledger, &totals);
  }
  double utility_sum = 0.0;
  int64_t utility_count = 0;
  for (int t = 0; t < 3; ++t) {
    utility_sum += totals.utility_sum[t];
    utility_count += totals.utility_count[t];
  }
  outcome.metrics["utility"] =
      utility_count == 0 ? 0.0
                         : utility_sum / static_cast<double>(utility_count);

  if (!config.trace) {
    outcome.metrics["setup_s"] = Median(setup_s);
    outcome.metrics["pass_s"] = ToSeconds(pass_ns);
    outcome.metrics["peak_rss_mb"] = PeakRssMb();
    outcome.metrics["ok_ratio"] = outcome.ok_ratio();
    return outcome;
  }

  auto mean = [&](Table t) {
    return totals.utility_count[t] == 0
               ? 0.0
               : totals.utility_sum[t] /
                     static_cast<double>(totals.utility_count[t]);
  };
  ReportAnswers(cell_ms, &outcome);
  outcome.metrics["core.oump_sweep_s"] = ToSeconds(totals.table_ns[kTable4]);
  outcome.metrics["core.fump_sweep_s"] = ToSeconds(totals.table_ns[kTable56]);
  outcome.metrics["core.dump_sweep_s"] = ToSeconds(totals.table_ns[kTable7]);
  outcome.metrics["metrics.lambda_ratio"] = mean(kTable4);
  outcome.metrics["metrics.fump_recall"] = mean(kTable56);
  outcome.metrics["metrics.dump_diversity"] = mean(kTable7);

  // Traced replay at the layer level on freshly preprocessed copies of the
  // same logs (preprocessing and rows stay outside the pass, as in set-up).
  std::vector<SearchLog> logs;
  std::vector<DpConstraintSystem> rows;
  for (const SearchLog& raw : raws) {
    logs.push_back(RemoveUniquePairs(raw).log);
    PRIVSAN_ASSIGN_OR_RETURN(DpConstraintSystem system,
                             DpConstraintSystem::BuildRows(logs.back()));
    rows.push_back(std::move(system));
  }
  Tracer tracer(true);
  std::vector<TracedLog> traced;
  for (size_t l = 0; l < logs.size(); ++l) {
    Tracer::Scope root(tracer, "bench.log", l);
    traced.push_back(TraceLog(tracer, logs[l], &rows[l], l));
  }

  std::vector<double> oump_cold_ms, oump_warm_ms, greedy_ms, lpround_ms;
  int64_t oump_warm_iterations = 0, fump_warm_iterations = 0,
          fump_cold_iterations = 0, fump_repair_aborted = 0,
          lpround_iterations = 0;
  for (size_t l = 0; l < logs.size(); ++l) {
    for (size_t i = 0; i < traced[l].cells.size(); ++i) {
      const Cell& cell = runs[l][i].cell;
      const Result<UmpSolution>& solution = traced[l].cells[i];
      const Result<UmpSolution>& session_cell = runs[l][i].solution;
      std::string why = solution.ok() ? "" : solution.status().ToString();
      bool ok = solution.ok() &&
                CountsSatisfyPrivacy(logs[l], &rows[l], cell.query.privacy,
                                     solution->x, &why);
      // LP rounding may land on another optimal vertex than the session's
      // chain did; every other cell must reproduce the session's answer.
      const bool lp_rounding =
          cell.table == kTable7 &&
          *cell.query.solver == DumpSolverKind::kLpRounding;
      if (ok && !lp_rounding &&
          (!session_cell.ok() || !SameObjective(solution->objective_value,
                                                session_cell->objective_value))) {
        ok = false;
        why = "traced objective differs from the session's";
      }
      ledger.Op(ok, "traced log " + std::to_string(l) + " cell " +
                        std::to_string(i) + ": " + why);
      if (!solution.ok()) continue;
      const double ms = ToMs(traced[l].ns[i]);
      const int64_t iterations = solution->stats.simplex_iterations;
      if (cell.table == kTable4) {
        (i == 0 ? oump_cold_ms : oump_warm_ms).push_back(ms);
        if (i > 0) oump_warm_iterations += iterations;
      } else if (cell.table == kTable56) {
        fump_warm_iterations += iterations;
        fump_repair_aborted += solution->stats.repair_aborted;
      } else if (*cell.query.solver == DumpSolverKind::kGreedy) {
        greedy_ms.push_back(ms);
      } else if (lp_rounding) {
        lpround_ms.push_back(ms);
        lpround_iterations += iterations;
      }
    }
  }
  int64_t untraced_ns = 0;
  for (int64_t ns : totals.table_ns) untraced_ns += ns;
  ReportTracedPass(tracer.spans(), untraced_ns, &outcome, &ledger);

  // Per-cell cold references for every Table 5/6 cell, outside the pass.
  for (size_t l = 0; l < logs.size(); ++l) {
    for (size_t i = 0; i < traced[l].cells.size(); ++i) {
      const Cell& cell = runs[l][i].cell;
      const Result<UmpSolution>& warm = traced[l].cells[i];
      if (cell.table != kTable56) continue;
      FumpSpec spec;
      spec.min_support = cell.support;
      const Status late = CheckRunDeadline();
      Result<std::unique_ptr<UmpProblem>> problem =
          late.ok() ? MakeFumpProblem(logs[l], &rows[l], spec,
                                      SessionDefaults().simplex)
                    : Result<std::unique_ptr<UmpProblem>>(late);
      Result<UmpSolution> cold = problem.ok()
                                     ? (*problem)->Solve(cell.query)
                                     : Result<UmpSolution>(problem.status());
      if (cold.ok()) fump_cold_iterations += cold->stats.simplex_iterations;
      ledger.Op(warm.ok() && cold.ok() &&
                    SameObjective(warm->objective_value,
                                  cold->objective_value),
                "log " + std::to_string(l) + " F-UMP cell " +
                    std::to_string(i) + ": warm objective differs from cold");
    }
  }

  std::map<std::string, std::vector<double>> ms =
      SpanMsByName(tracer.spans());
  outcome.metrics["core.fump_model_ms"] = Median(ms["core.fump_model"]);
  outcome.metrics["core.dump_spe_ms"] = Median(ms["core.dump_spe"]);
  outcome.metrics["lp.oump_cold_cell_ms"] = Median(oump_cold_ms);
  outcome.metrics["lp.oump_warm_cell_ms"] = Median(oump_warm_ms);
  outcome.metrics["lp.oump_warm_iterations"] =
      static_cast<double>(oump_warm_iterations);
  outcome.metrics["lp.fump_warm_iterations"] =
      static_cast<double>(fump_warm_iterations);
  outcome.metrics["lp.fump_cold_iterations"] =
      static_cast<double>(fump_cold_iterations);
  outcome.metrics["lp.fump_warm_to_cold"] =
      fump_cold_iterations == 0
          ? 0.0
          : static_cast<double>(fump_warm_iterations) /
                static_cast<double>(fump_cold_iterations);
  outcome.metrics["lp.fump_repair_aborted"] =
      static_cast<double>(fump_repair_aborted);
  outcome.metrics["lp.dump_greedy_ms"] = Median(greedy_ms);
  outcome.metrics["lp.dump_lpround_ms"] = Median(lpround_ms);
  outcome.metrics["lp.dump_lpround_iterations"] =
      static_cast<double>(lpround_iterations);
  outcome.metrics["ok_ratio"] = outcome.ok_ratio();
  outcome.spans = tracer.spans();
  return outcome;
}

}  // namespace perfbench
