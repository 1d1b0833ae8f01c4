#include "net/codec.h"

#include <sstream>
#include <utility>
#include <variant>
#include <vector>

#include "lp/basis_io.h"
#include "serve/snapshot.h"
#include "util/binary_io.h"

namespace privsan {
namespace net {

namespace {

using binary_io::ReadCount;
using binary_io::ReadScalar;
using binary_io::ReadString;
using binary_io::WriteScalar;
using binary_io::WriteString;

// Mirrors the snapshot codec's element cap: bounds every vector count in a
// payload so corrupt frames fail before allocating.
constexpr uint64_t kMaxElements = 1ull << 26;

// Conservative lower bounds on the wire size of compound elements, for
// ReadBoundedCount: well under the true encoded sizes, so legitimate
// payloads always pass.
constexpr uint64_t kMinSolutionWireBytes = 64;  // true minimum is ~100
constexpr uint64_t kMinQueryWireBytes = 26;     // 2 doubles + u64 + 2 flags

// Reads an element count and bounds it by the bytes actually remaining in
// the payload stream. ReadCount's kMaxElements cap alone still lets a
// hostile count in a tiny frame force a ~512MB up-front resize (2^26
// 8-byte elements) that only fails afterwards on EOF; the payload length
// is known, so a count the frame cannot possibly back fails first.
Result<uint64_t> ReadBoundedCount(std::istream& in,
                                  uint64_t min_bytes_per_element) {
  PRIVSAN_ASSIGN_OR_RETURN(uint64_t count, ReadCount(in, kMaxElements));
  const auto pos = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  const uint64_t remaining =
      (pos >= 0 && end > pos) ? static_cast<uint64_t>(end - pos) : 0;
  // count <= 2^26 and element sizes are small: the product cannot wrap.
  if (count * min_bytes_per_element > remaining) {
    return Status::InvalidArgument(
        "malformed frame payload: element count " + std::to_string(count) +
        " exceeds the " + std::to_string(remaining) +
        " bytes remaining in the frame");
  }
  return count;
}

Status CheckDrained(std::istringstream& in) {
  if (in.peek() != std::char_traits<char>::eof()) {
    return Status::InvalidArgument(
        "malformed frame payload: trailing bytes after the last field");
  }
  return Status::OK();
}

// --- Leaf codecs -----------------------------------------------------------

void WriteQuery(std::ostream& out, const UmpQuery& query) {
  WriteScalar<double>(out, query.privacy.epsilon);
  WriteScalar<double>(out, query.privacy.delta);
  WriteScalar<uint64_t>(out, query.output_size);
  WriteScalar<uint8_t>(out, query.solver.has_value() ? 1 : 0);
  WriteScalar<uint8_t>(
      out, query.solver.has_value()
               ? static_cast<uint8_t>(*query.solver)
               : 0);
}

Result<UmpQuery> ReadQuery(std::istream& in) {
  UmpQuery query;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &query.privacy.epsilon));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &query.privacy.delta));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &query.output_size));
  uint8_t has_solver = 0, solver = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &has_solver));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &solver));
  if (has_solver != 0) {
    if (solver > static_cast<uint8_t>(DumpSolverKind::kBranchAndBound)) {
      return Status::InvalidArgument(
          "malformed frame payload: unknown D-UMP solver kind " +
          std::to_string(solver));
    }
    query.solver = static_cast<DumpSolverKind>(solver);
  }
  return query;
}

Result<UtilityObjective> ReadObjective(std::istream& in) {
  uint8_t objective = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &objective));
  if (objective > static_cast<uint8_t>(UtilityObjective::kDiversity)) {
    return Status::InvalidArgument(
        "malformed frame payload: unknown objective " +
        std::to_string(objective));
  }
  return static_cast<UtilityObjective>(objective);
}

void WriteStats(std::ostream& out, const UmpStats& stats) {
  WriteScalar<int64_t>(out, stats.simplex_iterations);
  WriteScalar<int64_t>(out, stats.dual_iterations);
  WriteScalar<int32_t>(out, stats.refactorizations);
  WriteScalar<int32_t>(out, stats.basis_repairs);
  WriteScalar<int64_t>(out, stats.repair_aborted);
  WriteScalar<int64_t>(out, stats.nodes_explored);
  WriteScalar<int64_t>(out, stats.warm_solves);
  WriteScalar<uint8_t>(out, stats.warm_started ? 1 : 0);
  WriteScalar<int64_t>(out, stats.root_iterations);
  WriteScalar<int32_t>(out, stats.integer_fixed);
  WriteScalar<uint64_t>(out, static_cast<uint64_t>(stats.factor_nnz));
  WriteScalar<int32_t>(out, stats.max_update_run);
  WriteScalar<double>(out, stats.wall_seconds);
}

Status ReadStats(std::istream& in, UmpStats* stats) {
  int32_t i32 = 0;
  uint8_t u8 = 0;
  uint64_t u64 = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->simplex_iterations));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->dual_iterations));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &i32));
  stats->refactorizations = i32;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &i32));
  stats->basis_repairs = i32;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->repair_aborted));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->nodes_explored));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->warm_solves));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &u8));
  stats->warm_started = u8 != 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->root_iterations));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &i32));
  stats->integer_fixed = i32;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &u64));
  stats->factor_nnz = static_cast<size_t>(u64);
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &i32));
  stats->max_update_run = i32;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->wall_seconds));
  return Status::OK();
}

void WriteSolution(std::ostream& out, const UmpSolution& solution) {
  WriteScalar<uint8_t>(out, static_cast<uint8_t>(solution.objective));
  WriteScalar<uint64_t>(out, solution.x.size());
  for (uint64_t value : solution.x) WriteScalar<uint64_t>(out, value);
  WriteScalar<uint64_t>(out, solution.x_relaxed.size());
  for (double value : solution.x_relaxed) WriteScalar<double>(out, value);
  WriteScalar<double>(out, solution.objective_value);
  WriteScalar<uint64_t>(out, solution.output_size);
  lp::WriteBasis(out, solution.basis);
  WriteStats(out, solution.stats);
  WriteScalar<uint64_t>(out, solution.frequent_pairs.size());
  for (PairId pair : solution.frequent_pairs) {
    WriteScalar<uint32_t>(out, pair);
  }
  WriteScalar<uint8_t>(out, solution.used_precision_caps ? 1 : 0);
  WriteScalar<uint8_t>(out, solution.proven_optimal ? 1 : 0);
}

Result<UmpSolution> ReadSolution(std::istream& in) {
  UmpSolution solution;
  PRIVSAN_ASSIGN_OR_RETURN(UtilityObjective objective, ReadObjective(in));
  solution.objective = objective;
  PRIVSAN_ASSIGN_OR_RETURN(uint64_t n,
                           ReadBoundedCount(in, sizeof(uint64_t)));
  solution.x.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &solution.x[i]));
  }
  PRIVSAN_ASSIGN_OR_RETURN(n, ReadBoundedCount(in, sizeof(double)));
  solution.x_relaxed.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &solution.x_relaxed[i]));
  }
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &solution.objective_value));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &solution.output_size));
  PRIVSAN_ASSIGN_OR_RETURN(solution.basis, lp::ReadBasis(in));
  PRIVSAN_RETURN_IF_ERROR(ReadStats(in, &solution.stats));
  PRIVSAN_ASSIGN_OR_RETURN(n, ReadBoundedCount(in, sizeof(uint32_t)));
  solution.frequent_pairs.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &solution.frequent_pairs[i]));
  }
  uint8_t flag = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &flag));
  solution.used_precision_caps = flag != 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &flag));
  solution.proven_optimal = flag != 0;
  return solution;
}

void WriteSweep(std::ostream& out, const SweepResult& sweep) {
  WriteScalar<uint64_t>(out, sweep.cells.size());
  for (const UmpSolution& cell : sweep.cells) WriteSolution(out, cell);
  WriteScalar<int64_t>(out, sweep.total_simplex_iterations);
  WriteScalar<int64_t>(out, sweep.total_dual_iterations);
  WriteScalar<int64_t>(out, sweep.total_root_iterations);
  WriteScalar<int64_t>(out, sweep.warm_solves);
  WriteScalar<int64_t>(out, sweep.repair_aborted);
  WriteScalar<uint64_t>(out, static_cast<uint64_t>(sweep.factor_nnz));
  WriteScalar<int32_t>(out, sweep.max_update_run);
  WriteScalar<double>(out, sweep.wall_seconds);
}

Result<SweepResult> ReadSweep(std::istream& in) {
  SweepResult sweep;
  PRIVSAN_ASSIGN_OR_RETURN(uint64_t cells,
                           ReadBoundedCount(in, kMinSolutionWireBytes));
  sweep.cells.reserve(cells);
  for (uint64_t i = 0; i < cells; ++i) {
    PRIVSAN_ASSIGN_OR_RETURN(UmpSolution cell, ReadSolution(in));
    sweep.cells.push_back(std::move(cell));
  }
  uint64_t u64 = 0;
  int32_t i32 = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &sweep.total_simplex_iterations));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &sweep.total_dual_iterations));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &sweep.total_root_iterations));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &sweep.warm_solves));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &sweep.repair_aborted));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &u64));
  sweep.factor_nnz = static_cast<size_t>(u64);
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &i32));
  sweep.max_update_run = i32;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &sweep.wall_seconds));
  return sweep;
}

void WriteReport(std::ostream& out, const SanitizeReport& report) {
  serve::WriteSearchLog(out, report.output);
  serve::WriteSearchLog(out, report.preprocessed_input);
  WriteScalar<uint64_t>(out, report.preprocess_stats.pairs_removed);
  WriteScalar<uint64_t>(out, report.preprocess_stats.pairs_retained);
  WriteScalar<uint64_t>(out, report.preprocess_stats.users_dropped);
  WriteScalar<uint64_t>(out, report.preprocess_stats.clicks_removed);
  WriteScalar<uint64_t>(out, report.preprocess_stats.clicks_retained);
  WriteScalar<uint64_t>(out, report.optimal_counts.size());
  for (uint64_t count : report.optimal_counts) {
    WriteScalar<uint64_t>(out, count);
  }
  WriteScalar<uint64_t>(out, report.output_size);
  WriteScalar<uint8_t>(out, report.audit.satisfies_privacy ? 1 : 0);
  WriteScalar<uint8_t>(out, report.audit.condition1_ok ? 1 : 0);
  WriteScalar<uint8_t>(out, report.audit.condition2_ok ? 1 : 0);
  WriteScalar<uint8_t>(out, report.audit.condition3_ok ? 1 : 0);
  WriteScalar<double>(out, report.audit.max_ratio);
  WriteScalar<double>(out, report.audit.max_leak_probability);
  WriteScalar<uint32_t>(out, report.audit.worst_user);
  WriteScalar<double>(out, report.audit.max_row_lhs);
  WriteScalar<double>(out, report.audit.budget);
  WriteStats(out, report.stats);
  WriteScalar<double>(out, report.solve_seconds);
}

Result<SanitizeReport> ReadReport(std::istream& in) {
  SanitizeReport report;
  PRIVSAN_ASSIGN_OR_RETURN(report.output, serve::ReadSearchLog(in));
  PRIVSAN_ASSIGN_OR_RETURN(report.preprocessed_input,
                           serve::ReadSearchLog(in));
  uint64_t u64 = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &u64));
  report.preprocess_stats.pairs_removed = static_cast<size_t>(u64);
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &u64));
  report.preprocess_stats.pairs_retained = static_cast<size_t>(u64);
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &u64));
  report.preprocess_stats.users_dropped = static_cast<size_t>(u64);
  PRIVSAN_RETURN_IF_ERROR(
      ReadScalar(in, &report.preprocess_stats.clicks_removed));
  PRIVSAN_RETURN_IF_ERROR(
      ReadScalar(in, &report.preprocess_stats.clicks_retained));
  PRIVSAN_ASSIGN_OR_RETURN(uint64_t n,
                           ReadBoundedCount(in, sizeof(uint64_t)));
  report.optimal_counts.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &report.optimal_counts[i]));
  }
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &report.output_size));
  uint8_t flag = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &flag));
  report.audit.satisfies_privacy = flag != 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &flag));
  report.audit.condition1_ok = flag != 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &flag));
  report.audit.condition2_ok = flag != 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &flag));
  report.audit.condition3_ok = flag != 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &report.audit.max_ratio));
  PRIVSAN_RETURN_IF_ERROR(
      ReadScalar(in, &report.audit.max_leak_probability));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &report.audit.worst_user));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &report.audit.max_row_lhs));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &report.audit.budget));
  PRIVSAN_RETURN_IF_ERROR(ReadStats(in, &report.stats));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &report.solve_seconds));
  return report;
}

void WriteTenantStats(std::ostream& out, const serve::TenantStats& stats) {
  WriteScalar<uint64_t>(out, stats.appends_enqueued);
  WriteScalar<uint64_t>(out, stats.flushes);
  WriteScalar<uint64_t>(out, stats.appends_coalesced);
  WriteScalar<uint64_t>(out, stats.maintenance_flushes);
  WriteScalar<uint64_t>(out, stats.solves);
  WriteScalar<uint64_t>(out, stats.cache_hits);
  WriteScalar<uint64_t>(out, stats.cache_misses);
  WriteScalar<uint64_t>(out, stats.repair_aborted);
  WriteScalar<uint64_t>(out, stats.refactorizations);
  WriteScalar<uint64_t>(out, stats.factor_nnz);
  WriteScalar<uint64_t>(out, stats.max_update_run);
  WriteScalar<uint64_t>(out, stats.rows_copied);
  WriteScalar<uint64_t>(out, stats.rows_rebuilt);
  WriteScalar<uint64_t>(out, stats.refresh_solves);
  WriteScalar<uint64_t>(out, stats.evictions);
  WriteScalar<uint64_t>(out, stats.reloads);
  WriteScalar<uint64_t>(out, stats.resident_bytes);
  WriteScalar<uint64_t>(out, stats.fast_lane_hits);
  WriteScalar<uint64_t>(out, stats.admission_rejected);
  WriteScalar<uint64_t>(out, stats.users_removed);
  WriteScalar<uint64_t>(out, stats.rows_patched_on_remove);
  WriteScalar<uint64_t>(out, stats.epsilon_spent_micro);
  WriteScalar<uint64_t>(out, stats.budget_refusals);
}

Status ReadTenantStats(std::istream& in, serve::TenantStats* stats) {
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->appends_enqueued));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->flushes));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->appends_coalesced));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->maintenance_flushes));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->solves));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->cache_hits));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->cache_misses));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->repair_aborted));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->refactorizations));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->factor_nnz));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->max_update_run));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->rows_copied));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->rows_rebuilt));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->refresh_solves));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->evictions));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->reloads));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->resident_bytes));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->fast_lane_hits));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->admission_rejected));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->users_removed));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->rows_patched_on_remove));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->epsilon_spent_micro));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &stats->budget_refusals));
  return Status::OK();
}

void WriteSlowLogDump(std::ostream& out, const serve::SlowLogDump& dump) {
  WriteScalar<uint64_t>(out, dump.records.size());
  for (const obs::SlowRequestRecord& record : dump.records) {
    WriteScalar<uint64_t>(out, record.sequence);
    WriteString(out, record.tenant);
    WriteString(out, record.verb);
    WriteScalar<uint16_t>(out, record.status_code);
    WriteScalar<double>(out, record.total_ms);
    WriteScalar<double>(out, record.trace.queue_ms);
    WriteScalar<double>(out, record.trace.flush_ms);
    WriteScalar<double>(out, record.trace.solve_ms);
    WriteScalar<double>(out, record.trace.cache_ms);
    WriteScalar<uint64_t>(out, record.trace.repair_pivots);
    WriteScalar<uint64_t>(out, record.trace.iterations);
  }
  WriteScalar<uint64_t>(out, dump.dropped);
  WriteScalar<double>(out, dump.threshold_ms);
}

// Fixed fields of one slow record (sequence + status + 5 doubles + 2 u64
// + two string length prefixes), a conservative floor for ReadBoundedCount.
constexpr uint64_t kMinSlowRecordWireBytes = 82;

Result<serve::SlowLogDump> ReadSlowLogDump(std::istream& in) {
  serve::SlowLogDump dump;
  PRIVSAN_ASSIGN_OR_RETURN(uint64_t n,
                           ReadBoundedCount(in, kMinSlowRecordWireBytes));
  dump.records.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    obs::SlowRequestRecord record;
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &record.sequence));
    PRIVSAN_ASSIGN_OR_RETURN(record.tenant, ReadString(in));
    PRIVSAN_ASSIGN_OR_RETURN(record.verb, ReadString(in));
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &record.status_code));
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &record.total_ms));
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &record.trace.queue_ms));
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &record.trace.flush_ms));
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &record.trace.solve_ms));
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &record.trace.cache_ms));
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &record.trace.repair_pivots));
    PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &record.trace.iterations));
    dump.records.push_back(std::move(record));
  }
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &dump.dropped));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &dump.threshold_ms));
  return dump;
}

void WriteBudgetStatus(std::ostream& out, const serve::BudgetStatus& budget) {
  WriteScalar<double>(out, budget.max_epsilon);
  WriteScalar<double>(out, budget.max_delta);
  WriteScalar<double>(out, budget.min_remaining_epsilon);
  WriteString(out, budget.composition);
  WriteScalar<double>(out, budget.spent_epsilon);
  WriteScalar<double>(out, budget.spent_delta);
  WriteScalar<double>(out, budget.remaining_epsilon);
  WriteScalar<uint8_t>(out, budget.enforced ? 1 : 0);
  WriteScalar<uint64_t>(out, budget.allocations);
  WriteScalar<uint64_t>(out, budget.refusals);
}

Result<serve::BudgetStatus> ReadBudgetStatus(std::istream& in) {
  serve::BudgetStatus budget;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget.max_epsilon));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget.max_delta));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget.min_remaining_epsilon));
  PRIVSAN_ASSIGN_OR_RETURN(budget.composition, ReadString(in));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget.spent_epsilon));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget.spent_delta));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget.remaining_epsilon));
  uint8_t enforced = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &enforced));
  budget.enforced = enforced != 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget.allocations));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget.refusals));
  return budget;
}

// The tenant-scoped stream configuration shipped inside CreateTenant:
// the budget config then the window policy, fixed-width.
void WriteStreamConfig(std::ostream& out, const stream::BudgetConfig& budget,
                       const stream::WindowPolicy& window) {
  WriteScalar<double>(out, budget.max_epsilon);
  WriteScalar<double>(out, budget.max_delta);
  WriteScalar<double>(out, budget.min_remaining_epsilon);
  WriteScalar<uint8_t>(out, static_cast<uint8_t>(budget.composition));
  WriteScalar<double>(out, budget.advanced_delta_slack);
  WriteScalar<uint8_t>(out, static_cast<uint8_t>(window.kind));
  WriteScalar<uint64_t>(out, window.span);
}

Status ReadStreamConfig(std::istream& in, stream::BudgetConfig* budget,
                        stream::WindowPolicy* window) {
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget->max_epsilon));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget->max_delta));
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget->min_remaining_epsilon));
  uint8_t composition = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &composition));
  if (composition > static_cast<uint8_t>(stream::Composition::kAdvanced)) {
    return Status::InvalidArgument(
        "malformed frame payload: unknown composition mode " +
        std::to_string(composition));
  }
  budget->composition = static_cast<stream::Composition>(composition);
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &budget->advanced_delta_slack));
  uint8_t kind = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &kind));
  if (kind > static_cast<uint8_t>(stream::WindowKind::kTumbling)) {
    return Status::InvalidArgument(
        "malformed frame payload: unknown window kind " +
        std::to_string(kind));
  }
  window->kind = static_cast<stream::WindowKind>(kind);
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &window->span));
  return Status::OK();
}

// A user name on the wire is at least its length prefix, a conservative
// floor for ReadBoundedCount in RemoveUsers.
constexpr uint64_t kMinUserNameWireBytes = 4;

// Response payload kinds (the ServePayload variant, by index).
constexpr uint8_t kPayloadNone = 0;
constexpr uint8_t kPayloadSolution = 1;
constexpr uint8_t kPayloadSweep = 2;
constexpr uint8_t kPayloadReport = 3;
constexpr uint8_t kPayloadStats = 4;
constexpr uint8_t kPayloadMetrics = 5;
constexpr uint8_t kPayloadSlowLog = 6;
constexpr uint8_t kPayloadBudget = 7;

}  // namespace

// --- Requests --------------------------------------------------------------

Result<Frame> EncodeRequest(const serve::ServeRequest& request,
                            uint64_t request_id) {
  Frame frame;
  frame.request_id = request_id;
  std::ostringstream out;
  WriteString(out, serve::RequestTenant(request));

  if (const auto* create =
          std::get_if<serve::CreateTenantRequest>(&request)) {
    if (create->options.has_value()) {
      return Status::InvalidArgument(
          "CreateTenant with a SessionOptions override is not "
          "representable on the wire; configure the backend instead");
    }
    frame.verb = FrameVerb::kCreateTenant;
    serve::WriteSearchLog(out, create->initial);
    WriteStreamConfig(out, create->budget, create->window);
  } else if (const auto* append =
                 std::get_if<serve::AppendRequest>(&request)) {
    frame.verb = FrameVerb::kAppend;
    serve::WriteSearchLog(out, append->logs);
  } else if (std::get_if<serve::FlushRequest>(&request) != nullptr) {
    frame.verb = FrameVerb::kFlush;
  } else if (const auto* solve =
                 std::get_if<serve::SolveRequest>(&request)) {
    frame.verb = FrameVerb::kSolve;
    WriteScalar<uint8_t>(out, static_cast<uint8_t>(solve->objective));
    WriteQuery(out, solve->query);
  } else if (const auto* sweep =
                 std::get_if<serve::SweepRequest>(&request)) {
    frame.verb = FrameVerb::kSweep;
    WriteScalar<uint8_t>(out, static_cast<uint8_t>(sweep->objective));
    WriteScalar<uint64_t>(out, sweep->grid.size());
    for (const UmpQuery& query : sweep->grid) WriteQuery(out, query);
    WriteScalar<uint8_t>(out, sweep->sweep.warm_start ? 1 : 0);
    WriteScalar<uint8_t>(out, sweep->sweep.min_support.has_value() ? 1 : 0);
    WriteScalar<double>(out, sweep->sweep.min_support.value_or(0.0));
  } else if (const auto* sanitize =
                 std::get_if<serve::SanitizeRequest>(&request)) {
    frame.verb = FrameVerb::kSanitize;
    WriteScalar<double>(out, sanitize->privacy.epsilon);
    WriteScalar<double>(out, sanitize->privacy.delta);
  } else if (std::get_if<serve::StatsRequest>(&request) != nullptr) {
    frame.verb = FrameVerb::kStats;
  } else if (const auto* save =
                 std::get_if<serve::SaveSnapshotRequest>(&request)) {
    frame.verb = FrameVerb::kSaveSnapshot;
    WriteString(out, save->path);
  } else if (const auto* restore =
                 std::get_if<serve::RestoreTenantRequest>(&request)) {
    if (restore->options.has_value()) {
      return Status::InvalidArgument(
          "RestoreTenant with a SessionOptions override is not "
          "representable on the wire; configure the backend instead");
    }
    frame.verb = FrameVerb::kRestoreTenant;
    WriteString(out, restore->path);
  } else if (std::get_if<serve::DropTenantRequest>(&request) != nullptr) {
    frame.verb = FrameVerb::kDropTenant;
  } else if (std::get_if<serve::MetricsRequest>(&request) != nullptr) {
    frame.verb = FrameVerb::kMetrics;
  } else if (const auto* slowlog =
                 std::get_if<serve::SlowLogRequest>(&request)) {
    frame.verb = FrameVerb::kSlowLog;
    WriteScalar<uint64_t>(out, slowlog->limit);
  } else if (const auto* remove =
                 std::get_if<serve::RemoveUsersRequest>(&request)) {
    frame.verb = FrameVerb::kRemoveUsers;
    WriteScalar<uint64_t>(out, remove->users.size());
    for (const std::string& user : remove->users) WriteString(out, user);
  } else if (const auto* expire =
                 std::get_if<serve::ExpireWindowRequest>(&request)) {
    frame.verb = FrameVerb::kExpireWindow;
    WriteScalar<uint64_t>(out, expire->cutoff);
  } else if (std::get_if<serve::BudgetStatusRequest>(&request) != nullptr) {
    frame.verb = FrameVerb::kBudgetStatus;
  } else {
    return Status::Internal("unhandled serve request alternative");
  }

  frame.payload = std::move(out).str();
  if (frame.payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "request payload of " + std::to_string(frame.payload.size()) +
        " bytes exceeds the frame cap; split the append into smaller "
        "batches");
  }
  return frame;
}

Result<serve::ServeRequest> DecodeRequest(const Frame& frame) {
  if (frame.verb == FrameVerb::kResponse) {
    return Status::InvalidArgument(
        "expected a request frame, got a response");
  }
  std::istringstream in(frame.payload);
  PRIVSAN_ASSIGN_OR_RETURN(std::string tenant, ReadString(in));
  serve::ServeRequest request;

  switch (frame.verb) {
    case FrameVerb::kCreateTenant: {
      PRIVSAN_ASSIGN_OR_RETURN(SearchLog initial, serve::ReadSearchLog(in));
      serve::CreateTenantRequest create{std::move(tenant),
                                        std::move(initial), std::nullopt};
      PRIVSAN_RETURN_IF_ERROR(
          ReadStreamConfig(in, &create.budget, &create.window));
      request = std::move(create);
      break;
    }
    case FrameVerb::kAppend: {
      PRIVSAN_ASSIGN_OR_RETURN(SearchLog logs, serve::ReadSearchLog(in));
      request = serve::AppendRequest{std::move(tenant), std::move(logs)};
      break;
    }
    case FrameVerb::kFlush:
      request = serve::FlushRequest{std::move(tenant)};
      break;
    case FrameVerb::kSolve: {
      PRIVSAN_ASSIGN_OR_RETURN(UtilityObjective objective,
                               ReadObjective(in));
      PRIVSAN_ASSIGN_OR_RETURN(UmpQuery query, ReadQuery(in));
      request = serve::SolveRequest{std::move(tenant), objective, query};
      break;
    }
    case FrameVerb::kSweep: {
      PRIVSAN_ASSIGN_OR_RETURN(UtilityObjective objective,
                               ReadObjective(in));
      PRIVSAN_ASSIGN_OR_RETURN(uint64_t cells,
                               ReadBoundedCount(in, kMinQueryWireBytes));
      std::vector<UmpQuery> grid;
      grid.reserve(cells);
      for (uint64_t i = 0; i < cells; ++i) {
        PRIVSAN_ASSIGN_OR_RETURN(UmpQuery query, ReadQuery(in));
        grid.push_back(query);
      }
      SweepOptions sweep;
      uint8_t warm = 0, has_support = 0;
      double support = 0.0;
      PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &warm));
      PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &has_support));
      PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &support));
      sweep.warm_start = warm != 0;
      if (has_support != 0) sweep.min_support = support;
      request = serve::SweepRequest{std::move(tenant), objective,
                                    std::move(grid), sweep};
      break;
    }
    case FrameVerb::kSanitize: {
      PrivacyParams privacy;
      PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &privacy.epsilon));
      PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &privacy.delta));
      request = serve::SanitizeRequest{std::move(tenant), privacy};
      break;
    }
    case FrameVerb::kStats:
      request = serve::StatsRequest{std::move(tenant)};
      break;
    case FrameVerb::kSaveSnapshot: {
      PRIVSAN_ASSIGN_OR_RETURN(std::string path, ReadString(in));
      request = serve::SaveSnapshotRequest{std::move(tenant),
                                           std::move(path)};
      break;
    }
    case FrameVerb::kRestoreTenant: {
      PRIVSAN_ASSIGN_OR_RETURN(std::string path, ReadString(in));
      request = serve::RestoreTenantRequest{std::move(tenant),
                                            std::move(path), std::nullopt};
      break;
    }
    case FrameVerb::kDropTenant:
      request = serve::DropTenantRequest{std::move(tenant)};
      break;
    case FrameVerb::kMetrics:
      request = serve::MetricsRequest{std::move(tenant)};
      break;
    case FrameVerb::kSlowLog: {
      serve::SlowLogRequest slowlog;
      slowlog.tenant = std::move(tenant);
      PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &slowlog.limit));
      request = std::move(slowlog);
      break;
    }
    case FrameVerb::kRemoveUsers: {
      PRIVSAN_ASSIGN_OR_RETURN(uint64_t n,
                               ReadBoundedCount(in, kMinUserNameWireBytes));
      std::vector<std::string> users;
      users.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        PRIVSAN_ASSIGN_OR_RETURN(std::string user, ReadString(in));
        users.push_back(std::move(user));
      }
      request = serve::RemoveUsersRequest{std::move(tenant),
                                          std::move(users)};
      break;
    }
    case FrameVerb::kExpireWindow: {
      uint64_t cutoff = 0;
      PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &cutoff));
      request = serve::ExpireWindowRequest{std::move(tenant), cutoff};
      break;
    }
    case FrameVerb::kBudgetStatus:
      request = serve::BudgetStatusRequest{std::move(tenant)};
      break;
    case FrameVerb::kResponse:
      return Status::Internal("unreachable");
  }
  PRIVSAN_RETURN_IF_ERROR(CheckDrained(in));
  return request;
}

// --- Responses -------------------------------------------------------------

Frame EncodeResponse(const serve::ServeResponse& response,
                     uint64_t request_id) {
  Frame frame;
  frame.verb = FrameVerb::kResponse;
  frame.status = static_cast<uint16_t>(response.status.code());
  frame.request_id = request_id;
  std::ostringstream out;
  WriteString(out, response.status.ok() ? std::string()
                                        : response.status.message());
  if (const UmpSolution* solution = response.solution()) {
    WriteScalar<uint8_t>(out, kPayloadSolution);
    WriteSolution(out, *solution);
  } else if (const SweepResult* sweep = response.sweep()) {
    WriteScalar<uint8_t>(out, kPayloadSweep);
    WriteSweep(out, *sweep);
  } else if (const SanitizeReport* report = response.report()) {
    WriteScalar<uint8_t>(out, kPayloadReport);
    WriteReport(out, *report);
  } else if (const serve::TenantStats* stats = response.stats()) {
    WriteScalar<uint8_t>(out, kPayloadStats);
    WriteTenantStats(out, *stats);
  } else if (const serve::MetricsText* metrics = response.metrics()) {
    WriteScalar<uint8_t>(out, kPayloadMetrics);
    WriteString(out, metrics->text);
  } else if (const serve::SlowLogDump* slowlog = response.slow_log()) {
    WriteScalar<uint8_t>(out, kPayloadSlowLog);
    WriteSlowLogDump(out, *slowlog);
  } else if (const serve::BudgetStatus* budget = response.budget()) {
    WriteScalar<uint8_t>(out, kPayloadBudget);
    WriteBudgetStatus(out, *budget);
  } else {
    WriteScalar<uint8_t>(out, kPayloadNone);
  }
  frame.payload = std::move(out).str();
  if (frame.payload.size() > kMaxFramePayload) {
    // Larger than any frame the peer's decoder accepts: shipping it would
    // be rejected as malformed and tear down the connection (failing every
    // pipelined request with it). Substitute a typed error the client can
    // decode and act on.
    return EncodeResponse(
        serve::ServeResponse{
            Status::ResourceExhausted(
                "response payload of " +
                std::to_string(frame.payload.size()) + " bytes exceeds the " +
                std::to_string(kMaxFramePayload) + "-byte frame cap"),
            {}},
        request_id);
  }
  return frame;
}

Result<serve::ServeResponse> DecodeResponse(const Frame& frame) {
  if (frame.verb != FrameVerb::kResponse) {
    return Status::InvalidArgument("expected a response frame, got " +
                                   std::string(FrameVerbName(frame.verb)));
  }
  if (frame.status > static_cast<uint16_t>(StatusCode::kBudgetExhausted)) {
    return Status::InvalidArgument(
        "malformed response frame: unknown status code " +
        std::to_string(frame.status));
  }
  std::istringstream in(frame.payload);
  PRIVSAN_ASSIGN_OR_RETURN(std::string message, ReadString(in));
  serve::ServeResponse response;
  response.status =
      frame.status == 0
          ? Status::OK()
          : Status(static_cast<StatusCode>(frame.status), std::move(message));
  uint8_t kind = 0;
  PRIVSAN_RETURN_IF_ERROR(ReadScalar(in, &kind));
  switch (kind) {
    case kPayloadNone:
      break;
    case kPayloadSolution: {
      PRIVSAN_ASSIGN_OR_RETURN(UmpSolution solution, ReadSolution(in));
      response.payload = std::move(solution);
      break;
    }
    case kPayloadSweep: {
      PRIVSAN_ASSIGN_OR_RETURN(SweepResult sweep, ReadSweep(in));
      response.payload = std::move(sweep);
      break;
    }
    case kPayloadReport: {
      PRIVSAN_ASSIGN_OR_RETURN(SanitizeReport report, ReadReport(in));
      response.payload = std::move(report);
      break;
    }
    case kPayloadStats: {
      serve::TenantStats stats;
      PRIVSAN_RETURN_IF_ERROR(ReadTenantStats(in, &stats));
      response.payload = stats;
      break;
    }
    case kPayloadMetrics: {
      serve::MetricsText metrics;
      PRIVSAN_ASSIGN_OR_RETURN(metrics.text, ReadString(in));
      response.payload = std::move(metrics);
      break;
    }
    case kPayloadSlowLog: {
      PRIVSAN_ASSIGN_OR_RETURN(serve::SlowLogDump dump, ReadSlowLogDump(in));
      response.payload = std::move(dump);
      break;
    }
    case kPayloadBudget: {
      PRIVSAN_ASSIGN_OR_RETURN(serve::BudgetStatus budget,
                               ReadBudgetStatus(in));
      response.payload = std::move(budget);
      break;
    }
    default:
      return Status::InvalidArgument(
          "malformed response frame: unknown payload kind " +
          std::to_string(kind));
  }
  PRIVSAN_RETURN_IF_ERROR(CheckDrained(in));
  return response;
}

Result<std::string> PeekTenant(const Frame& frame) {
  if (frame.verb == FrameVerb::kResponse) {
    return Status::InvalidArgument("response frames address no tenant");
  }
  std::istringstream in(frame.payload);
  return ReadString(in);
}

}  // namespace net
}  // namespace privsan
