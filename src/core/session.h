// SanitizerSession: the stateful, incremental face of the sanitizer.
//
// A session owns everything that is reusable across solves of the same
// (growing) search log:
//
//   * the accumulated raw input and its Condition-1 preprocessed form;
//   * the shared DP constraint rows (built once per preprocessed log — the
//     coefficients never depend on (ε, δ));
//   * one cached UmpProblem per objective (LP/BIP models built once, only
//     right-hand sides rebound per query; O-UMP scales one LP optimum to
//     every budget of the log version, see core/ump.h);
//   * the last optimal O-UMP and D-UMP bases, chained as warm-start hints
//     into the next solve (F-UMP cells solve cold).
//
// On top of plain Solve() it offers:
//
//   * SweepBudgets(grid): solves a whole (ε, δ[, |O|]) grid in order.
//     O-UMP runs the simplex once and scales that optimum to every later
//     cell; D-UMP dual-warm-starts each cell's LP from the previous cell's
//     basis; F-UMP solves each cell cold (Tables 4–7 of the paper are such
//     sweeps);
//   * AppendUsers(logs): appends user logs and remaps the previous optimal
//     basis onto the grown model (appended users become basic slack rows,
//     new pairs enter nonbasic at zero) so the next solve warm-starts from
//     the prior optimum instead of cold-solving — the serve-path primitive.
//     The DP rows are patched incrementally (DpConstraintSystem::PatchRows):
//     only rows of users holding a pair whose click total moved are
//     recomputed, the rest are copied with remapped PairIds;
//   * Sanitize(privacy): the full Algorithm-1 pipeline (solve → optional
//     Laplace noise → multinomial sampling → Theorem-1 audit) on the
//     session's cached state.
//
// Warm starts are a pure optimization: a stale or unusable basis falls
// back to a cold solve inside the simplex, never to a different answer.
// Every answer passes the DP rows at its budget (Theorem 1) before it is
// returned; a violation is an Internal error.
//
// Thread-compatibility contract: a session mutates cached problems and the
// shared DP system in place, so all methods — including the const accessors
// while a solve is running — are single-threaded. Debug builds assert
// overlapping calls. For cross-thread use, serialize access per session or
// go through serve::SanitizerService (the only concurrency-safe entry
// point); parallelism *within* one session's preprocessing comes from
// SessionOptions::pool instead.
#ifndef PRIVSAN_CORE_SESSION_H_
#define PRIVSAN_CORE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/audit.h"
#include "core/laplace_step.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "log/search_log.h"
#include "util/result.h"

namespace privsan {

namespace serve {
class ThreadPool;
}  // namespace serve

struct SessionOptions {
  // Objective used by Sanitize(); Solve()/SweepBudgets() name theirs.
  UtilityObjective objective = UtilityObjective::kOutputSize;
  uint64_t seed = 42;

  OumpSpec oump;
  FumpSpec fump;
  DumpSpec dump;
  lp::SimplexOptions simplex;

  // F-UMP output size used by Sanitize(); 0 = use λ (the O-UMP optimum,
  // solved through the session's cached O-UMP problem).
  uint64_t output_size = 0;

  // Optional end-to-end DP noise on the computed counts (§4.2), applied by
  // Sanitize().
  std::optional<LaplaceStepOptions> laplace;

  // Shards Condition-1 preprocessing and DP-row construction (Create and
  // AppendUsers) across this pool; nullptr = serial. Not owned — must
  // outlive the session. Sharding never changes results, only wall time.
  serve::ThreadPool* pool = nullptr;
};

// What the last AppendUsers actually did — the serve path's hot-spot
// telemetry (rows_copied should dominate once a log is large and appends
// are small).
struct AppendStats {
  size_t appended_users = 0;   // raw users added (pre-merge duplicates)
  size_t rows_copied = 0;      // DP rows reused from the previous system
  size_t rows_rebuilt = 0;     // DP rows recomputed (changed or new users)
  double seconds = 0.0;
};

// What the last RemoveUsers actually did — the deletion mirror of
// AppendStats (stream/window.h drives removals continuously, so the serve
// layer surfaces these per tenant).
struct RemoveStats {
  size_t removed_users = 0;    // named users actually present and removed
  size_t rows_copied = 0;      // DP rows reused from the previous system
  size_t rows_rebuilt = 0;     // DP rows recomputed (a removed user's pairs)
  double seconds = 0.0;
};

// A session's reusable state, detached for snapshot/restore
// (serve/snapshot.h): the raw and preprocessed logs, the DP rows and the
// last optimal basis per objective (the F-UMP slot stays empty). Restoring
// skips preprocessing and row construction and resumes warm from the bases.
struct SessionSnapshot {
  SearchLog raw;
  SearchLog log;  // preprocessed
  PreprocessStats stats;
  DpConstraintSystem system;  // rows only; the budget is rebound per solve
  std::vector<lp::Basis> bases;  // indexed by UtilityObjective
};

// Result of the full Algorithm-1 pipeline (Sanitize).
struct SanitizeReport {
  SearchLog output;
  // The preprocessed input the UMP ran on; optimal_counts is indexed by its
  // PairIds.
  SearchLog preprocessed_input;
  PreprocessStats preprocess_stats;
  std::vector<uint64_t> optimal_counts;
  uint64_t output_size = 0;  // sum of optimal_counts
  AuditReport audit;
  // Solver effort of the UMP solve whose counts were released (for F-UMP
  // not the λ lookup, as in Solve).
  UmpStats stats;
  double solve_seconds = 0.0;
};

struct SweepOptions {
  // Chain each cell from the previous answer (O-UMP scales the last LP
  // optimum, D-UMP warm-starts; F-UMP cells solve cold either way). Off =
  // the per-cell cold baseline: every cell runs the simplex without a hint.
  bool warm_start = true;
  // F-UMP only: structural min-support override for this sweep. Changing it
  // rebuilds the cached F-UMP problem (the frequent set shapes the model).
  std::optional<double> min_support;
};

struct SweepResult {
  std::vector<UmpSolution> cells;  // one per grid entry, in order
  // Aggregates across all cells.
  int64_t total_simplex_iterations = 0;
  int64_t total_dual_iterations = 0;
  // Main/root-LP iterations only — the cleanest cross-cell warm-start
  // signal (branch & bound tree totals vary with the search order).
  int64_t total_root_iterations = 0;
  int64_t warm_solves = 0;  // cells whose main/root LP ran from a warm basis
  // Warm solves whose dual repair hit the configured pivot cap and fell
  // back cold (UmpStats::repair_aborted summed across cells).
  int64_t repair_aborted = 0;
  // Peak factorization fill and longest update run between
  // refactorizations, maxed across cells (UmpStats carries them per cell).
  size_t factor_nnz = 0;
  int max_update_run = 0;
  double wall_seconds = 0.0;
};

class SanitizerSession {
 public:
  // Preprocesses `input` (Condition 1) and builds the shared DP rows. An
  // input with no shared pairs is allowed — a session may start empty and
  // be populated through AppendUsers; Solve/Sanitize fail until then.
  static Result<SanitizerSession> Create(const SearchLog& input,
                                         SessionOptions options = {});

  SanitizerSession(SanitizerSession&&) noexcept;
  SanitizerSession& operator=(SanitizerSession&&) noexcept;
  ~SanitizerSession();

  const SessionOptions& options() const;
  const SearchLog& raw_log() const;
  // The preprocessed log all solutions are indexed against.
  const SearchLog& log() const;
  const PreprocessStats& preprocess_stats() const;

  // Solves `objective` at `query`, warm-starting from the last optimal
  // basis of the same objective when one exists. query.output_size == 0
  // for F-UMP resolves to λ via the cached O-UMP problem.
  Result<UmpSolution> Solve(UtilityObjective objective, const UmpQuery& query);

  // Solves every grid cell in order, chaining answers across cells
  // (sweep.warm_start). Objective values are identical to per-cell cold
  // solves — warm starts only change the path, not the optimum.
  Result<SweepResult> SweepBudgets(UtilityObjective objective,
                                   const std::vector<UmpQuery>& grid,
                                   const SweepOptions& sweep = {});

  // Appends the user logs of `more` to the session's raw input (same-name
  // users merge), re-preprocesses, patches the DP rows incrementally (only
  // rows whose users' pairs changed are recomputed), and remaps the stored
  // optimal bases onto the grown problem so the next Solve warm-starts from
  // the prior optimum. The result of a post-append solve is identical to a
  // from-scratch solve on the concatenated log.
  Status AppendUsers(const SearchLog& more);

  // What the most recent AppendUsers did; zeros before the first append.
  const AppendStats& last_append_stats() const;

  // Removes the named users from the session's raw input — the inverse of
  // AppendUsers. The raw log is shrunk, re-preprocessed (a pair can turn
  // unique once its other holders leave), the DP rows are patched
  // incrementally (rows of users holding no pair whose total moved are
  // copied verbatim — bit-identical to a full rebuild on the shrunk log),
  // and the stored optimal bases are remapped *down* onto the shrunk model
  // so the next Solve resumes warm. Names not present are ignored
  // (deletion is idempotent); removing every user leaves a valid empty
  // session that Solve rejects until users are appended again.
  Status RemoveUsers(const std::vector<std::string>& user_names);

  // What the most recent RemoveUsers did; zeros before the first removal.
  const RemoveStats& last_remove_stats() const;

  // Rebuilds the cached solver models that the last AppendUsers
  // invalidated (only objectives that had a built model before the
  // append). Model construction depends on the rows alone — never on the
  // query — so a flusher can run it off the query path: the next Solve
  // then only rebinds the budget and dual-repairs the remapped basis
  // instead of paying the model build. Purely an optimization; Solve
  // builds lazily either way.
  Status PrewarmProblems();

  // Estimated resident heap footprint of the session: the raw and
  // preprocessed logs, the DP rows, the stored bases, plus one DP-system's
  // worth per cached solver model (the LP constraint matrix mirrors the
  // rows and dominates the model's memory). The log/system part is cached
  // at rebuild time, so this is O(#objectives) per call — the serve layer
  // reads it after every state change to enforce its global memory budget.
  size_t ResidentBytes() const;

  // Algorithm 1 end to end at `privacy`, using options().objective: solve
  // (warm-started) → optional Laplace noise → multinomial sampling →
  // Theorem-1 audit.
  Result<SanitizeReport> Sanitize(const PrivacyParams& privacy);

  // Copies the reusable state out for snapshot/restore (serve/snapshot.h).
  SessionSnapshot Snapshot() const;

  // Rebuilds a session from snapshot state without re-preprocessing or
  // re-deriving the DP rows. Stored bases whose shape does not match the
  // models implied by (log, options) are dropped — the next solve then runs
  // cold, never wrong. `options` is the caller's (snapshots store data, not
  // configuration).
  static Result<SanitizerSession> FromSnapshot(SessionSnapshot snapshot,
                                               SessionOptions options = {});

 private:
  struct State;
  SanitizerSession(std::unique_ptr<State> state);

  Result<UmpSolution> SolveInternal(UtilityObjective objective,
                                    const UmpQuery& query, bool warm);
  // Builds the objective's UmpProblem if not cached.
  Status EnsureProblem(UtilityObjective objective);
  Status RebuildFromRaw(bool remap_bases);

  std::unique_ptr<State> state_;
};

}  // namespace privsan

#endif  // PRIVSAN_CORE_SESSION_H_
