#include "core/session.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/sampler.h"
#include "lp/basis_io.h"
#include "serve/thread_pool.h"
#include "util/concurrency_check.h"
#include "util/timer.h"

namespace privsan {

namespace {

constexpr int kNumObjectives = 3;

int Index(UtilityObjective objective) {
  return static_cast<int>(objective);
}

// Old->new index maps shared by every per-objective basis remap of one
// append or removal (name-keyed: PairIds and row order may permute
// arbitrarily across the re-preprocess, and FindPair/FindUser are linear
// scans). Built once per RebuildFromRaw — the serve path appends and
// expires continuously. Entries of vanished pairs/rows (a removed user, a
// pair turned unique by a removal) are -1 and simply dropped by RemapBasis.
struct RemapMaps {
  bool ok = false;
  std::vector<int> pair_map;  // old PairId -> new PairId (-1 = vanished)
  std::vector<int> row_map;   // old row -> new row (-1 = vanished)
};

RemapMaps BuildRemapMaps(const SearchLog& old_log,
                         const DpConstraintSystem& old_system,
                         const SearchLog& new_log,
                         const DpConstraintSystem& new_system) {
  RemapMaps maps;
  std::unordered_map<std::string, PairId> new_pair;
  new_pair.reserve(new_log.num_pairs());
  for (PairId p = 0; p < new_log.num_pairs(); ++p) {
    new_pair.emplace(new_log.PairNameKey(p), p);
  }
  maps.pair_map.assign(old_log.num_pairs(), -1);
  for (PairId p = 0; p < old_log.num_pairs(); ++p) {
    const auto it = new_pair.find(old_log.PairNameKey(p));
    if (it != new_pair.end()) maps.pair_map[p] = static_cast<int>(it->second);
  }
  std::unordered_map<std::string, int> new_row_of_user;
  new_row_of_user.reserve(new_system.num_rows());
  for (size_t r = 0; r < new_system.num_rows(); ++r) {
    new_row_of_user[new_log.user_name(new_system.RowUser(r))] =
        static_cast<int>(r);
  }
  maps.row_map.assign(old_system.num_rows(), -1);
  for (size_t r = 0; r < old_system.num_rows(); ++r) {
    const auto it =
        new_row_of_user.find(old_log.user_name(old_system.RowUser(r)));
    if (it != new_row_of_user.end()) maps.row_map[r] = it->second;
  }
  maps.ok = true;
  return maps;
}

// Maps a basis of the old (log, system) model onto the resized one:
// surviving pairs and user rows keep their status under their new indices;
// appended pairs enter nonbasic at zero, appended users' slack rows enter
// basic; statuses of vanished columns and rows are dropped. Dropping a
// basic structural column (or gaining rows whose covering column vanished)
// unbalances the basic count, so the map is followed by a repair pass:
// missing basics are filled with row slacks, surplus basics are demoted
// structurals — the dual simplex then re-establishes feasibility in a few
// pivots, exactly its warm-start job. Valid for the models whose
// structural variables are the pairs in PairId order and whose rows are
// the DP rows (O-UMP and the D-UMP relaxation). Returns an empty basis
// when the mapping breaks down — the next solve then simply runs cold.
lp::Basis RemapBasis(const lp::Basis& old_basis, const RemapMaps& maps,
                     size_t n_new, size_t m_new) {
  const size_t n_old = maps.pair_map.size();
  const size_t m_old = maps.row_map.size();
  if (!maps.ok || old_basis.state.size() != n_old + m_old ||
      old_basis.basic.size() != m_old) {
    return {};
  }

  lp::Basis basis;
  basis.state.assign(n_new + m_new, lp::VarStatus::kAtLower);
  for (size_t r = 0; r < m_new; ++r) {
    basis.state[n_new + r] = lp::VarStatus::kBasic;
  }
  for (size_t j = 0; j < n_old; ++j) {
    if (maps.pair_map[j] >= 0) basis.state[maps.pair_map[j]] =
        old_basis.state[j];
  }
  for (size_t r = 0; r < m_old; ++r) {
    if (maps.row_map[r] >= 0) basis.state[n_new + maps.row_map[r]] =
        old_basis.state[n_old + r];
  }
  size_t num_basic = 0;
  for (size_t j = 0; j < basis.state.size(); ++j) {
    if (basis.state[j] == lp::VarStatus::kBasic) ++num_basic;
  }
  // Repair the basic count. Shortfall (a removed user's basic structural
  // column vanished): promote the slacks of rows left without a basic —
  // any slack works, the dual repair sorts out feasibility. Surplus (rows
  // vanished under a surviving basic structural): demote structurals back
  // to their lower bound.
  for (size_t r = 0; num_basic < m_new && r < m_new; ++r) {
    if (basis.state[n_new + r] != lp::VarStatus::kBasic) {
      basis.state[n_new + r] = lp::VarStatus::kBasic;
      ++num_basic;
    }
  }
  for (size_t j = 0; num_basic > m_new && j < n_new; ++j) {
    if (basis.state[j] == lp::VarStatus::kBasic) {
      basis.state[j] = lp::VarStatus::kAtLower;
      --num_basic;
    }
  }
  for (size_t j = 0; j < basis.state.size(); ++j) {
    if (basis.state[j] == lp::VarStatus::kBasic) {
      basis.basic.push_back(static_cast<int>(j));
    }
  }
  if (basis.basic.size() != m_new) return {};
  return basis;
}

}  // namespace

struct SanitizerSession::State {
  SessionOptions options;
  SearchLog raw;   // accumulated raw input (pre-Condition-1)
  SearchLog log;   // preprocessed
  PreprocessStats stats;
  DpConstraintSystem system;  // shared rows; budget rebound per solve
  std::unique_ptr<UmpProblem> problems[kNumObjectives];
  // The last optimal O-UMP and D-UMP bases. F-UMP cells solve cold.
  lp::Basis oump_basis, dump_basis;
  AppendStats append_stats;
  RemoveStats remove_stats;
  internal::NonConcurrentChecker checker;
  // The support the next F-UMP solve should use (SweepOptions can override
  // it for the duration of a sweep) and the support the cached F-UMP
  // problem was actually built with (-1 = no cached problem). SolveInternal
  // rebuilds lazily when they disagree, so switching back and forth between
  // supports only rebuilds when a solve actually needs the other model.
  double fump_min_support = 0.0;
  double fump_problem_support = -1.0;
  // Which objectives had a built model before the last rebuild — the set
  // PrewarmProblems() restores so a flusher can move model construction
  // off the query path.
  bool had_problem[kNumObjectives] = {false, false, false};
  // Cached by RecomputeResidentBase(): bytes of raw + log + system, the
  // parts whose measurement walks every dictionary string. Refreshed on
  // every rebuild/restore; bases and models are added per ResidentBytes()
  // call (they are cheap to size).
  size_t resident_base_bytes = 0;
  size_t system_bytes = 0;

  lp::Basis* last_basis(UtilityObjective objective) {  // nullptr for F-UMP
    if (objective == UtilityObjective::kFrequentPairs) return nullptr;
    return objective == UtilityObjective::kOutputSize ? &oump_basis
                                                      : &dump_basis;
  }

  void RecomputeResidentBase() {
    system_bytes = system.ResidentBytes();
    resident_base_bytes =
        raw.ResidentBytes() + log.ResidentBytes() + system_bytes;
  }
};

SanitizerSession::SanitizerSession(std::unique_ptr<State> state)
    : state_(std::move(state)) {}
SanitizerSession::SanitizerSession(SanitizerSession&&) noexcept = default;
SanitizerSession& SanitizerSession::operator=(SanitizerSession&&) noexcept =
    default;
SanitizerSession::~SanitizerSession() = default;

const SessionOptions& SanitizerSession::options() const {
  return state_->options;
}
const SearchLog& SanitizerSession::raw_log() const { return state_->raw; }
const SearchLog& SanitizerSession::log() const { return state_->log; }
const PreprocessStats& SanitizerSession::preprocess_stats() const {
  return state_->stats;
}
const AppendStats& SanitizerSession::last_append_stats() const {
  return state_->append_stats;
}
const RemoveStats& SanitizerSession::last_remove_stats() const {
  return state_->remove_stats;
}

size_t SanitizerSession::ResidentBytes() const {
  const State& s = *state_;
  size_t bytes = s.resident_base_bytes;
  for (const lp::Basis* basis : {&s.oump_basis, &s.dump_basis}) {
    bytes += basis->basic.capacity() * sizeof(int) +
             basis->state.capacity() * sizeof(lp::VarStatus);
  }
  for (const auto& problem : s.problems) {
    // Each built model carries (roughly) its own copy of the DP rows as an
    // LP constraint matrix; one system's worth per problem is the estimate.
    if (problem != nullptr) bytes += s.system_bytes;
  }
  return bytes;
}

Result<SanitizerSession> SanitizerSession::Create(const SearchLog& input,
                                                  SessionOptions options) {
  auto state = std::make_unique<State>();
  state->options = std::move(options);
  state->fump_min_support = state->options.fump.min_support;
  state->raw = input;
  SanitizerSession session(std::move(state));
  PRIVSAN_RETURN_IF_ERROR(session.RebuildFromRaw(/*remap_bases=*/false));
  return session;
}

SessionSnapshot SanitizerSession::Snapshot() const {
  internal::NonConcurrentScope scope(&state_->checker);
  SessionSnapshot snapshot;
  snapshot.raw = state_->raw;
  snapshot.log = state_->log;
  snapshot.stats = state_->stats;
  snapshot.system = state_->system;
  snapshot.bases.resize(kNumObjectives);  // the F-UMP slot stays empty
  snapshot.bases[Index(UtilityObjective::kOutputSize)] = state_->oump_basis;
  snapshot.bases[Index(UtilityObjective::kDiversity)] = state_->dump_basis;
  return snapshot;
}

Result<SanitizerSession> SanitizerSession::FromSnapshot(
    SessionSnapshot snapshot, SessionOptions options) {
  if (snapshot.system.num_pairs() != snapshot.log.num_pairs()) {
    return Status::InvalidArgument(
        "snapshot DP system does not match its preprocessed log (" +
        std::to_string(snapshot.system.num_pairs()) + " vs " +
        std::to_string(snapshot.log.num_pairs()) + " pairs)");
  }
  auto state = std::make_unique<State>();
  state->options = std::move(options);
  state->fump_min_support = state->options.fump.min_support;
  state->raw = std::move(snapshot.raw);
  state->log = std::move(snapshot.log);
  state->stats = snapshot.stats;
  state->system = std::move(snapshot.system);
  // O-UMP and the D-UMP relaxation are the pairs over the DP rows; a basis
  // of another shape is dropped (warm start lost, correctness kept). The
  // F-UMP slot is ignored.
  for (UtilityObjective objective :
       {UtilityObjective::kOutputSize, UtilityObjective::kDiversity}) {
    const size_t i = static_cast<size_t>(Index(objective));
    if (i < snapshot.bases.size() &&
        lp::ValidateBasisShape(snapshot.bases[i], state->log.num_pairs(),
                               state->system.num_rows())
            .ok()) {
      *state->last_basis(objective) = std::move(snapshot.bases[i]);
    }
  }
  state->RecomputeResidentBase();
  return SanitizerSession(std::move(state));
}

Status SanitizerSession::RebuildFromRaw(bool remap_bases) {
  State& s = *state_;
  // The old log and rows are kept only to map the stored optimal bases
  // onto the new model.
  const bool have_bases =
      remap_bases && (!s.oump_basis.empty() || !s.dump_basis.empty());
  SearchLog old_log;
  DpConstraintSystem old_system;
  if (have_bases) {
    old_log = std::move(s.log);
    old_system = std::move(s.system);
  }

  PreprocessResult preprocessed = RemoveUniquePairs(s.raw, s.options.pool);
  s.log = std::move(preprocessed.log);
  s.stats = preprocessed.stats;
  PRIVSAN_ASSIGN_OR_RETURN(
      s.system, DpConstraintSystem::BuildRows(s.log, s.options.pool));
  for (int i = 0; i < kNumObjectives; ++i) {
    s.had_problem[i] = s.problems[i] != nullptr;
    s.problems[i].reset();
  }
  s.fump_problem_support = -1.0;

  // Carry the O-UMP / D-UMP optimal bases over to the resized model (the
  // index maps are shared across objectives). Dropping the problems above
  // also dropped the O-UMP optimum cached for the old log version.
  const RemapMaps maps =
      have_bases ? BuildRemapMaps(old_log, old_system, s.log, s.system)
                 : RemapMaps{};
  for (lp::Basis* basis : {&s.oump_basis, &s.dump_basis}) {
    if (have_bases && !basis->empty()) {
      *basis =
          RemapBasis(*basis, maps, s.log.num_pairs(), s.system.num_rows());
    } else {
      *basis = {};
    }
  }
  s.RecomputeResidentBase();
  return Status::OK();
}

Status SanitizerSession::RemoveUsers(
    const std::vector<std::string>& user_names) {
  internal::NonConcurrentScope scope(&state_->checker);
  WallTimer timer;
  State& s = *state_;
  const std::unordered_set<std::string_view> doomed(user_names.begin(),
                                                    user_names.end());
  s.remove_stats = {};
  if (doomed.empty()) return Status::OK();

  // Rebuild the raw log from the survivors, in their original id order so
  // a from-scratch build of the same survivor set produces the identical
  // log, and with it bit-identical DP rows.
  SearchLogBuilder builder;
  size_t removed = 0;
  for (UserId u = 0; u < s.raw.num_users(); ++u) {
    const std::string& name = s.raw.user_name(u);
    if (doomed.contains(name)) {
      ++removed;
      continue;
    }
    builder.DeclareUser(name);
    for (const PairCount& cell : s.raw.UserLogOf(u)) {
      builder.Add(name, s.raw.query_name(s.raw.pair_query(cell.pair)),
                  s.raw.url_name(s.raw.pair_url(cell.pair)), cell.count);
    }
  }
  if (removed == 0) {
    s.remove_stats.seconds = timer.ElapsedSeconds();
    return Status::OK();  // idempotent: none of the names are present
  }
  s.raw = builder.Build();
  PRIVSAN_RETURN_IF_ERROR(RebuildFromRaw(/*remap_bases=*/true));
  s.remove_stats.removed_users = removed;
  s.remove_stats.rows_rebuilt = s.system.num_rows();
  s.remove_stats.seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Status SanitizerSession::AppendUsers(const SearchLog& more) {
  internal::NonConcurrentScope scope(&state_->checker);
  WallTimer timer;
  State& s = *state_;
  SearchLogBuilder builder;
  builder.AddAll(s.raw);
  builder.AddAll(more);
  s.raw = builder.Build();
  s.append_stats = {};
  s.append_stats.appended_users = more.num_users();
  PRIVSAN_RETURN_IF_ERROR(RebuildFromRaw(/*remap_bases=*/true));
  s.append_stats.rows_rebuilt = s.system.num_rows();
  s.append_stats.seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Result<UmpSolution> SanitizerSession::SolveInternal(
    UtilityObjective objective, const UmpQuery& query, bool warm) {
  State& s = *state_;
  if (s.log.num_pairs() == 0) {
    return Status::FailedPrecondition(
        "nothing to sanitize: every query-url pair is unique to one user");
  }

  UmpQuery effective = query;
  if (objective == UtilityObjective::kFrequentPairs &&
      effective.output_size == 0) {
    // Resolve |O| = λ through the cached (and warm-started) O-UMP.
    PRIVSAN_ASSIGN_OR_RETURN(
        UmpSolution oump,
        SolveInternal(UtilityObjective::kOutputSize, {query.privacy}, warm));
    if (oump.output_size == 0) {
      return Status::Infeasible(
          "privacy budget too tight: the maximum output size lambda is 0");
    }
    effective.output_size = oump.output_size;
  }

  const int i = Index(objective);
  if (objective == UtilityObjective::kFrequentPairs &&
      s.problems[i] != nullptr &&
      s.fump_problem_support != s.fump_min_support) {
    // The cached model was shaped by a different frequent set.
    s.problems[i].reset();
  }
  PRIVSAN_RETURN_IF_ERROR(EnsureProblem(objective));

  lp::Basis* last_basis = warm ? s.last_basis(objective) : nullptr;
  WarmStartHint hint;
  if (last_basis != nullptr) hint.basis = *last_basis;
  PRIVSAN_ASSIGN_OR_RETURN(
      UmpSolution solution,
      s.problems[i]->Solve(effective, hint.empty() ? nullptr : &hint));
  if (last_basis != nullptr && !solution.basis.empty()) {
    *last_basis = solution.basis;
  }

  // Theorem 1 on every answer, before Solve, SweepBudgets, Sanitize or the
  // service can release or cache it.
  s.system.SetBudget(effective.privacy.Budget());
  if (!s.system.IsSatisfied(solution.x)) {
    return Status::Internal(std::string(UtilityObjectiveToString(objective)) +
                            " counts violate a DP row at budget " +
                            std::to_string(s.system.budget()));
  }
  return solution;
}

Status SanitizerSession::EnsureProblem(UtilityObjective objective) {
  State& s = *state_;
  const int i = Index(objective);
  if (s.problems[i] != nullptr) return Status::OK();
  switch (objective) {
    case UtilityObjective::kOutputSize: {
      PRIVSAN_ASSIGN_OR_RETURN(
          s.problems[i], MakeOumpProblem(s.log, &s.system, s.options.oump,
                                         s.options.simplex));
      break;
    }
    case UtilityObjective::kFrequentPairs: {
      FumpSpec spec = s.options.fump;
      spec.min_support = s.fump_min_support;
      PRIVSAN_ASSIGN_OR_RETURN(
          s.problems[i],
          MakeFumpProblem(s.log, &s.system, spec, s.options.simplex));
      s.fump_problem_support = s.fump_min_support;
      break;
    }
    case UtilityObjective::kDiversity: {
      PRIVSAN_ASSIGN_OR_RETURN(
          s.problems[i], MakeDumpProblem(s.log, &s.system, s.options.dump,
                                         s.options.simplex));
      break;
    }
  }
  return Status::OK();
}

Status SanitizerSession::PrewarmProblems() {
  internal::NonConcurrentScope scope(&state_->checker);
  State& s = *state_;
  if (s.log.num_pairs() == 0) return Status::OK();
  for (int i = 0; i < kNumObjectives; ++i) {
    if (!s.had_problem[i] || s.problems[i] != nullptr) continue;
    PRIVSAN_RETURN_IF_ERROR(
        EnsureProblem(static_cast<UtilityObjective>(i)));
  }
  return Status::OK();
}

Result<UmpSolution> SanitizerSession::Solve(UtilityObjective objective,
                                            const UmpQuery& query) {
  internal::NonConcurrentScope scope(&state_->checker);
  return SolveInternal(objective, query, /*warm=*/true);
}

Result<SweepResult> SanitizerSession::SweepBudgets(
    UtilityObjective objective, const std::vector<UmpQuery>& grid,
    const SweepOptions& sweep) {
  internal::NonConcurrentScope scope(&state_->checker);
  WallTimer timer;
  State& s = *state_;
  // The min-support override is scoped to this sweep: the session's own
  // support is restored on every exit path. Rebuilding is lazy (keyed on
  // fump_problem_support in SolveInternal), so repeated sweeps at the same
  // override reuse the cached model.
  const double saved_support = s.fump_min_support;
  if (sweep.min_support.has_value()) s.fump_min_support = *sweep.min_support;

  SweepResult result;
  result.cells.reserve(grid.size());
  Status error = Status::OK();
  for (const UmpQuery& query : grid) {
    Result<UmpSolution> cell = SolveInternal(objective, query,
                                             sweep.warm_start);
    if (!cell.ok()) {
      error = cell.status();
      break;
    }
    result.total_simplex_iterations += cell->stats.simplex_iterations;
    result.total_dual_iterations += cell->stats.dual_iterations;
    result.total_root_iterations += cell->stats.root_iterations;
    result.repair_aborted += cell->stats.repair_aborted;
    if (cell->stats.warm_started) ++result.warm_solves;
    result.factor_nnz = std::max(result.factor_nnz, cell->stats.factor_nnz);
    result.max_update_run =
        std::max(result.max_update_run, cell->stats.max_update_run);
    result.cells.push_back(std::move(*cell));
  }
  s.fump_min_support = saved_support;
  PRIVSAN_RETURN_IF_ERROR(error);
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

Result<SanitizeReport> SanitizerSession::Sanitize(
    const PrivacyParams& privacy) {
  internal::NonConcurrentScope scope(&state_->checker);
  State& s = *state_;
  PRIVSAN_RETURN_IF_ERROR(privacy.Validate());
  WallTimer timer;

  UmpQuery query;
  query.privacy = privacy;
  if (s.options.objective == UtilityObjective::kFrequentPairs) {
    // F-UMP needs |O| in (0, λ]; compute λ and clamp the request so a
    // too-ambitious output size degrades gracefully instead of failing.
    PRIVSAN_ASSIGN_OR_RETURN(
        UmpSolution oump,
        SolveInternal(UtilityObjective::kOutputSize, {privacy}, true));
    if (oump.output_size == 0) {
      return Status::Infeasible(
          "privacy budget too tight: the maximum output size lambda is 0");
    }
    query.output_size = s.options.output_size == 0
                            ? oump.output_size
                            : std::min(s.options.output_size,
                                       oump.output_size);
  }
  PRIVSAN_ASSIGN_OR_RETURN(UmpSolution solution,
                           SolveInternal(s.options.objective, query, true));

  SanitizeReport report;
  report.preprocessed_input = s.log;
  report.preprocess_stats = s.stats;
  report.stats = solution.stats;
  report.optimal_counts = std::move(solution.x);

  // Optional end-to-end Laplace noise on the counts (§4.2).
  if (s.options.laplace.has_value()) {
    PRIVSAN_ASSIGN_OR_RETURN(
        LaplaceStepResult noisy,
        AddLaplaceNoise(s.log, privacy, solution.x_relaxed,
                        *s.options.laplace));
    report.optimal_counts = std::move(noisy.x);
  }

  report.output_size = std::accumulate(report.optimal_counts.begin(),
                                       report.optimal_counts.end(),
                                       static_cast<uint64_t>(0));

  PRIVSAN_ASSIGN_OR_RETURN(
      report.output,
      SampleOutput(s.log, report.optimal_counts, s.options.seed));

  PRIVSAN_ASSIGN_OR_RETURN(
      report.audit, AuditSolution(s.log, privacy, report.optimal_counts));
  if (!report.audit.satisfies_privacy && !s.options.laplace.has_value()) {
    // Without noise the solvers guarantee feasibility; a failed audit means
    // a bug, so surface it loudly rather than returning a bad log.
    return Status::Internal("privacy audit failed on noise-free counts: " +
                            report.audit.ToString());
  }

  report.solve_seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace privsan
