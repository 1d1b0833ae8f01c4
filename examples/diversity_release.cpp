// Diversity-maximizing release (D-UMP, Section 5.3): a research group wants
// as many *distinct* query-url pairs as possible — e.g. to study the breadth
// of search behavior — rather than high counts. D-UMP retains the maximum
// number of distinct pairs under the privacy budget; each retained pair is
// emitted once with a sampled user-ID.
//
// The example runs all four BIP solvers privsan ships (the paper's SPE
// heuristic, a constructive greedy, LP rounding, and budgeted branch &
// bound) and compares retained diversity and runtime — a miniature of the
// paper's Table 7 / Figure 5.
#include <iomanip>
#include <iostream>
#include <memory>

#include "core/constraints.h"
#include "core/session.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "synth/generator.h"
#include "util/table_printer.h"

using namespace privsan;

int main() {
  SyntheticLogConfig config = TinyConfig();
  config.num_events = 5000;
  config.num_users = 100;
  config.num_queries = 700;
  SearchLog raw = GenerateSearchLog(config).value();
  SearchLog log = RemoveUniquePairs(raw).log;
  std::cout << "preprocessed input: " << log.num_pairs()
            << " shared query-url pairs across " << log.num_users()
            << " users\n\n";

  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);

  // The DP rows and the D-UMP problem are built once; each solver is a
  // per-query override. Branch & bound runs on a node and time budget.
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  DumpSpec spec;
  spec.bnb.max_nodes = 200;
  spec.bnb.time_limit_seconds = 20;
  std::unique_ptr<UmpProblem> dump = MakeDumpProblem(log, &rows, spec).value();

  TablePrinter table("D-UMP solver comparison (e^eps = 2, delta = 0.5)");
  table.SetHeader({"solver", "retained pairs", "diversity %", "seconds",
                   "proven optimal"});
  for (DumpSolverKind kind :
       {DumpSolverKind::kSpe, DumpSolverKind::kGreedy,
        DumpSolverKind::kLpRounding, DumpSolverKind::kBranchAndBound}) {
    Result<UmpSolution> result =
        dump->Solve({.privacy = params, .solver = kind});
    if (!result.ok()) {
      std::cerr << DumpSolverKindToString(kind)
                << " failed: " << result.status() << std::endl;
      continue;
    }
    std::ostringstream pct, secs;
    pct << std::fixed << std::setprecision(1)
        << 100.0 * static_cast<double>(result->output_size) /
               static_cast<double>(log.num_pairs());
    secs << std::scientific << std::setprecision(2)
         << result->stats.wall_seconds;
    table.AddRow({DumpSolverKindToString(kind),
                  std::to_string(result->output_size), pct.str(), secs.str(),
                  result->proven_optimal ? "yes" : "no"});
  }
  table.Print(std::cout);

  // Full pipeline with SPE: sample user-IDs for the retained pairs.
  SessionOptions options;
  options.objective = UtilityObjective::kDiversity;
  options.dump.solver = DumpSolverKind::kSpe;
  Result<SanitizerSession> session = SanitizerSession::Create(raw, options);
  if (!session.ok()) {
    std::cerr << "sanitization failed: " << session.status() << std::endl;
    return 1;
  }
  Result<SanitizeReport> report = session->Sanitize(params);
  if (!report.ok()) {
    std::cerr << "sanitization failed: " << report.status() << std::endl;
    return 1;
  }
  std::cout << "\nreleased log: " << report->output.num_pairs()
            << " distinct pairs, " << report->output.num_users()
            << " users, audit: "
            << (report->audit.satisfies_privacy ? "private" : "VIOLATED")
            << "\n";
  return 0;
}
