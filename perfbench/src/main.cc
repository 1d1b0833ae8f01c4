// perfbench: runs one workload and prints its result as the last line of
// standard output (progress and failures go to standard error).
//
//   perfbench --workload cold_release|paper_sweeps|serve_stream
//             --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Exits 0 when every answer verified, 1 when one did not (the result line
// is still printed), 2 on bad arguments or when the workload cannot run.
#include <iostream>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

int main(int argc, char** argv) {
  const privsan::Result<Options> options = ParseOptions(argc, argv);
  if (!options.ok()) {
    std::cerr << "perfbench: " << options.status().ToString() << "\n";
    return 2;
  }
  const RunConfig config{options->seed, PlanFor(options->seconds),
                         options->trace};
  privsan::Result<Outcome> outcome = privsan::Status::InvalidArgument(
      "unknown workload: " + options->workload);
  if (options->workload == "cold_release") {
    outcome = RunColdRelease(config);
  } else if (options->workload == "paper_sweeps") {
    outcome = RunPaperSweeps(config);
  } else if (options->workload == "serve_stream") {
    outcome = RunServeStream(config);
  }
  if (!outcome.ok()) {
    std::cerr << "perfbench: " << outcome.status().ToString() << "\n";
    return 2;
  }
  if (options->trace && !options->spans_path.empty()) {
    const privsan::Status written =
        WriteSpans(outcome->spans, options->spans_path);
    if (!written.ok()) std::cerr << "# " << written.ToString() << "\n";
  }
  for (const auto& [name, value] : outcome->metrics) {
    std::cerr << "# " << name << " = " << value << "\n";
  }
  const privsan::Result<std::string> line =
      ResultLine(*outcome, options->trace);
  if (!line.ok()) {
    std::cerr << "perfbench: " << line.status().ToString() << "\n";
    return 2;
  }
  std::cout << *line << std::endl;
  return outcome->correct() ? 0 : 1;
}
