// The three workloads. Each drives privsan only through its public entry
// points, on seeded medium-profile logs, and verifies every answer after
// its pass. An untraced run fills the end-to-end metrics; a traced run
// replays the same seeded sequence with spans and fills the per-layer
// metrics (NOTES.md lists both and which workload moves which).
//
// A workload returns an error only when it cannot run at all (inputs or
// a server that fail to come up); failed or wrong answers are counted in
// the Outcome instead.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "harness.h"
#include "inputs.h"
#include "util/result.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  Plan plan;
  bool trace = false;
};

// A publisher's one-shot releases: fresh logs, each built into a session
// in set-up and released once with Sanitize at its own Table 4 cell.
privsan::Result<Outcome> RunColdRelease(const RunConfig& config);

// The paper's evaluation rerun by an analyst: Table 4's O-UMP grid, Tables
// 5/6's F-UMP grid and Table 7's D-UMP grid on each log, warm-chained as
// SweepBudgets chains them.
privsan::Result<Outcome> RunPaperSweeps(const RunConfig& config);

// An operator's live tenant behind the loopback wire: each tick appends
// new users, removes as many of the oldest, solves at the standing budget,
// then probes other budgets and reads the accountant and the stats.
privsan::Result<Outcome> RunServeStream(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
