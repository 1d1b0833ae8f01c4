// The benchmark's inputs: fixed medium-profile log configs, seed
// derivation, the paper's parameter grids, the stream's tick schedule, and
// how much work a run does for a given --seconds.
//
// Everything here is fixed by the benchmark, not read from the program:
// the configs ignore PRIVSAN_BENCH_SCALE and do not follow later edits to
// the repository's own bench presets, so a run's inputs depend only on
// (workload, seed, seconds).
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "core/privacy_params.h"
#include "core/session.h"
#include "core/ump.h"
#include "synth/generator.h"

namespace perfbench {

// The medium profile: 400 users, ≈3.3k pairs and |D| ≈ 34.6k after
// preprocessing.
privsan::SyntheticLogConfig MediumConfig(uint64_t seed);

// The serve_stream source log: the medium profile with twice the users and
// events, so a 400-user window slides over users the tenant has not seen.
privsan::SyntheticLogConfig StreamConfig(uint64_t seed);

// Options of every session, tenant and problem the benchmark builds: the
// defaults, except that one LP solve may take at most 40,000 simplex
// iterations (five times the longest solve these workloads make), so a
// solve that stalls fails within half a minute as a counted failed
// operation.
privsan::SessionOptions SessionDefaults();

// Seed of the index-th generated log of a run with workload seed `seed`.
uint64_t LogSeed(uint64_t seed, uint64_t index);

// Table 4: the 7x7 (e^ε, δ) grid, row-major over e^ε.
std::vector<privsan::PrivacyParams> Table4Cells();
// The Table 4 cell whose λ sizes the F-UMP grid (e^ε = 2, δ = 0.5).
constexpr size_t kLambdaCell = 5 * 7 + 5;

// Tables 5/6: minimum supports, and |O| as a share of λ in percent.
std::vector<double> FumpSupports();
std::vector<uint64_t> FumpOutputSizes(uint64_t lambda);

// Table 7: part 0 (a) e^ε = 2 over δ, part 1 (b) δ = 0.1 over e^ε.
std::vector<privsan::PrivacyParams> Table7Cells(int part);
// The D-UMP solvers the sweeps run (branch and bound stays out: its
// wall-clock budget makes its work vary from run to run).
std::vector<privsan::DumpSolverKind> DumpSolvers();

// serve_stream: the tenant's initial window, the users each tick appends
// (and removes from the old end), the standing budget and the probes.
constexpr size_t kStreamWindowUsers = 400;
size_t TickBatch(size_t tick);
privsan::UmpQuery StandingQuery();
std::vector<privsan::UmpQuery> ProbeQueries();
// Each probe budget is asked this many times per tick: the first misses
// the flushed cache, the repeats hit it.
constexpr int kProbeRepeats = 3;

// Work per run, sized from --seconds on a 4-vCPU box and never below the
// sample count a gated median needs.
struct Plan {
  size_t releases = 0;  // cold_release: fresh logs, one release each
  size_t logs = 0;      // paper_sweeps: logs, a multiple of 5
  size_t ticks = 0;     // serve_stream
  // Set-ups timed per run; setup_s is their median.
  int setup_repeats = 3;
};
Plan PlanFor(double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
