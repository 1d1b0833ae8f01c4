// Self-tests of the benchmark's own helpers. Run them with
//
//   python3 perfbench/run.py --selftest
//
// They cover the percentile refusal, span self times, the verification of
// released counts, and that a repeated seed repeats every count. Exits 0
// when every check passes.
#include <cmath>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "core/session.h"
#include "harness.h"
#include "inputs.h"
#include "verify.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 0.0);
  return v;
}

void PercentileRefusesThinTails() {
  Check(!Percentile(Ramp(19), 0.5).ok(), "median of 19 samples is refused");
  const privsan::Result<double> median = Percentile(Ramp(20), 0.5);
  Check(median.ok() && *median == 9.5, "median of 20 samples is 9.5");
  Check(!Percentile(Ramp(99), 0.9).ok(), "p90 of 99 samples is refused");
  const privsan::Result<double> p90 = Percentile(Ramp(100), 0.9);
  Check(p90.ok() && std::abs(*p90 - 89.1) < 1e-9, "p90 of 100 samples");
  Check(!Percentile({}, 0.5).ok(), "percentile of nothing is refused");
}

void SelfTimesSubtractChildCoverage() {
  // root [0,100] holds a [10,40] (itself holding a1 [10,20]) and an
  // overlapping b [30,60]; c [90,130] sticks out past the root's end.
  Tracer tracer(true);
  const int root = tracer.Add("bench.root", 0, 100, -1, 0);
  const int a = tracer.Add("lp.a", 10, 40, root, 0);
  tracer.Add("log.a1", 10, 20, a, 0);
  tracer.Add("core.b", 30, 60, root, 0);
  tracer.Add("net.c", 90, 130, root, 0);
  const std::vector<int64_t> self = SelfTimesNs(tracer.spans());
  Check(self[0] == 100 - 50 - 10, "root self time counts overlaps once");
  Check(self[1] == 20, "child self time subtracts its own child");
  Check(self[2] == 10 && self[3] == 30 && self[4] == 40,
        "leaf self time is its duration");

  // Sequential, nested spans: layer self times add up to the root.
  Tracer pass(true);
  const int r = pass.Add("bench.tick", 0, 1000, -1, 1);
  const int op = pass.Add("net.solve", 100, 900, r, 1);
  const int server = pass.Add("serve.request", 200, 800, op, 1);
  pass.Add("lp.solve", 300, 700, server, 1);
  const std::map<std::string, int64_t> layers = LayerSelfNs(pass.spans());
  Check(layers.at("bench") == 200 && layers.at("net") == 200 &&
            layers.at("serve") == 200 && layers.at("lp") == 400,
        "layer self times of a nested pass");
  Outcome outcome;
  Ledger ledger(&outcome);
  ReportTracedPass(pass.spans(), 900, &outcome, &ledger);
  Check(outcome.checks_passed, "self times plus remainder equal the pass");
  Check(std::abs(outcome.metrics["trace.overhead_s"] - 100e-9) < 1e-15,
        "tracing overhead is traced minus untraced");
}

void PerturbedCountsFailVerification() {
  const privsan::SearchLog raw =
      privsan::GenerateSearchLog(MediumConfig(LogSeed(3, 0))).value();
  privsan::SanitizerSession session =
      privsan::SanitizerSession::Create(raw).value();
  const privsan::UmpQuery query = StandingQuery();
  const privsan::UmpSolution solution =
      session.Solve(privsan::UtilityObjective::kOutputSize, query).value();
  privsan::DpConstraintSystem rows =
      privsan::DpConstraintSystem::BuildRows(session.log()).value();
  std::string why;
  Check(CountsSatisfyPrivacy(session.log(), &rows, query.privacy, solution.x,
                             &why),
        "the optimal counts verify: " + why);
  std::vector<uint64_t> perturbed = solution.x;
  perturbed[0] += 1000;
  Check(!CountsSatisfyPrivacy(session.log(), &rows, query.privacy, perturbed,
                              &why),
        "a perturbed count vector fails verification");
  perturbed = solution.x;
  perturbed.pop_back();
  Check(!CountsSatisfyPrivacy(session.log(), &rows, query.privacy, perturbed,
                              &why),
        "a count vector of the wrong length fails verification");
}

// A same-seed repeat of a traced run gives identical counts, utility and
// ok_ratio (timings are free to differ).
void SameSeedRepeats() {
  Plan plan;
  plan.releases = 3;
  plan.logs = 1;
  plan.ticks = 8;
  plan.setup_repeats = 1;
  using Runner = privsan::Result<Outcome> (*)(const RunConfig&);
  const std::pair<const char*, Runner> workloads[] = {
      {"cold_release", RunColdRelease},
      {"paper_sweeps", RunPaperSweeps},
      {"serve_stream", RunServeStream}};
  for (const auto& [name, run] : workloads) {
    const RunConfig config{11, plan, /*trace=*/true};
    const privsan::Result<Outcome> first = run(config);
    const privsan::Result<Outcome> second = run(config);
    Check(first.ok() && second.ok(), std::string(name) + " runs");
    if (!first.ok() || !second.ok()) continue;
    Check(first->correct() && second->correct(),
          std::string(name) + " verifies every answer");
    std::vector<std::string> names = {"utility", "ok_ratio"};
    for (const MetricDef& def : PerLayerMetrics()) {
      if (def.deterministic) names.push_back(def.name);
    }
    for (const std::string& metric : names) {
      const auto a = first->metrics.find(metric);
      const auto b = second->metrics.find(metric);
      const bool same = (a == first->metrics.end()) ==
                            (b == second->metrics.end()) &&
                        (a == first->metrics.end() || a->second == b->second);
      Check(same, std::string(name) + " repeats " + metric);
    }
    std::cerr << "# " << name << ": same-seed repeat compared "
              << names.size() << " figures\n";
  }
}

}  // namespace

int main() {
  PercentileRefusesThinTails();
  SelfTimesSubtractChildCoverage();
  PerturbedCountsFailVerification();
  SameSeedRepeats();
  if (failures == 0) std::cerr << "perfbench self-tests passed\n";
  return failures == 0 ? 0 : 1;
}
