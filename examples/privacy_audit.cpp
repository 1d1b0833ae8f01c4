// Privacy audit walkthrough: what Theorem 1 actually bounds, shown on the
// paper's own Figure 1 example log.
//
// The audit computes, for a concrete count vector x:
//   * Equation 3's worst-case output probability ratio (Condition 2), and
//   * Equation 2's worst-case user leak probability Pr[R(D) in Omega_1]
//     (Condition 3),
// and compares them against e^eps and delta. The example demonstrates a
// compliant solution, a Condition-1 violation (emitting a unique pair), and
// the exposure growth as counts scale.
#include <iostream>
#include <memory>
#include <vector>

#include "core/audit.h"
#include "core/constraints.h"
#include "core/ump.h"
#include "log/preprocess.h"
#include "log/search_log.h"

using namespace privsan;

namespace {

SearchLog Figure1Log() {
  SearchLogBuilder builder;
  builder.Add("081", "pregnancy test nyc", "medicinenet.com", 2);
  builder.Add("081", "book", "amazon.com", 3);
  builder.Add("081", "google", "google.com", 15);
  builder.Add("082", "google", "google.com", 7);
  builder.Add("082", "car price", "kbb.com", 2);
  builder.Add("082", "diabetes medecine", "walmart.com", 1);
  builder.Add("083", "google", "google.com", 17);
  builder.Add("083", "car price", "kbb.com", 5);
  builder.Add("083", "book", "amazon.com", 1);
  return builder.Build();
}

}  // namespace

int main() {
  SearchLog raw = Figure1Log();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  std::cout << "privacy parameters: " << params.ToString() << "\n\n";

  // --- A Condition-1 violation: emitting a unique pair. -------------------
  {
    std::vector<uint64_t> x(raw.num_pairs(), 0);
    x[raw.FindPair("pregnancy test nyc", "medicinenet.com").value()] = 1;
    AuditReport report = AuditSolution(raw, params, x).value();
    std::cout << "emitting user 081's unique pair once:\n  "
              << report.ToString() << "\n"
              << "  -> the pair identifies 081 with certainty (leak "
                 "probability 1), which no (eps, delta) can absorb.\n\n";
  }

  // --- The optimal compliant solution. -------------------------------------
  SearchLog log = RemoveUniquePairs(raw).log;
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows).value()->Solve({.privacy = params}).value();
  {
    AuditReport report = AuditSolution(log, params, oump.x).value();
    std::cout << "O-UMP optimal counts on the preprocessed log (lambda = "
              << oump.output_size << "):\n  " << report.ToString()
              << "\n\n";
  }

  // --- Exposure as counts scale beyond the optimum. ------------------------
  std::cout << "scaling the optimal counts k-fold:\n";
  for (uint64_t k : {1, 2, 3, 5}) {
    std::vector<uint64_t> scaled(oump.x);
    for (uint64_t& v : scaled) v *= k;
    AuditReport report = AuditSolution(log, params, scaled).value();
    std::cout << "  k=" << k << ": max ratio = " << report.max_ratio
              << " (<= e^eps = 2? " << (report.condition2_ok ? "yes" : "NO")
              << "), max leak = " << report.max_leak_probability
              << " (<= delta = 0.5? " << (report.condition3_ok ? "yes" : "NO")
              << ")\n";
  }

  // --- The epsilon frontier for a fixed count vector. ----------------------
  std::cout << "\nsmallest e^eps accepting the 2x-scaled counts (delta "
               "fixed at 0.9):\n";
  std::vector<uint64_t> doubled(oump.x);
  for (uint64_t& v : doubled) v *= 2;
  for (double e_eps : {1.5, 2.0, 3.0, 4.0, 6.0}) {
    AuditReport report =
        AuditSolution(log, PrivacyParams::FromEEpsilon(e_eps, 0.9), doubled)
            .value();
    std::cout << "  e^eps = " << e_eps << ": "
              << (report.satisfies_privacy ? "private" : "violated") << "\n";
  }
  return 0;
}
