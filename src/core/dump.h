// D-UMP: the Diversity Utility-Maximizing Problem (Section 5.3).
//
// Maximize the number of distinct query-url pairs retained in the output:
//
//   max  sum_ij y_ij
//   s.t. for every user log A_k: sum_{(i,j) in A_k} y_ij log t_ijk <= B,
//        y_ij in {0, 1},
//
// the simplified BIP of Equation 8 (Theorem 2 shows it shares its optimal
// y with the big-M MIP formulation). The output count of a retained pair is
// x_ij = y_ij = 1, i.e. one multinomial trial per retained pair.
//
// The BIP is NP-hard; privsan offers the paper's SPE heuristic plus the
// solver stand-ins used in Table 7 / Figure 5.
#ifndef PRIVSAN_CORE_DUMP_H_
#define PRIVSAN_CORE_DUMP_H_

#include "core/constraints.h"
#include "core/privacy_params.h"
#include "core/ump.h"
#include "log/search_log.h"
#include "lp/bip_heuristics.h"
#include "util/result.h"

namespace privsan {

// DumpSolverKind and the D-UMP UmpProblem live in core/ump.h
// (MakeDumpProblem); this header adds the BIP construction they share.

// Builds the Equation-8 BIP from the DP constraint system of `log`.
Result<lp::BipProblem> BuildDumpBip(const SearchLog& log,
                                    const PrivacyParams& params);

// The same transform from an already-built constraint system (row rhs =
// system.budget()). Shared by BuildDumpBip and the cached D-UMP UmpProblem.
lp::BipProblem BipFromConstraintRows(const DpConstraintSystem& system);

}  // namespace privsan

#endif  // PRIVSAN_CORE_DUMP_H_
