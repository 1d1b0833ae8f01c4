// F-UMP: the Frequent query-url pair Utility-Maximizing Problem (§5.2).
//
// Given a minimum support s and a fixed output size |O| in (0, λ]:
//
//   min  sum over frequent pairs f of  | x_f/|O| − c_f/|D| |
//   s.t. DP rows (Eq. 4),  sum_ij x_ij = |O|,  x >= 0 integer,
//
// where a pair is frequent iff c_f / |D| >= s. The absolute values are
// linearized in the standard way with auxiliary variables
//   y_f >= x_f/|O| − c_f/|D|   and   y_f >= c_f/|D| − x_f/|O|,
// turning F-UMP into an LP (Statement 2), solved with linear relaxation and
// floored. Flooring keeps the DP rows satisfied (all coefficients >= 0) but
// may land the realized output size slightly below the requested |O|.
// MakeFumpProblem (core/ump.h) builds and solves that LP.
#ifndef PRIVSAN_CORE_FUMP_H_
#define PRIVSAN_CORE_FUMP_H_

#include <vector>

#include "log/search_log.h"

namespace privsan {

// The frequent set S0 = {pairs with support >= s} of `log`.
std::vector<PairId> FrequentPairs(const SearchLog& log, double min_support);

}  // namespace privsan

#endif  // PRIVSAN_CORE_FUMP_H_
