#include "core/fump.h"

namespace privsan {

std::vector<PairId> FrequentPairs(const SearchLog& log, double min_support) {
  std::vector<PairId> frequent;
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    if (log.PairSupport(p) >= min_support) frequent.push_back(p);
  }
  return frequent;
}

}  // namespace privsan
