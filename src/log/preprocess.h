// Preprocessing from Sections 4.1/4.2 of the paper.
//
// Condition 1 of Theorem 1: any query-url pair wholly owned by a single user
// (∃ s_k with c_ijk = c_ij) must get output count 0 — otherwise
// Pr[R(D) ∈ Ω1] = 1 and the δ bound is unachievable. The paper removes those
// "unique" pairs from the input before formulating any UMP, and |D| is
// recomputed over the retained pairs.
//
// RemoveUniquePairs produces a new SearchLog with unique pairs dropped, plus
// statistics. Users whose logs become empty are dropped from the output log
// (matching Table 3's 2500 -> 1980 user count).
#ifndef PRIVSAN_LOG_PREPROCESS_H_
#define PRIVSAN_LOG_PREPROCESS_H_

#include <cstdint>
#include <vector>

#include "log/search_log.h"

namespace privsan {

struct PreprocessStats {
  size_t pairs_removed = 0;    // unique query-url pairs dropped
  size_t pairs_retained = 0;
  size_t users_dropped = 0;    // user logs emptied by the removal
  uint64_t clicks_removed = 0;
  uint64_t clicks_retained = 0;
};

struct PreprocessResult {
  SearchLog log;
  PreprocessStats stats;
};

// Returns true iff pair p of `log` is unique in the Condition-1 sense:
// exactly one user holds it (so that user's c_ijk equals c_ij).
bool IsUniquePair(const SearchLog& log, PairId p);

// Drops all unique pairs (Condition 1) and rebuilds the log in one pass
// over the pairs in id order; the output assigns ids by first appearance in
// that pass.
PreprocessResult RemoveUniquePairs(const SearchLog& log);

}  // namespace privsan

#endif  // PRIVSAN_LOG_PREPROCESS_H_
