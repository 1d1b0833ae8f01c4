// Integral rounding of relaxed UMP solutions against the DP rows.
//
// The paper solves the UMP ILPs by linear relaxation and flooring (⌊x*⌋
// stays feasible because M, b >= 0). Plain flooring is wasteful when the
// relaxed optimum spreads fractional mass over many pairs — the floor can
// lose nearly everything. privsan rounds in three stages, each preserving
// feasibility:
//   1. floor every count;
//   2. largest-remainder repair: re-add the floored-away units, biggest
//      fractional part first, while every DP row still fits;
//   3. greedy fill: keep admitting +1 increments (cheapest worst-row
//      coefficient first) until no pair can take another unit.
// The result is an integral point between ⌊x*⌋ and the true ILP optimum.
#ifndef PRIVSAN_CORE_ROUNDING_H_
#define PRIVSAN_CORE_ROUNDING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/constraints.h"

namespace privsan {

struct RoundingOptions {
  // Stage 3: keep filling past the relaxed point.
  bool greedy_fill = true;
  // Optional per-pair upper bounds (empty = unbounded).
  std::span<const uint64_t> caps;
};

// The parts of rounding that depend on the rows alone, not on the budget
// or the relaxed point: each pair's rows and coefficients in row order,
// and the greedy fill's order (pairs by ascending largest coefficient, ties
// by PairId). A caller that rounds against one row set at many budgets
// builds it once; it is stale once the rows are rebuilt.
struct RoundingIndex {
  explicit RoundingIndex(const DpConstraintSystem& system);

  // Pair p's entries are [pair_begin[p], pair_begin[p + 1]) of `rows` and
  // `weights` (its coefficient in each row).
  std::vector<uint32_t> pair_begin;
  std::vector<uint32_t> rows;
  std::vector<double> weights;
  std::vector<PairId> fill_order;
};

// Rounds `relaxed` (indexed by PairId) against `system`'s rows; `index`
// must have been built from the same rows.
std::vector<uint64_t> RoundCounts(const DpConstraintSystem& system,
                                  const RoundingIndex& index,
                                  std::span<const double> relaxed,
                                  const RoundingOptions& options = {});

// Same, building the index for this one call.
std::vector<uint64_t> RoundCounts(const DpConstraintSystem& system,
                                  std::span<const double> relaxed,
                                  const RoundingOptions& options = {});

// Stage 1 alone: floors with a snap tolerance (4.9999997 counts as 5), but
// undoes the snap-ups in any DP row they push past
// DpConstraintSystem::kTolerance. `remainder` receives value − count.
std::vector<uint64_t> FloorCounts(const DpConstraintSystem& system,
                                  std::span<const double> relaxed,
                                  std::vector<double>* remainder);

}  // namespace privsan

#endif  // PRIVSAN_CORE_ROUNDING_H_
