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
  // Stage-2/3 behavior.
  bool repair = true;       // largest-remainder re-adds
  bool greedy_fill = true;  // keep filling past the relaxed point
  // Stop adding once the total reaches this value (0 = no target; fill as
  // far as the rows allow). F-UMP uses it to hold sum x == |O|.
  uint64_t target_total = 0;
  // Optional per-pair upper bounds (empty = unbounded).
  std::span<const uint64_t> caps;
};

// Rounds `relaxed` (indexed by PairId) against `system`'s rows.
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
