// Row/column equilibration for the simplex constraint matrix.
//
// The DP constraint systems the UMPs generate mix coefficient magnitudes
// freely (multiplicity counts against e^eps weights spanning several
// orders), and threshold partial pivoting judges every candidate pivot
// against its column's largest magnitude — on a badly scaled column the
// threshold rejects pivots that are perfectly stable, forcing denser
// choices. Equilibration narrows the magnitude spread first, so
// the LU's threshold pivoting can chase sparsity instead of compensating
// for units.
//
// ComputeEquilibration returns per-row factors R and per-structural-column
// factors C such that the scaled matrix R A C has entries near 1 in
// magnitude: iterative geometric-mean scaling (each pass divides rows, then
// columns, by sqrt(min * max) of their current nonzero magnitudes), with
// every factor snapped to a power of two — so scaling and unscaling are
// EXACT in floating point, no rounding is introduced anywhere — and the
// cumulative factors clamped to [1/16, 16].
//
// The caller (lp/simplex.cc) owns applying the factors: A -> R A C,
// b -> R b, bounds -> /C, costs -> *C, then x -> C x' and y -> R y' on the
// way back. Slack and artificial columns take C = 1/R_r so their
// coefficients stay exactly +-1. Basis snapshots hold only statuses, which
// are scale-invariant — warm-start hints cross scaled and unscaled solves
// untouched, and identical matrices always produce identical factors, so
// every solve of a sweep scales the same way.
#ifndef PRIVSAN_LP_SCALING_H_
#define PRIVSAN_LP_SCALING_H_

#include <vector>

#include "lp/sparse_matrix.h"

namespace privsan {
namespace lp {

struct ScalingFactors {
  std::vector<double> row;  // R_r, size m (empty when inactive)
  std::vector<double> col;  // C_j, size n_struct
  // False when every factor came out 1.0 — the caller skips the rescale.
  bool any = false;
};

// Equilibrates the structural part of an m-row constraint matrix given as
// triplets (entries with col >= n_struct — slacks — are ignored; their
// factors are derived from R by the caller). `passes` alternating
// row/column sweeps; the factors converge geometrically, so a handful
// suffice.
ScalingFactors ComputeEquilibration(int m, int n_struct,
                                    const std::vector<Triplet>& triplets,
                                    int passes = 4);

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_SCALING_H_
