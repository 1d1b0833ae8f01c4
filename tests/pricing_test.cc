// Pins the fused primal PRICE pass and the heap-ordered dual ratio test to
// the plain formulas they stand for. After one PrimalPricer::PriceAfterPivot
// the reduced costs and Devex weights must sit exactly where a dense A^T rho
// and the textbook updates put them, and its pick must be what a separate
// full Devex scan picks. DualRatioTest must return the entering column and
// the bound flips, in order, that a full sort of the candidates by
// (ratio, -|alpha|, j) yields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "lp/pricing.h"
#include "lp/ratio_test.h"
#include "lp/sparse_matrix.h"
#include "rng/random.h"

namespace privsan {
namespace lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr VarStatus kBasic = VarStatus::kBasic;
constexpr VarStatus kAtLower = VarStatus::kAtLower;
constexpr VarStatus kAtUpper = VarStatus::kAtUpper;
constexpr VarStatus kFree = VarStatus::kFree;

// Special columns of every primal case.
constexpr int kCancelling = 5;  // alpha_j sums to exactly 0
constexpr int kFixed = 7;       // lower == upper
constexpr int kFreeCol = 9;     // free, both directions price
constexpr int kTieA = 20;       // kTieA and kTieB are identical columns
constexpr int kTieB = 21;

// One primal pivot's data. `state` is already past the basis swap: the
// entering column is basic and the leaving variable nonbasic.
struct PivotCase {
  int m = 12;
  int n = 40;
  std::vector<std::vector<double>> dense;  // m x n, the reference's A
  SparseMatrix a;
  std::vector<double> rho, d, lower, upper;
  std::vector<VarStatus> state;
  int entering = 3;
  int leaving_var = 11;
  double pivot = 0.0;
};

PivotCase MakePivotCase(uint64_t seed, bool boost_ties) {
  Rng rng(seed);
  PivotCase c;
  c.dense.assign(c.m, std::vector<double>(c.n, 0.0));
  for (int j = 0; j < c.n; ++j) {
    if (j == kCancelling || j == kTieB) continue;
    for (int i = 0; i < c.m; ++i) {
      if (rng.NextBool(0.4)) c.dense[i][j] = rng.NextDouble(-2.0, 2.0);
    }
  }
  c.dense[1][kCancelling] = 1.5;
  c.dense[2][kCancelling] = -1.5;
  for (int i = 0; i < c.m; ++i) c.dense[i][kTieB] = c.dense[i][kTieA];
  std::vector<Triplet> triplets;
  for (int i = 0; i < c.m; ++i) {
    for (int j = 0; j < c.n; ++j) {
      if (c.dense[i][j] != 0.0) triplets.push_back({i, j, c.dense[i][j]});
    }
  }
  c.a = SparseMatrix(c.m, c.n, std::move(triplets));

  c.rho.resize(c.m);
  for (double& r : c.rho) r = rng.NextBool(0.2) ? 0.0 : rng.NextDouble(-3, 3);
  c.rho[2] = c.rho[1];  // makes kCancelling's two products cancel exactly

  c.lower.assign(c.n, 0.0);
  c.upper.resize(c.n);
  c.state.resize(c.n);
  c.d.resize(c.n);
  for (int j = 0; j < c.n; ++j) {
    c.upper[j] = rng.NextBool(0.5) ? rng.NextDouble(1.0, 4.0) : kInf;
    const double u = rng.NextDouble();
    c.state[j] = u < 0.25 ? kBasic
                 : u < 0.6 || !std::isfinite(c.upper[j]) ? kAtLower
                                                          : kAtUpper;
    c.d[j] = rng.NextDouble(-1.0, 1.0);
  }
  c.upper[kFixed] = c.lower[kFixed] = 0.5;
  c.state[kFixed] = kAtLower;
  c.lower[kFreeCol] = -kInf;
  c.upper[kFreeCol] = kInf;
  c.state[kFreeCol] = kFree;
  c.state[kCancelling] = kAtLower;
  for (int j : {kTieA, kTieB}) {
    c.upper[j] = kInf;
    c.state[j] = kAtLower;
    c.d[j] = boost_ties ? -1e6 : -0.75;
  }
  c.state[c.entering] = kBasic;
  c.state[c.leaving_var] = kAtLower;
  c.pivot = c.a.ColumnDot(c.entering, c.rho);
  if (std::abs(c.pivot) < 0.25) c.pivot = 0.25;
  return c;
}

PricingView ViewOf(PivotCase& c, double tol) {
  return PricingView{c.d, c.state, c.lower, c.upper, tol};
}

TEST(PrimalPricerTest, FusedPassMatchesDenseReferenceAndFullScan) {
  int tie_picks = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const bool boost_ties = seed % 4 == 0;
    PivotCase c = MakePivotCase(seed, boost_ties);
    PrimalPricer pricer(c.n);
    const PricingView view = ViewOf(c, 1e-7);

    // A first pass moves the weights off their reference value of 1.
    pricer.PriceAfterPivot(c.a, c.rho, view, /*entering=*/0,
                           /*leaving_var=*/1, /*pivot=*/0.7);
    const std::vector<double> d0 = c.d;
    const std::vector<double> w0(pricer.weights().begin(),
                                 pricer.weights().end());

    const PrimalPricer::Choice choice = pricer.PriceAfterPivot(
        c.a, c.rho, view, c.entering, c.leaving_var, c.pivot);

    // Reference: dense A^T rho summed in row order, then the updates
    // d_j -= (d_q / pivot) alpha_j and w_j = max(w_j, alpha_j^2 / pivot^2
    // * w_q) on every nonbasic column, with the leaving variable reset.
    const double theta = d0[c.entering] / c.pivot;
    const double inv_pivot_sq = 1.0 / (c.pivot * c.pivot);
    const double w_q = w0[c.entering];
    std::vector<double> d_ref = d0;
    std::vector<double> w_ref = w0;
    for (int j = 0; j < c.n; ++j) {
      if (c.state[j] == kBasic) continue;
      double alpha = 0.0;
      for (int i = 0; i < c.m; ++i) alpha += c.dense[i][j] * c.rho[i];
      d_ref[j] -= theta * alpha;
      const double weight = alpha * alpha * inv_pivot_sq * w_q;
      if (weight > w_ref[j]) w_ref[j] = weight;
    }
    d_ref[c.leaving_var] = -theta;
    w_ref[c.leaving_var] = std::max(w_q * inv_pivot_sq, 1.0);
    d_ref[c.entering] = 0.0;

    for (int j = 0; j < c.n; ++j) {
      EXPECT_EQ(c.d[j], d_ref[j]) << "d of column " << j;
      EXPECT_EQ(pricer.weights()[j], w_ref[j]) << "weight of column " << j;
    }
    EXPECT_EQ(c.d[kCancelling], d0[kCancelling]);
    EXPECT_EQ(pricer.weights()[kCancelling], w0[kCancelling]);
    EXPECT_EQ(c.d[kTieA], c.d[kTieB]);
    EXPECT_EQ(pricer.weights()[kTieA], pricer.weights()[kTieB]);

    const PrimalPricer::Choice scan = pricer.ChooseEntering(view, false);
    EXPECT_EQ(choice.entering, scan.entering);
    EXPECT_EQ(choice.sign, scan.sign);
    EXPECT_NE(choice.entering, kFixed);
    EXPECT_NE(choice.entering, kTieB);  // lowest index wins the tie
    if (boost_ties) {
      EXPECT_EQ(choice.entering, kTieA);
      ++tie_picks;
    }
  }
  EXPECT_EQ(tie_picks, 10);
}

TEST(PrimalPricerTest, BlandScanTakesFirstImprovingColumn) {
  PivotCase c = MakePivotCase(3, false);
  const PrimalPricer pricer(c.n);
  const PricingView view = ViewOf(c, 1e-7);
  int first = -1;
  for (int j = 0; j < c.n && first < 0; ++j) {
    int sign = 0;
    if (PriceColumn(view, j, sign) > 0.0) first = j;
  }
  ASSERT_GE(first, 0);
  EXPECT_EQ(pricer.ChooseEntering(view, /*bland=*/true).entering, first);
}

// Reference dual ratio test: collect the eligible columns, sort them all by
// (ratio, -|alpha|, j), and walk the sorted list.
DualRatioChoice SortedDualRatioTest(const std::vector<double>& alpha,
                                    const std::vector<double>& d,
                                    const std::vector<VarStatus>& state,
                                    const std::vector<double>& lower,
                                    const std::vector<double>& upper,
                                    bool below, double violation,
                                    double pivot_tol) {
  struct Cand {
    double ratio;
    double abs_alpha;
    int j;
  };
  std::vector<Cand> eligible;
  for (int j = 0; j < static_cast<int>(state.size()); ++j) {
    const VarStatus st = state[j];
    if (st == kBasic || lower[j] == upper[j]) continue;
    const double a = alpha[j];
    if (std::abs(a) <= pivot_tol) continue;
    const bool ok = st == kFree ? true
                    : below     ? (st == kAtLower ? a < 0.0 : a > 0.0)
                                : (st == kAtLower ? a > 0.0 : a < 0.0);
    if (ok) eligible.push_back({std::abs(d[j]) / std::abs(a), std::abs(a), j});
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const Cand& x, const Cand& y) {
              if (x.ratio != y.ratio) return x.ratio < y.ratio;
              if (x.abs_alpha != y.abs_alpha) return x.abs_alpha > y.abs_alpha;
              return x.j < y.j;
            });
  DualRatioChoice choice;
  double remaining = violation;
  for (const Cand& cand : eligible) {
    const double capacity = state[cand.j] == kFree
                                ? kInf
                                : cand.abs_alpha *
                                      (upper[cand.j] - lower[cand.j]);
    if (capacity < remaining) {
      remaining -= capacity;
      choice.bound_flips.push_back(cand.j);
    } else {
      choice.entering = cand.j;
      return choice;
    }
  }
  choice.bound_flips.clear();
  return choice;
}

TEST(DualRatioTestTest, HeapOrderMatchesFullSortIncludingTies) {
  // Values from small grids, so equal ratios and equal |alpha| are common.
  const double kAlphas[] = {0.5, 1.0, 2.0};
  const double kCosts[] = {0.0, 0.5, 1.0, 2.0};
  SimplexOptions options;
  int tied_sets = 0, multi_flip = 0, farkas = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // Every third set has only finite capacities, so flips can run out.
    const bool finite = seed % 3 == 0;
    const int n = 30;
    std::vector<double> alpha(n), d(n), lower(n, 0.0), upper(n);
    std::vector<VarStatus> state(n);
    for (int j = 0; j < n; ++j) {
      const double sign = rng.NextBool(0.5) ? 1.0 : -1.0;
      alpha[j] = rng.NextBool(0.1) ? 0.0 : sign * kAlphas[rng.NextBounded(3)];
      d[j] = kCosts[rng.NextBounded(4)];
      const uint64_t kind = rng.NextBounded(10);
      upper[j] = kind == 0                       ? 0.0
                 : finite || rng.NextBool(0.7) ? 1.0 + rng.NextBounded(2)
                                               : kInf;
      if (kind == 1) {
        state[j] = kBasic;
      } else if (kind == 2 && !finite) {
        lower[j] = -kInf;
        upper[j] = kInf;
        state[j] = kFree;
      } else {
        state[j] = std::isfinite(upper[j]) && rng.NextBool(0.4) ? kAtUpper
                                                                 : kAtLower;
      }
      // Dual feasibility: d >= 0 at lower, d <= 0 at upper.
      if (state[j] == kAtUpper) d[j] = -d[j];
    }
    const bool below = rng.NextBool(0.5);
    const double violation = rng.NextDouble(0.1, finite ? 40.0 : 12.0);

    const DualRatioChoice expected = SortedDualRatioTest(
        alpha, d, state, lower, upper, below, violation, options.pivot_tol);
    const DualRatioChoice got = DualRatioTest(alpha, d, state, lower, upper,
                                              below, violation, options);
    EXPECT_EQ(got.entering, expected.entering);
    EXPECT_EQ(got.bound_flips, expected.bound_flips);

    if (expected.bound_flips.size() >= 2) ++multi_flip;
    if (expected.entering < 0) ++farkas;
    std::vector<std::pair<double, double>> keys;
    for (int j : expected.bound_flips) {
      keys.push_back({std::abs(d[j] / alpha[j]), std::abs(alpha[j])});
    }
    if (expected.entering >= 0) {
      const int j = expected.entering;
      keys.push_back({std::abs(d[j] / alpha[j]), std::abs(alpha[j])});
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      ++tied_sets;
    }
  }
  // The sets exercised what the ordering is about.
  EXPECT_GT(tied_sets, 30);
  EXPECT_GT(multi_flip, 30);
  EXPECT_GT(farkas, 0);
}

}  // namespace
}  // namespace lp
}  // namespace privsan
