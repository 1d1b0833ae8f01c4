// Factorization microbench: the basis-kernel primitives under the simplex
// — Refactorize, FTRAN, BTRAN — for the Markowitz LU (and, at small sizes,
// the dense inverse oracle), on random sparse bases of growing density
// ("growing fill" is exactly the regime the Markowitz ordering contains).
//
// Per (m, density, kind) record:
//   refactor_seconds      one Refactorize of the basis
//   ftran_seconds         one FTRAN, averaged over many random vectors
//   btran_seconds         one BTRAN, ditto
//   ftran_updated_seconds one FTRAN after `updates` simplex pivots
//   nnz                   factor nonzeros right after Refactorize
//   updated_nnz           factor + update nonzeros after the pivots
//
// Emits BENCH_micro_factorization.json; CI diffs it against the committed
// small-scale baseline (tools/check_bench_regression.py), so a fill
// regression in the LU (nnz) or a kernel slowdown fails the build.
//
// The update-run section measures the Forrest–Tomlin update (mode "ft"):
// K consecutive simplex-shaped Update() calls (K growing to 50), then
// FTRAN. Per record it emits
//   u_nnz           update-file growth: nonzeros added on top of the fresh
//                   factorization by the K updates (U fill + row-eta
//                   terms, minus deleted columns)
//   update_run_len  updates the default refactorization policy (growth
//                   limit 8x) would have sustained before refactorizing
// CI gates u_nnz (lower is better) and update_run_len (higher is better).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_factorization_common.h"
#include "lp/basis_rep.h"
#include "lp/lu_factorization.h"
#include "lp/sparse_matrix.h"
#include "rng/random.h"
#include "util/timer.h"

using namespace privsan;
using lp::BasisRep;
using lp::DenseBasis;
using lp::LuFactorization;
using lp::SparseEntry;
using lp::SparseMatrix;

namespace {

struct KernelTimes {
  double refactor_seconds = 0.0;
  double ftran_seconds = 0.0;
  double btran_seconds = 0.0;
  double ftran_updated_seconds = 0.0;
  size_t nnz = 0;
  size_t updated_nnz = 0;
  int updates_applied = 0;
};

// Fill of the LU (nullptr for the dense oracle, whose m^2 is not fill).
size_t Nonzeros(const LuFactorization* lu) {
  return lu != nullptr ? lu->total_nonzeros() : 0;
}

KernelTimes Measure(BasisRep& rep, const LuFactorization* lu,
                    const SparseMatrix& A, int m, int updates, Rng& rng) {
  KernelTimes times;
  std::vector<int> basis(m);
  for (int i = 0; i < m; ++i) basis[i] = i;

  {
    WallTimer timer;
    if (!rep.Refactorize(A, basis)) {
      std::cerr << "# unexpected singular bench basis\n";
      return times;
    }
    times.refactor_seconds = timer.ElapsedSeconds();
  }
  times.nnz = Nonzeros(lu);

  // Solve timings, averaged over distinct random vectors so no
  // factorization path gets to cache one solve.
  const int reps = 50;
  std::vector<std::vector<double>> vectors(reps, std::vector<double>(m));
  for (auto& v : vectors) {
    for (double& x : v) x = rng.NextDouble(-2.0, 2.0);
  }
  {
    WallTimer timer;
    double sink = 0.0;
    for (const auto& v : vectors) {
      std::vector<double> x = v;
      rep.Ftran(x);
      sink += x[0];
    }
    times.ftran_seconds = timer.ElapsedSeconds() / reps;
    if (std::isnan(sink)) std::cerr << "# nan\n";
  }
  {
    WallTimer timer;
    double sink = 0.0;
    for (const auto& v : vectors) {
      std::vector<double> x = v;
      rep.Btran(x);
      sink += x[0];
    }
    times.btran_seconds = timer.ElapsedSeconds() / reps;
    if (std::isnan(sink)) std::cerr << "# nan\n";
  }

  // Simplex-shaped updates: FTRAN an entering column, pivot at its largest
  // component (guaranteed stable), register the update.
  std::vector<double> w(m, 0.0);
  for (int k = 0; k < updates; ++k) {
    const int entering = m + k;
    std::fill(w.begin(), w.end(), 0.0);
    for (const SparseEntry& e : A.Column(entering)) w[e.index] = e.value;
    rep.Ftran(w);
    int slot = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(w[i]) > std::abs(w[slot])) slot = i;
    }
    if (!rep.Update(w, slot, 1e-9)) break;
    basis[slot] = entering;
    ++times.updates_applied;
  }
  times.updated_nnz = Nonzeros(lu);
  {
    WallTimer timer;
    double sink = 0.0;
    for (const auto& v : vectors) {
      std::vector<double> x = v;
      rep.Ftran(x);
      sink += x[0];
    }
    times.ftran_updated_seconds = timer.ElapsedSeconds() / reps;
    if (std::isnan(sink)) std::cerr << "# nan\n";
  }
  return times;
}

void Report(bench::JsonReport& report, const std::string& label,
            const std::string& kind, int m, double density,
            const KernelTimes& times) {
  bench::JsonRecord record;
  record.Add("record", "factorization")
      .Add("label", label)
      .Add("mode", kind)
      .Add("rows", static_cast<int64_t>(m))
      .Add("refactor_seconds", times.refactor_seconds)
      .Add("ftran_seconds", times.ftran_seconds)
      .Add("btran_seconds", times.btran_seconds)
      .Add("ftran_updated_seconds", times.ftran_updated_seconds)
      .Add("nnz", static_cast<int64_t>(times.nnz))
      .Add("updated_nnz", static_cast<int64_t>(times.updated_nnz));
  report.Add(std::move(record));
  std::cout << "  " << label << " " << kind << ": refactor "
            << bench::Shorten(times.refactor_seconds * 1e3) << " ms, ftran "
            << bench::Shorten(times.ftran_seconds * 1e6) << " us, btran "
            << bench::Shorten(times.btran_seconds * 1e6) << " us, nnz "
            << times.nnz << " -> " << times.updated_nnz << " after "
            << times.updates_applied << " updates\n";
}

// One update run: Refactorize, apply up to `k_updates` simplex-shaped
// pivots, FTRAN. `run_len` is where the default growth policy (8x the
// fresh nonzeros) would have refactorized; the run itself continues to
// k_updates so the fill is always measured over the same pivots.
struct UpdateRunTimes {
  double update_seconds = 0.0;  // total across the run
  double ftran_updated_seconds = 0.0;
  int64_t u_nnz = 0;  // nonzeros the run added on top of the fresh factors
  int updates_applied = 0;
  int run_len = 0;
};

UpdateRunTimes MeasureUpdateRun(BasisRep& rep, size_t fresh_nnz,
                                const SparseMatrix& A, int m, int k_updates,
                                Rng& rng) {
  UpdateRunTimes times;
  const double growth_limit = 8.0 * static_cast<double>(fresh_nnz);
  std::vector<double> w(m);
  WallTimer update_timer;
  for (int k = 0; k < k_updates; ++k) {
    const int entering = m + k;
    std::fill(w.begin(), w.end(), 0.0);
    for (const SparseEntry& e : A.Column(entering)) w[e.index] = e.value;
    rep.Ftran(w);
    int slot = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(w[i]) > std::abs(w[slot])) slot = i;
    }
    if (!rep.Update(w, slot, 1e-9)) break;
    ++times.updates_applied;
    if (static_cast<double>(rep.nonzeros()) <= growth_limit) {
      times.run_len = times.updates_applied;
    }
  }
  times.update_seconds = update_timer.ElapsedSeconds();
  times.u_nnz = static_cast<int64_t>(rep.nonzeros()) -
                static_cast<int64_t>(fresh_nnz);

  const int reps = 50;
  WallTimer timer;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    std::vector<double> x(m);
    for (double& v : x) v = rng.NextDouble(-2.0, 2.0);
    rep.Ftran(x);
    sink += x[0];
  }
  times.ftran_updated_seconds = timer.ElapsedSeconds() / reps;
  if (std::isnan(sink)) std::cerr << "# nan\n";
  return times;
}

void ReportUpdateRun(bench::JsonReport& report, const std::string& label,
                     const std::string& kind, int m,
                     const UpdateRunTimes& times) {
  bench::JsonRecord record;
  record.Add("record", "update_run")
      .Add("label", label)
      .Add("mode", kind)
      .Add("rows", static_cast<int64_t>(m))
      .Add("update_seconds", times.update_seconds)
      .Add("ftran_updated_seconds", times.ftran_updated_seconds)
      .Add("u_nnz", times.u_nnz)
      .Add("update_run_len", static_cast<int64_t>(times.run_len));
  report.Add(std::move(record));
  std::cout << "  " << label << " " << kind << ": " << times.updates_applied
            << " updates in " << bench::Shorten(times.update_seconds * 1e3)
            << " ms, ftran " << bench::Shorten(times.ftran_updated_seconds * 1e6)
            << " us, +" << times.u_nnz << " nnz, run_len " << times.run_len
            << "\n";
}

}  // namespace

int main() {
  bench::JsonReport report("micro_factorization");
  const std::string scale = bench::BenchScaleName();
  const int m = scale == "full" ? 1000 : scale == "medium" ? 400 : 120;
  const int updates = 40;

  std::cout << "== factorization kernels (m = " << m
            << ", growing fill) ==\n";
  for (double density : {0.01, 0.03, 0.08}) {
    Rng rng(1234);
    const SparseMatrix A =
        bench::MakeBasisBenchMatrix(rng, m, updates, density);
    const std::string label =
        "m" + std::to_string(m) + "_d" + bench::Shorten(density, 2);

    {
      Rng solve_rng(7);
      LuFactorization lu(updates + 1, 1e9);
      Report(report, label, "lu", m, density,
             Measure(lu, &lu, A, m, updates, solve_rng));
    }
    if (m <= 200) {
      // The dense oracle is O(m^3) to refactorize; only worth timing small.
      Rng solve_rng(7);
      DenseBasis dense(updates + 1);
      Report(report, label, "dense", m, density,
             Measure(dense, nullptr, A, m, updates, solve_rng));
    }
  }

  // --- Update runs over growing K. -----------------------------------------
  const int max_k = 50;
  std::cout << "== update runs (m = " << m << ", K up to " << max_k
            << ") ==\n";
  {
    Rng rng(4321);
    // Simplex-shaped basis (see MakeSlackHeavyBenchMatrix): mostly slack
    // columns, like the bases the simplex actually updates.
    const SparseMatrix A =
        bench::MakeSlackHeavyBenchMatrix(rng, m, max_k,
                                         /*structural_fraction=*/0.25,
                                         /*nnz_per_column=*/3.0);
    for (int k_updates : {10, 25, max_k}) {
      const std::string label = "m" + std::to_string(m) + "_k" +
                                std::to_string(k_updates);
      std::vector<int> basis(m);
      for (int i = 0; i < m; ++i) basis[i] = i;
      LuFactorization ft(max_k + 1, 1e9);
      if (!ft.Refactorize(A, basis)) {
        std::cerr << "# unexpected singular bench basis\n";
        continue;
      }
      Rng solve_rng(7);
      ReportUpdateRun(report, label, "ft", m,
                      MeasureUpdateRun(ft, ft.nonzeros(), A, m, k_updates,
                                       solve_rng));
    }
  }
  return 0;
}
