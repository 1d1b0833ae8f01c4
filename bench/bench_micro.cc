// Micro benchmarks (google-benchmark): the hot kernels under the paper's
// pipeline — alias-table sampling, multinomial draws, DP-row evaluation,
// SPE, rounding, and a small simplex solve.
#include <benchmark/benchmark.h>

#include "core/constraints.h"
#include "core/dump.h"
#include "core/rounding.h"
#include "core/sampler.h"
#include "core/spe.h"
#include "core/ump.h"
#include "bench_factorization_common.h"
#include "log/preprocess.h"
#include "lp/lu_factorization.h"
#include "lp/sparse_matrix.h"
#include "rng/alias_table.h"
#include "rng/distributions.h"
#include "synth/generator.h"

namespace privsan {
namespace {

const SearchLog& MicroLog() {
  static const SearchLog* log = [] {
    SyntheticLogConfig config = TinyConfig();
    config.num_events = 4000;
    config.num_users = 80;
    config.num_queries = 500;
    return new SearchLog(
        RemoveUniquePairs(GenerateSearchLog(config).value()).log);
  }();
  return *log;
}

void BM_AliasTableSample(benchmark::State& state) {
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  Rng seed_rng(7);
  for (double& w : weights) w = seed_rng.NextDouble() + 0.01;
  AliasTable table = AliasTable::Build(weights).value();
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample)->Arg(4)->Arg(64)->Arg(1024);

void BM_AliasTableBuild(benchmark::State& state) {
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  Rng seed_rng(7);
  for (double& w : weights) w = seed_rng.NextDouble() + 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AliasTable::Build(weights).value());
  }
}
BENCHMARK(BM_AliasTableBuild)->Arg(64)->Arg(1024);

void BM_Multinomial(benchmark::State& state) {
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 5.0};
  Rng rng(13);
  const uint64_t trials = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleMultinomial(rng, trials, weights).value());
  }
}
BENCHMARK(BM_Multinomial)->Arg(100)->Arg(10000);

void BM_ConstraintBuild(benchmark::State& state) {
  const SearchLog& log = MicroLog();
  PrivacyParams params = PrivacyParams::FromEEpsilon(2.0, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DpConstraintSystem::Build(log, params).value());
  }
}
BENCHMARK(BM_ConstraintBuild);

void BM_ConstraintCheck(benchmark::State& state) {
  const SearchLog& log = MicroLog();
  DpConstraintSystem system =
      DpConstraintSystem::Build(log, PrivacyParams::FromEEpsilon(2.0, 0.5))
          .value();
  std::vector<uint64_t> x(log.num_pairs(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.IsSatisfied(x));
  }
}
BENCHMARK(BM_ConstraintCheck);

void BM_Spe(benchmark::State& state) {
  const SearchLog& log = MicroLog();
  lp::BipProblem problem =
      BuildDumpBip(log, PrivacyParams::FromEEpsilon(2.0, 0.5)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveSpe(problem).value());
  }
}
BENCHMARK(BM_Spe);

// One unhinted O-UMP solve (simplex + rounding) on rows and a model built
// once.
void BM_OumpSolve(benchmark::State& state) {
  const SearchLog& log = MicroLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  auto problem = MakeOumpProblem(log, &rows).value();
  const UmpQuery query{.privacy = PrivacyParams::FromEEpsilon(2.0, 0.5)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem->Solve(query).value());
  }
}
BENCHMARK(BM_OumpSolve);

// ---- Basis factorization kernels (see bench_micro_factorization for the
// ---- JSON-reported LU fill sweep gated in CI). -----------------------------

template <typename Rep>
void RunRefactorize(benchmark::State& state, Rep rep) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(1234);
  const lp::SparseMatrix A = bench::MakeBasisBenchMatrix(rng, m, 0, 0.03);
  for (auto _ : state) {
    std::vector<int> basis(m);
    for (int i = 0; i < m; ++i) basis[i] = i;
    benchmark::DoNotOptimize(rep.Refactorize(A, basis));
  }
}

template <typename Rep>
void RunFtran(benchmark::State& state, Rep rep) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(1234);
  const lp::SparseMatrix A = bench::MakeBasisBenchMatrix(rng, m, 0, 0.03);
  std::vector<int> basis(m);
  for (int i = 0; i < m; ++i) basis[i] = i;
  rep.Refactorize(A, basis);
  Rng vec_rng(7);
  std::vector<double> v(m);
  for (double& x : v) x = vec_rng.NextDouble(-2.0, 2.0);
  for (auto _ : state) {
    std::vector<double> x = v;
    rep.Ftran(x);
    benchmark::DoNotOptimize(x);
  }
}

void BM_LuRefactorize(benchmark::State& state) {
  RunRefactorize(state, lp::LuFactorization(100, 8.0));
}
BENCHMARK(BM_LuRefactorize)->Arg(100)->Arg(400);

void BM_LuFtran(benchmark::State& state) {
  RunFtran(state, lp::LuFactorization(100, 8.0));
}
BENCHMARK(BM_LuFtran)->Arg(100)->Arg(400);

void BM_SampleOutput(benchmark::State& state) {
  const SearchLog& log = MicroLog();
  DpConstraintSystem rows = DpConstraintSystem::BuildRows(log).value();
  UmpSolution oump =
      MakeOumpProblem(log, &rows)
          .value()
          ->Solve({.privacy = PrivacyParams::FromEEpsilon(2.0, 0.5)})
          .value();
  uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleOutput(log, oump.x, seed++).value());
  }
}
BENCHMARK(BM_SampleOutput);

}  // namespace
}  // namespace privsan

BENCHMARK_MAIN();
