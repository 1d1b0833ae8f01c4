#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using privsan::PrivacyParams;
using privsan::UmpQuery;

namespace {

const std::vector<double> kEEpsilons = {1.001, 1.01, 1.1, 1.4, 1.7, 2.0, 2.3};
const std::vector<double> kDeltas = {1e-4, 1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8};

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

UmpQuery Query(double e_epsilon, double delta) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_epsilon, delta);
  return query;
}

}  // namespace

privsan::SyntheticLogConfig MediumConfig(uint64_t seed) {
  privsan::SyntheticLogConfig config;
  config.seed = seed;
  config.num_users = 400;
  config.num_queries = 2500;
  config.url_pool = 3000;
  config.max_urls_per_query = 4;
  config.num_events = 36000;
  config.query_zipf = 0.9;
  config.url_zipf = 1.3;
  config.user_zipf = 0.5;
  return config;
}

privsan::SyntheticLogConfig StreamConfig(uint64_t seed) {
  privsan::SyntheticLogConfig config = MediumConfig(seed);
  config.num_users *= 2;
  config.num_events *= 2;
  return config;
}

privsan::SessionOptions SessionDefaults() {
  privsan::SessionOptions options;
  options.simplex.max_iterations = 40000;
  return options;
}

uint64_t LogSeed(uint64_t seed, uint64_t index) {
  return Mix(Mix(seed) + index);
}

std::vector<PrivacyParams> Table4Cells() {
  std::vector<PrivacyParams> cells;
  for (double e_epsilon : kEEpsilons) {
    for (double delta : kDeltas) {
      cells.push_back(PrivacyParams::FromEEpsilon(e_epsilon, delta));
    }
  }
  return cells;
}

std::vector<double> FumpSupports() {
  return {1.0 / 100, 1.0 / 250, 1.0 / 500, 1.0 / 750, 1.0 / 1000};
}

std::vector<uint64_t> FumpOutputSizes(uint64_t lambda) {
  std::vector<uint64_t> sizes;
  for (uint64_t i = 1; i <= 6; ++i) {
    sizes.push_back(std::max<uint64_t>(1, lambda * (22 + 10 * i) / 100));
  }
  return sizes;
}

std::vector<PrivacyParams> Table7Cells(int part) {
  std::vector<PrivacyParams> cells;
  if (part == 0) {
    for (double delta : {1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8}) {
      cells.push_back(PrivacyParams::FromEEpsilon(2.0, delta));
    }
  } else {
    for (double e_epsilon : {1.01, 1.1, 1.4, 1.7, 2.0, 2.3}) {
      cells.push_back(PrivacyParams::FromEEpsilon(e_epsilon, 0.1));
    }
  }
  return cells;
}

std::vector<privsan::DumpSolverKind> DumpSolvers() {
  return {privsan::DumpSolverKind::kSpe, privsan::DumpSolverKind::kGreedy,
          privsan::DumpSolverKind::kLpRounding};
}

size_t TickBatch(size_t tick) {
  // Mostly one or two users; every eighth tick a batch whose removal and
  // append exceed the warm repair's pivot cap, so that solve falls back
  // cold. One-user ticks are the majority, so the tick median sits inside
  // their distribution rather than between two batch sizes.
  static constexpr size_t kSchedule[8] = {1, 2, 1, 1, 2, 1, 1, 24};
  return kSchedule[tick % 8];
}

UmpQuery StandingQuery() { return Query(2.0, 0.5); }

std::vector<UmpQuery> ProbeQueries() {
  return {Query(1.4, 0.1), Query(2.3, 0.8)};
}

Plan PlanFor(double seconds) {
  // Unit costs measured on a 4-vCPU x86-64 VM (2.0 GHz): a cold release
  // ≈1.2 s, five paper_sweeps logs (every table once) ≈28 s, a stream tick
  // with its probes ≈0.93 s (a 24-user tick ≈3 s), so the timed pass takes
  // about `seconds` there.
  Plan plan;
  plan.releases = std::max<size_t>(20, std::lround(seconds / 1.2));
  plan.logs = 5 * std::max<size_t>(1, std::lround(seconds / 28.0));
  // The stream log holds kStreamWindowUsers unseen users, enough for 96
  // ticks (33 users per eight).
  plan.ticks = std::clamp<size_t>(std::lround(seconds / 0.93), 20, 96);
  return plan;
}

}  // namespace perfbench
