// Synthetic AOL-profile search log generation.
//
// The paper evaluates on a 2500-user sample of the 2006 AOL search log
// (Table 3). That dataset is not redistributable, so privsan substitutes a
// Zipf-calibrated generator that reproduces the statistical profile the
// mechanism actually consumes:
//
//   * heavy-tailed query popularity (Zipf over a large query vocabulary);
//   * per-query url candidate sets with skewed click-through (Zipf);
//   * heavy-tailed user activity (Zipf over users);
//   * extreme sparsity: the vast majority of distinct query-url pairs are
//     clicked by a single user and are removed by Condition-1 preprocessing
//     (AOL: 163,681 -> 6,043 pairs; the synthetic profile reproduces this
//     order-of-magnitude collapse).
//
// The mechanism never inspects query text — every quantity in Theorem 1 and
// the three UMPs is a function of the count histograms {c_ij}, {c_ijk} — so
// matching these marginals exercises identical code paths and produces the
// same qualitative utility curves as the real data.
#ifndef PRIVSAN_SYNTH_GENERATOR_H_
#define PRIVSAN_SYNTH_GENERATOR_H_

#include <cstdint>

#include "log/search_log.h"
#include "util/result.h"

namespace privsan {

struct SyntheticLogConfig {
  uint64_t seed = 42;

  // Population sizes.
  size_t num_users = 2500;
  size_t num_queries = 60000;      // query vocabulary
  size_t url_pool = 50000;         // global url pool
  size_t max_urls_per_query = 6;   // per-query candidate result set

  // Number of click events (|D| before aggregation/preprocessing).
  size_t num_events = 240000;

  // Zipf exponents.
  double query_zipf = 1.0;  // query popularity
  double url_zipf = 1.3;    // click position within a query's candidates
  double user_zipf = 0.7;   // user activity

  Status Validate() const;
};

// Deterministic in `config.seed`: one pass over the events draws three
// Zipf samples (query, user, url rank) per event from one Rng stream and
// interns the event before drawing the next, so ids follow event order.
Result<SearchLog> GenerateSearchLog(const SyntheticLogConfig& config);

// Preset configs.
// Paper-scale: ~2500 users / ~240k clicks, collapsing to a few thousand
// pairs after preprocessing — mirrors Table 3's experimental dataset.
SyntheticLogConfig PaperScaleConfig();
// Bench-scale: smaller profile so the full bench suite runs in minutes.
SyntheticLogConfig BenchScaleConfig();
// Tiny: hundreds of clicks, for unit tests.
SyntheticLogConfig TinyConfig();

}  // namespace privsan

#endif  // PRIVSAN_SYNTH_GENERATOR_H_
