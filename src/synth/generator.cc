#include "synth/generator.h"

#include <string>

#include "rng/distributions.h"
#include "rng/random.h"

namespace privsan {

Status SyntheticLogConfig::Validate() const {
  if (num_users == 0) return Status::InvalidArgument("num_users must be > 0");
  if (num_queries == 0) {
    return Status::InvalidArgument("num_queries must be > 0");
  }
  if (url_pool == 0) return Status::InvalidArgument("url_pool must be > 0");
  if (max_urls_per_query == 0) {
    return Status::InvalidArgument("max_urls_per_query must be > 0");
  }
  if (num_events == 0) {
    return Status::InvalidArgument("num_events must be > 0");
  }
  if (query_zipf < 0 || url_zipf < 0 || user_zipf < 0) {
    return Status::InvalidArgument("zipf exponents must be >= 0");
  }
  return Status::OK();
}

Result<SearchLog> GenerateSearchLog(const SyntheticLogConfig& config) {
  PRIVSAN_RETURN_IF_ERROR(config.Validate());

  PRIVSAN_ASSIGN_OR_RETURN(ZipfSampler query_sampler,
                           ZipfSampler::Build(config.num_queries,
                                              config.query_zipf));
  PRIVSAN_ASSIGN_OR_RETURN(
      ZipfSampler url_rank_sampler,
      ZipfSampler::Build(config.max_urls_per_query, config.url_zipf));
  PRIVSAN_ASSIGN_OR_RETURN(ZipfSampler user_sampler,
                           ZipfSampler::Build(config.num_users,
                                              config.user_zipf));

  Rng rng(config.seed);
  SearchLogBuilder builder;
  for (size_t event = 0; event < config.num_events; ++event) {
    const uint32_t query = query_sampler.Sample(rng);
    const uint32_t user = user_sampler.Sample(rng);

    // Each query has a deterministic candidate url set whose size shrinks
    // with rank (popular queries have richer result sets). The clicked url
    // is a Zipf draw over the candidates, mapped into the global url pool
    // via hash mixing so urls are shared across queries occasionally.
    uint64_t mix = 0x51ab5f1ed00dULL ^ (static_cast<uint64_t>(query) << 1);
    const size_t candidates = 1 + SplitMix64(mix) % config.max_urls_per_query;
    uint32_t url_rank = url_rank_sampler.Sample(rng);
    if (url_rank >= candidates) url_rank %= candidates;
    uint64_t url_mix =
        (static_cast<uint64_t>(query) << 20) ^ (url_rank * 0x9e3779b9ULL);
    const uint64_t url = SplitMix64(url_mix) % config.url_pool;

    builder.Add("user" + std::to_string(user), "query" + std::to_string(query),
                "url" + std::to_string(url), /*count=*/1);
  }
  return builder.Build();
}

SyntheticLogConfig PaperScaleConfig() {
  SyntheticLogConfig config;
  config.seed = 20120330;  // EDBT 2012
  config.num_users = 2500;
  config.num_queries = 60000;
  config.url_pool = 50000;
  config.max_urls_per_query = 6;
  config.num_events = 240000;
  config.query_zipf = 1.0;
  config.url_zipf = 1.3;
  config.user_zipf = 0.7;
  return config;
}

SyntheticLogConfig BenchScaleConfig() {
  SyntheticLogConfig config;
  config.seed = 20120330;
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

SyntheticLogConfig TinyConfig() {
  SyntheticLogConfig config;
  config.seed = 7;
  config.num_users = 30;
  config.num_queries = 120;
  config.url_pool = 100;
  config.max_urls_per_query = 4;
  config.num_events = 900;
  config.query_zipf = 1.0;
  config.url_zipf = 1.2;
  config.user_zipf = 0.6;
  return config;
}

}  // namespace privsan
