// Shared fixtures for the privsan test suite.
#ifndef PRIVSAN_TESTS_TEST_FIXTURES_H_
#define PRIVSAN_TESTS_TEST_FIXTURES_H_

#include <cstdint>

#include "log/preprocess.h"
#include "log/search_log.h"
#include "synth/generator.h"

namespace privsan {
namespace testing_fixtures {

// The running example of Figure 1 in the paper. Three users, five pairs:
//
//   081: (pregnancy test nyc, medicinenet.com) 2   <- unique to 081
//        (book, amazon.com)                    3
//        (google, google.com)                 15
//   082: (google, google.com)                  7
//        (car price, kbb.com)                  2
//        (diabetes medecine, walmart.com)      1   <- unique to 082
//   083: (google, google.com)                 17
//        (car price, kbb.com)                  5
//        (book, amazon.com)                    1
//
// Totals: pregnancy 2 (unique), book 4, google 39, car 7, diabetes 1
// (unique); |D| = 53 raw, 50 after Condition-1 preprocessing.
inline SearchLog Figure1Log() {
  SearchLogBuilder builder;
  builder.Add("081", "pregnancy test nyc", "medicinenet.com", 2);
  builder.Add("081", "book", "amazon.com", 3);
  builder.Add("081", "google", "google.com", 15);
  builder.Add("082", "google", "google.com", 7);
  builder.Add("082", "car price", "kbb.com", 2);
  builder.Add("082", "diabetes medecine", "walmart.com", 1);
  builder.Add("083", "google", "google.com", 17);
  builder.Add("083", "car price", "kbb.com", 5);
  builder.Add("083", "book", "amazon.com", 1);
  return builder.Build();
}

// Figure1Log after Condition-1 preprocessing (3 pairs, |D| = 50).
inline SearchLog Figure1Preprocessed() {
  return RemoveUniquePairs(Figure1Log()).log;
}

// A tiny two-user log with no unique pairs: both users share both pairs.
inline SearchLog TwoUserSharedLog() {
  SearchLogBuilder builder;
  builder.Add("alice", "q1", "u1", 4);
  builder.Add("bob", "q1", "u1", 6);
  builder.Add("alice", "q2", "u2", 3);
  builder.Add("bob", "q2", "u2", 3);
  return builder.Build();
}

// The medium synthetic-log profile of the repository benchmark: 400 users,
// about 3.3k pairs after preprocessing.
inline SyntheticLogConfig MediumConfig(uint64_t seed) {
  SyntheticLogConfig config;
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

// A deterministic synthetic log, preprocessed, suitable for solver tests
// (a few hundred pairs, ~30 users).
inline SearchLog SmallSyntheticLog(uint64_t seed = 7) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = seed;
  SearchLog raw = GenerateSearchLog(config).value();
  return RemoveUniquePairs(raw).log;
}

}  // namespace testing_fixtures
}  // namespace privsan

#endif  // PRIVSAN_TESTS_TEST_FIXTURES_H_
