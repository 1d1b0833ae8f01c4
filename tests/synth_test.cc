#include "synth/generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "core/constraints.h"
#include "log/preprocess.h"
#include "synth/characteristics.h"

namespace privsan {
namespace {

TEST(SyntheticConfigTest, DefaultValidates) {
  EXPECT_TRUE(SyntheticLogConfig{}.Validate().ok());
  EXPECT_TRUE(PaperScaleConfig().Validate().ok());
  EXPECT_TRUE(BenchScaleConfig().Validate().ok());
  EXPECT_TRUE(TinyConfig().Validate().ok());
}

TEST(SyntheticConfigTest, RejectsZeroPopulations) {
  SyntheticLogConfig config = TinyConfig();
  config.num_users = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = TinyConfig();
  config.num_queries = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = TinyConfig();
  config.num_events = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = TinyConfig();
  config.url_pool = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = TinyConfig();
  config.max_urls_per_query = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SyntheticConfigTest, RejectsNegativeExponents) {
  SyntheticLogConfig config = TinyConfig();
  config.query_zipf = -0.5;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(GeneratorTest, DeterministicInSeed) {
  SearchLog a = GenerateSearchLog(TinyConfig()).value();
  SearchLog b = GenerateSearchLog(TinyConfig()).value();
  EXPECT_EQ(a.total_clicks(), b.total_clicks());
  EXPECT_EQ(a.num_pairs(), b.num_pairs());
  EXPECT_EQ(a.num_tuples(), b.num_tuples());
  for (PairId p = 0; p < a.num_pairs(); ++p) {
    EXPECT_EQ(a.pair_total(p), b.pair_total(p));
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  SyntheticLogConfig config = TinyConfig();
  SearchLog a = GenerateSearchLog(config).value();
  config.seed = config.seed + 1;
  SearchLog b = GenerateSearchLog(config).value();
  // Same event count but (almost surely) different aggregation.
  EXPECT_EQ(a.total_clicks(), b.total_clicks());
  EXPECT_NE(a.num_pairs(), b.num_pairs());
}

TEST(GeneratorTest, TotalClicksEqualsNumEvents) {
  SyntheticLogConfig config = TinyConfig();
  SearchLog log = GenerateSearchLog(config).value();
  EXPECT_EQ(log.total_clicks(), config.num_events);
}

TEST(GeneratorTest, PopulationsWithinConfiguredBounds) {
  SyntheticLogConfig config = TinyConfig();
  SearchLog log = GenerateSearchLog(config).value();
  EXPECT_LE(log.num_users(), config.num_users);
  EXPECT_LE(log.num_queries(), config.num_queries);
  EXPECT_LE(log.num_urls(), config.url_pool);
}

TEST(GeneratorTest, HeavyTailedQueryPopularity) {
  // The most popular pair should dwarf the median pair.
  SearchLog log = GenerateSearchLog(TinyConfig()).value();
  uint64_t max_total = 0;
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    max_total = std::max(max_total, log.pair_total(p));
  }
  EXPECT_GE(max_total, 10u);
}

TEST(GeneratorTest, MostPairsAreUniqueBeforePreprocessing) {
  // The AOL profile: the overwhelming majority of distinct query-url pairs
  // are held by a single user.
  SearchLog log = GenerateSearchLog(TinyConfig()).value();
  size_t unique = 0;
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    if (log.PairUserCount(p) <= 1) ++unique;
  }
  EXPECT_GT(static_cast<double>(unique) / log.num_pairs(), 0.3);
}

TEST(GeneratorTest, PreprocessedLogIsUsable) {
  PreprocessResult result =
      RemoveUniquePairs(GenerateSearchLog(TinyConfig()).value());
  EXPECT_GT(result.log.num_pairs(), 5u);
  EXPECT_GT(result.log.num_users(), 2u);
}

// FNV-1a over strings (length, then bytes) and 64-bit integers.
class Fingerprint {
 public:
  void Add(uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) AddByte(value >> shift);
  }
  void Add(std::string_view bytes) {
    Add(static_cast<uint64_t>(bytes.size()));
    for (const char c : bytes) AddByte(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  void AddByte(uint64_t byte) {
    hash_ = (hash_ ^ (byte & 0xff)) * 1099511628211ull;
  }

  uint64_t hash_ = 14695981039346656037ull;
};

// User names, each user's (pair, count) cells, then every pair's name key,
// all in id order.
void AddLog(const SearchLog& log, Fingerprint* fp) {
  for (UserId u = 0; u < log.num_users(); ++u) {
    fp->Add(log.user_name(u));
    for (const PairCount& cell : log.UserLogOf(u)) {
      fp->Add(cell.pair);
      fp->Add(cell.count);
    }
  }
  for (PairId p = 0; p < log.num_pairs(); ++p) fp->Add(log.PairNameKey(p));
}

uint64_t LogFingerprint(const SearchLog& log) {
  Fingerprint fp;
  AddLog(log, &fp);
  return fp.value();
}

// Pins the generator's Rng stream, and the preprocessing and DP rows built
// on it, to the values every committed bench baseline and perfbench seed was
// recorded with. The rows' log t values are left out: their last bit can
// depend on the libm.
TEST(GeneratorTest, OutputIsPinned) {
  EXPECT_EQ(LogFingerprint(GenerateSearchLog(TinyConfig()).value()),
            6098003354625022024u);
  const SearchLog bench = GenerateSearchLog(BenchScaleConfig()).value();
  EXPECT_EQ(LogFingerprint(bench), 16358685324223617211u);

  const SearchLog preprocessed = RemoveUniquePairs(bench).log;
  const DpConstraintSystem rows =
      DpConstraintSystem::BuildRows(preprocessed).value();
  Fingerprint fp;
  AddLog(preprocessed, &fp);
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    fp.Add(rows.RowUser(r));
    for (const DpConstraintEntry& entry : rows.Row(r)) fp.Add(entry.pair);
  }
  EXPECT_EQ(fp.value(), 13736441186619012535u);
}

TEST(CharacteristicsTest, MatchesLog) {
  SearchLog log = GenerateSearchLog(TinyConfig()).value();
  DatasetCharacteristics c = ComputeCharacteristics(log);
  EXPECT_EQ(c.total_clicks, log.total_clicks());
  EXPECT_EQ(c.num_user_logs, log.num_users());
  EXPECT_EQ(c.num_distinct_queries, log.num_queries());
  EXPECT_EQ(c.num_distinct_urls, log.num_urls());
  EXPECT_EQ(c.num_query_url_pairs, log.num_pairs());
}

TEST(CharacteristicsTest, ToStringMentionsEveryField) {
  DatasetCharacteristics c;
  c.total_clicks = 53067;
  c.num_user_logs = 1980;
  c.num_distinct_queries = 4971;
  c.num_distinct_urls = 4289;
  c.num_query_url_pairs = 6043;
  const std::string s = c.ToString();
  EXPECT_NE(s.find("53,067"), std::string::npos);
  EXPECT_NE(s.find("1980"), std::string::npos);
  EXPECT_NE(s.find("6043"), std::string::npos);
}

}  // namespace
}  // namespace privsan
