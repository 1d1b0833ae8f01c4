// serve subsystem foundations: ThreadPool semantics, and the shard-aware
// entry points (RemoveUniquePairs, DpConstraintSystem::BuildRows) being
// bit-identical to their serial counterparts.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/constraints.h"
#include "log/preprocess.h"
#include "log/search_log.h"
#include "serve/thread_pool.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {


SearchLog Synthetic(uint64_t seed = 11, size_t users = 80,
                    size_t events = 4000) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = seed;
  config.num_users = users;
  config.num_events = events;
  return GenerateSearchLog(config).value();
}

std::vector<std::tuple<std::string, std::string, std::string, uint64_t>>
Tuples(const SearchLog& log) {
  std::vector<std::tuple<std::string, std::string, std::string, uint64_t>>
      out;
  for (UserId u = 0; u < log.num_users(); ++u) {
    for (const PairCount& cell : log.UserLogOf(u)) {
      out.emplace_back(log.user_name(u),
                       log.query_name(log.pair_query(cell.pair)),
                       log.url_name(log.pair_url(cell.pair)), cell.count);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Bitwise row-by-row comparison of two DP systems.
void ExpectSystemsIdentical(const DpConstraintSystem& a,
                            const DpConstraintSystem& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_pairs(), b.num_pairs());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.RowUser(r), b.RowUser(r)) << "row " << r;
    const auto row_a = a.Row(r);
    const auto row_b = b.Row(r);
    ASSERT_EQ(row_a.size(), row_b.size()) << "row " << r;
    for (size_t i = 0; i < row_a.size(); ++i) {
      EXPECT_EQ(row_a[i], row_b[i]) << "row " << r << " entry " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  serve::ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesTinyAndEmptyRanges) {
  serve::ThreadPool pool(3);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) sum.fetch_add(i + 1);
  });
  EXPECT_EQ(sum.load(), 1u);
}

TEST(ThreadPoolTest, ConcurrentParallelForsFromManyThreads) {
  serve::ThreadPool pool(2);  // fewer workers than client threads
  constexpr int kClients = 6;
  constexpr size_t kN = 2000;
  std::vector<uint64_t> sums(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &sums, c] {
      std::atomic<uint64_t> sum{0};
      pool.ParallelFor(kN, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          sum.fetch_add(i, std::memory_order_relaxed);
        }
      });
      sums[c] = sum.load();
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(sums[c], kN * (kN - 1) / 2) << "client " << c;
  }
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  serve::ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      if (ran.fetch_add(1) + 1 == 32) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ran.load() == 32; });
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, FreeParallelForFallsBackSerial) {
  uint64_t sum = 0;  // no atomics needed: must run on this thread
  serve::ParallelFor(nullptr, 100, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
    for (size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950u);
}

TEST(ShardedPreprocessTest, MatchesSerialBitForBit) {
  const SearchLog raw = Synthetic();
  serve::ThreadPool pool(4);
  const PreprocessResult serial = RemoveUniquePairs(raw);
  const PreprocessResult sharded = RemoveUniquePairs(raw, &pool);

  EXPECT_EQ(serial.stats.pairs_removed, sharded.stats.pairs_removed);
  EXPECT_EQ(serial.stats.pairs_retained, sharded.stats.pairs_retained);
  EXPECT_EQ(serial.stats.users_dropped, sharded.stats.users_dropped);
  EXPECT_EQ(serial.stats.clicks_removed, sharded.stats.clicks_removed);
  EXPECT_EQ(serial.stats.clicks_retained, sharded.stats.clicks_retained);
  // Same tuples AND same id assignment: pair p must name the same pair.
  EXPECT_EQ(Tuples(serial.log), Tuples(sharded.log));
  ASSERT_EQ(serial.log.num_pairs(), sharded.log.num_pairs());
  for (PairId p = 0; p < serial.log.num_pairs(); ++p) {
    EXPECT_EQ(serial.log.query_name(serial.log.pair_query(p)),
              sharded.log.query_name(sharded.log.pair_query(p)));
    EXPECT_EQ(serial.log.url_name(serial.log.pair_url(p)),
              sharded.log.url_name(sharded.log.pair_url(p)));
  }
}

TEST(ShardedBuildRowsTest, MatchesSerialBitForBit) {
  const SearchLog log = RemoveUniquePairs(Synthetic()).log;
  serve::ThreadPool pool(4);
  const DpConstraintSystem serial =
      DpConstraintSystem::BuildRows(log).value();
  const DpConstraintSystem sharded =
      DpConstraintSystem::BuildRows(log, &pool).value();
  ExpectSystemsIdentical(serial, sharded);
}

TEST(ShardedBuildRowsTest, UniquePairStillFails) {
  serve::ThreadPool pool(4);
  SearchLogBuilder builder;
  builder.Add("alice", "q", "u", 3);  // unique: only alice holds (q, u)
  builder.Add("alice", "q2", "u2", 1);
  builder.Add("bob", "q2", "u2", 2);
  const SearchLog log = builder.Build();
  const auto result = DpConstraintSystem::BuildRows(log, &pool);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace privsan
