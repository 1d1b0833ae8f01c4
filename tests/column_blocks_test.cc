// lp::ForEachColumnBlock, the fork-join the simplex's per-pivot passes run
// on: every block of [0, n) runs exactly once with the fixed boundaries,
// a pass of fewer than two blocks runs on the calling thread, and passes
// issued from several threads at once each still cover their own columns
// (one of them may hold the helper threads, the others run inline). A
// pass's caller task runs exactly once, on the calling thread, and an
// inline pass runs it before its first block.
#include "lp/column_blocks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace privsan {
namespace lp {
namespace {

// Runs one pass over n columns and checks that each column and each block
// was visited exactly once, with block b covering [b * size, ...).
void ExpectExactCover(int n) {
  const int blocks = ColumnBlockCount(n);
  auto column_visits = std::make_unique<std::atomic<int>[]>(n);
  auto block_visits = std::make_unique<std::atomic<int>[]>(blocks);
  std::atomic<int> bad_bounds{0};
  ForEachColumnBlock(n, [&](int block, int begin, int end) {
    if (block < 0 || block >= blocks || begin != block * kColumnBlockSize ||
        end != std::min(n, begin + kColumnBlockSize)) {
      bad_bounds.fetch_add(1);
      return;
    }
    block_visits[block].fetch_add(1);
    for (int j = begin; j < end; ++j) column_visits[j].fetch_add(1);
  });
  EXPECT_EQ(bad_bounds.load(), 0) << "n=" << n;
  for (int b = 0; b < blocks; ++b) {
    EXPECT_EQ(block_visits[b].load(), 1) << "n=" << n << " block " << b;
  }
  for (int j = 0; j < n; ++j) {
    ASSERT_EQ(column_visits[j].load(), 1) << "n=" << n << " column " << j;
  }
}

TEST(ColumnBlocksTest, BlocksCoverEveryColumnExactlyOnce) {
  EXPECT_EQ(ColumnBlockCount(0), 0);
  EXPECT_EQ(ColumnBlockCount(1), 1);
  EXPECT_EQ(ColumnBlockCount(kColumnBlockSize), 1);
  EXPECT_EQ(ColumnBlockCount(kColumnBlockSize + 1), 2);
  for (int n : {0, 1, 511, 512, 513, 1024, 3700, 20000}) ExpectExactCover(n);
}

TEST(ColumnBlocksTest, FewerThanTwoBlocksRunInline) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int n : {1, 100, kColumnBlockSize}) {
    int calls = 0;
    bool inline_only = true;
    ForEachColumnBlock(n, [&](int, int, int) {
      ++calls;
      inline_only = inline_only && std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(calls, 1) << "n=" << n;
    EXPECT_TRUE(inline_only) << "n=" << n;
  }
  int calls = 0;
  ForEachColumnBlock(0, [&](int, int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ColumnBlocksTest, ConcurrentPassesEachCoverTheirColumns) {
  constexpr int kThreads = 4;
  constexpr int kPasses = 200;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      const int n = 1500 + 700 * t;
      std::vector<int> sums(n);
      for (int pass = 0; pass < kPasses; ++pass) {
        ForEachColumnBlock(n, [&](int, int begin, int end) {
          for (int j = begin; j < end; ++j) sums[j] += j + pass;
        });
      }
      for (int j = 0; j < n; ++j) {
        if (sums[j] != kPasses * j + kPasses * (kPasses - 1) / 2) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

// One pass with a caller task, from the calling thread. Checks that the
// task ran exactly once, on the caller, and every block exactly once; with
// `inline_expected`, also that every block ran on the caller after the task.
void ExpectTaskAndCover(int n, bool inline_expected) {
  const std::thread::id caller = std::this_thread::get_id();
  const int blocks = ColumnBlockCount(n);
  auto block_visits = std::make_unique<std::atomic<int>[]>(blocks);
  std::atomic<int> order{0};
  std::atomic<int> task_runs{0};
  int task_order = -1;
  bool task_on_caller = false;
  std::atomic<int> blocks_off_caller{0};
  auto task = [&] {
    task_runs.fetch_add(1);
    task_on_caller = std::this_thread::get_id() == caller;
    task_order = order.fetch_add(1);
  };
  ForEachColumnBlock(
      n,
      [&](int block, int, int) {
        block_visits[block].fetch_add(1);
        if (std::this_thread::get_id() != caller) {
          blocks_off_caller.fetch_add(1);
        }
        order.fetch_add(1);
      },
      CallerTask(task));
  EXPECT_EQ(task_runs.load(), 1) << "n=" << n;
  EXPECT_TRUE(task_on_caller) << "n=" << n;
  for (int b = 0; b < blocks; ++b) {
    EXPECT_EQ(block_visits[b].load(), 1) << "n=" << n << " block " << b;
  }
  if (inline_expected) {
    EXPECT_EQ(task_order, 0) << "n=" << n;
    EXPECT_EQ(blocks_off_caller.load(), 0) << "n=" << n;
  }
}

TEST(ColumnBlocksTest, CallerTaskRunsOnceBesideEveryBlock) {
  // With helpers: many blocks, so the helpers (if the machine has any)
  // run blocks while the caller runs its task.
  for (int n : {2 * kColumnBlockSize, 3700, 20000}) {
    ExpectTaskAndCover(n, /*inline_expected=*/false);
  }
}

TEST(ColumnBlocksTest, CallerTaskRunsFirstInAnInlinePass) {
  // Fewer than two blocks: inline, task first.
  for (int n : {0, 1, 100, kColumnBlockSize}) {
    ExpectTaskAndCover(n, /*inline_expected=*/true);
  }
}

TEST(ColumnBlocksTest, CallerTaskRunsFirstWhenAnotherPassHoldsTheHelpers) {
  // Thread A's pass parks inside its blocks until released, so it holds
  // the helpers; this thread's pass meanwhile finds them busy and runs
  // inline, task first.
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ForEachColumnBlock(2 * kColumnBlockSize, [&](int, int, int) {
      holding.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();
  ExpectTaskAndCover(4 * kColumnBlockSize, /*inline_expected=*/true);
  release.store(true);
  holder.join();
}

}  // namespace
}  // namespace lp
}  // namespace privsan
