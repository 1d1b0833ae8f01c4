// serve subsystem foundations: ThreadPool semantics.
#include <atomic>
#include <condition_variable>
#include <mutex>

#include <gtest/gtest.h>

#include "serve/thread_pool.h"

namespace privsan {
namespace {

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

}  // namespace
}  // namespace privsan
