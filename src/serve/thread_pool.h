// A fixed-size worker pool: the workers that drain SanitizerService's
// per-tenant request queues. A long-running service hosts many tenants
// whose requests overlap; one shared ThreadPool runs all of them.
//
// Any number of threads may Submit concurrently. Tasks must not throw —
// exceptions never cross privsan API boundaries. The destructor runs every
// queued task before it joins the workers.
#ifndef PRIVSAN_SERVE_THREAD_POOL_H_
#define PRIVSAN_SERVE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace privsan {
namespace serve {

class ThreadPool {
 public:
  // num_threads <= 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a fire-and-forget task.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool shutdown_ = false;
};

}  // namespace serve
}  // namespace privsan

#endif  // PRIVSAN_SERVE_THREAD_POOL_H_
