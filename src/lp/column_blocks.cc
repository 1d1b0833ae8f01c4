#include "lp/column_blocks.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <system_error>
#include <thread>

namespace privsan {
namespace lp {

namespace {

// How long an idle helper spins before it parks. The serial part of a
// medium pivot (FTRAN, BTRAN, ratio test; the LU update overlaps the PRICE
// pass as its caller task) averages about 45 us but varies: over eight
// cold medium solves (28,171 passes, three helpers) this spin parked a
// helper 297 times, where a 64 us spin, with the update still serial,
// parked one about 38,000 times over five. So the helpers stay awake from
// pass to pass within a solve and sleep between solves.
constexpr std::chrono::microseconds kHelperSpin{256};
// Pauses a caller spends waiting on a helper's block before it yields.
constexpr int kCallerSpins = 4096;

// The claim word: the pass generation above kBlockBits, the next unclaimed
// block below. kBlockMask as the block closes a pass.
constexpr int kBlockBits = 24;
constexpr uint64_t kBlockMask = (uint64_t{1} << kBlockBits) - 1;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

void RunBlock(int n, ColumnBlockFn fn, const void* body, int block) {
  const int begin = block * kColumnBlockSize;
  fn(body, block, begin, std::min(n, begin + kColumnBlockSize));
}

// The pass in flight; it lives on its caller's stack.
struct Pass {
  ColumnBlockFn fn = nullptr;
  const void* body = nullptr;
  int n = 0;
};

class Helpers {
 public:
  static Helpers& Get() {
    static Helpers helpers;
    return helpers;
  }

  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

  ~Helpers() {
    const int started = started_.load();
    if (started == 0) return;
    // A forked child inherits this object but none of the threads; joining
    // them would wait forever, and destroying a joinable std::thread
    // terminates, so the child leaves them alone.
    if (::getpid() != pid_.load()) {
      slots_.release();
      return;
    }
    stop_.store(true);
    for (int h = 0; h < started; ++h) Wake(slots_[h]);
    for (int h = 0; h < started; ++h) slots_[h].thread.join();
  }

  void Run(int n, ColumnBlockFn fn, const void* body, int blocks,
           CallerTask task) {
    if (max_helpers_ == 0 ||
        busy_.exchange(true, std::memory_order_acquire)) {
      task();
      for (int b = 0; b < blocks; ++b) RunBlock(n, fn, body, b);
      return;
    }
    const int helpers = Start(std::min(blocks - 1, max_helpers_));
    const Pass pass{fn, body, n};
    ++generation_;
    // Close the claim word before the descriptor changes (see Work).
    claim_.store(generation_ << kBlockBits | kBlockMask);
    pass_.store(&pass);
    blocks_.store(blocks);
    done_.store(0);
    claim_.store(generation_ << kBlockBits);
    for (int h = 0; h < helpers; ++h) Wake(slots_[h]);
    task();
    Work();
    // Every block is claimed; wait for the ones helpers are running.
    for (int spins = 0; done_.load() < blocks; ++spins) {
      if (spins < kCallerSpins) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
    busy_.store(false, std::memory_order_release);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint32_t> wake{0};
    std::thread thread;
  };

  Helpers()
      : max_helpers_(std::max(
            0, static_cast<int>(std::thread::hardware_concurrency()) - 1)),
        slots_(std::make_unique<Slot[]>(max_helpers_)) {}

  static void Wake(Slot& slot) {
    slot.wake.fetch_add(1);
    slot.wake.notify_one();
  }

  // Starts helpers until `wanted` run (pass owner only); returns how many
  // do. A thread that cannot be started leaves the passes to the helpers
  // that did start.
  int Start(int wanted) {
    int started = started_.load(std::memory_order_relaxed);
    while (started < wanted && !start_failed_) {
      Slot& slot = slots_[started];
      try {
        slot.thread = std::thread(&Helpers::HelperLoop, this, std::ref(slot),
                                  slot.wake.load());
      } catch (const std::system_error&) {
        start_failed_ = true;
        break;
      }
      pid_.store(::getpid());
      started_.store(++started);
    }
    return std::min(wanted, started);
  }

  void HelperLoop(Slot& slot, uint32_t seen) {
    while (true) {
      const auto park_at = std::chrono::steady_clock::now() + kHelperSpin;
      for (int spins = 1; slot.wake.load(std::memory_order_acquire) == seen;
           ++spins) {
        if (spins % 64 == 0 && std::chrono::steady_clock::now() > park_at) {
          slot.wake.wait(seen, std::memory_order_acquire);
        }
        CpuRelax();
      }
      seen = slot.wake.load(std::memory_order_acquire);
      if (stop_.load()) return;
      Work();
    }
  }

  // Claims and runs blocks of the open pass until none is left unclaimed.
  //
  // claim_, pass_, blocks_ and done_ are accessed sequentially consistently.
  // A pass's owner closes claim_ before it publishes a new descriptor, so a
  // descriptor read from a later pass than the claim word's makes the
  // compare-exchange fail. A claim that succeeds on block < blocks
  // therefore belongs to the pass whose descriptor was read, and that
  // pass's owner waits for the block before its descriptor goes away.
  void Work() {
    uint64_t claim = claim_.load();
    while (true) {
      const Pass* pass = pass_.load();
      const int blocks = blocks_.load();
      const int block = static_cast<int>(claim & kBlockMask);
      if (block >= blocks) return;
      if (!claim_.compare_exchange_weak(claim, claim + 1)) continue;
      RunBlock(pass->n, pass->fn, pass->body, block);
      done_.fetch_add(1);
      ++claim;
    }
  }

  const int max_helpers_;
  std::unique_ptr<Slot[]> slots_;
  // Pass owner only (the thread holding busy_).
  uint64_t generation_ = 0;
  bool start_failed_ = false;
  std::atomic<int> started_{0};
  std::atomic<pid_t> pid_{0};
  std::atomic<bool> stop_{false};

  alignas(64) std::atomic<bool> busy_{false};
  alignas(64) std::atomic<uint64_t> claim_{0};
  std::atomic<const Pass*> pass_{nullptr};
  std::atomic<int> blocks_{0};
  alignas(64) std::atomic<int> done_{0};
};

}  // namespace

void RunColumnBlocks(int n, ColumnBlockFn fn, const void* body,
                     CallerTask task) {
  const int blocks = ColumnBlockCount(n);
  if (blocks < 2) {
    task();
    if (blocks == 1) RunBlock(n, fn, body, 0);
    return;
  }
  Helpers::Get().Run(n, fn, body, blocks, task);
}

}  // namespace lp
}  // namespace privsan
