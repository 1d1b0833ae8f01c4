// Fork-join over fixed column blocks: the simplex's per-pivot O(nnz)
// passes (the fused primal PRICE pass, the exact reduced costs, and the
// dual phase's pivot row, candidate scan and reduced-cost update) run on
// the calling thread plus a process-wide set of helper threads.
//
// Determinism. Block b covers columns [b * kColumnBlockSize,
// min(n, (b + 1) * kColumnBlockSize)), so the blocks depend on the column
// count alone. A body that writes only its own block's columns and keeps
// per-block partial results, merged by the caller in block order, computes
// bit for bit what one serial loop over [0, n) computes — which thread runs
// a block never changes a result.
//
// Helpers. At most hardware_concurrency() - 1 of them, started at the first
// pass with two or more blocks, and a pass wakes no more of them than it
// has blocks beyond the caller's. One pass at a time uses the helpers: a
// pass with fewer than two blocks, or one that finds them busy with another
// thread's pass, runs every block inline on the calling thread, through
// the same body. Between passes a helper spins somewhat longer than a
// medium pivot's serial part (FTRAN, BTRAN, ratio test) and then parks on
// an atomic wait, so an idle process burns no CPU. The caller claims
// blocks like a helper and waits only for blocks a helper has already
// claimed; with no helper (one vCPU, a forked child) it runs them all. The
// helpers are joined at exit.
//
// Caller task. A pass may carry one task for the calling thread: it runs
// exactly once, after the helpers are woken and before the caller claims
// its first block, so it overlaps the helpers' first blocks (the simplex
// runs the Forrest–Tomlin update beside the fused PRICE pass this way). A
// pass that runs inline runs the task first, then every block. The task
// must not touch what the blocks read or write.
//
// Not a task queue (such as serve::ThreadPool, the service's request
// workers): a solve makes thousands of passes of tens of microseconds each,
// too short to allocate a task, queue it through a mutex and sleep on a
// condition variable every time.
#ifndef PRIVSAN_LP_COLUMN_BLOCKS_H_
#define PRIVSAN_LP_COLUMN_BLOCKS_H_

namespace privsan {
namespace lp {

inline constexpr int kColumnBlockSize = 512;

// Number of blocks a pass over `n` columns is split into.
inline int ColumnBlockCount(int n) {
  return n <= 0 ? 0 : (n - 1) / kColumnBlockSize + 1;
}

using ColumnBlockFn = void (*)(const void* body, int block, int begin,
                               int end);

// A reference to the calling thread's task of a pass (see above); empty by
// default. The callable must outlive the pass.
class CallerTask {
 public:
  CallerTask() = default;
  template <typename Fn>
  explicit CallerTask(Fn& fn)
      : run_([](void* f) { (*static_cast<Fn*>(f))(); }), fn_(&fn) {}

  void operator()() const {
    if (run_ != nullptr) run_(fn_);
  }

 private:
  void (*run_)(void*) = nullptr;
  void* fn_ = nullptr;
};

// Calls fn(body, block, begin, end) exactly once for every block of
// [0, n), and `task` exactly once on the calling thread, and returns when
// all of them have finished. Blocks may run concurrently with each other
// and with the task; neither fn nor the task may throw.
void RunColumnBlocks(int n, ColumnBlockFn fn, const void* body,
                     CallerTask task = {});

// body(block, begin, end) for every block of [0, n), as RunColumnBlocks.
template <typename Body>
void ForEachColumnBlock(int n, const Body& body, CallerTask task = {}) {
  RunColumnBlocks(
      n,
      [](const void* b, int block, int begin, int end) {
        (*static_cast<const Body*>(b))(block, begin, end);
      },
      &body, task);
}

}  // namespace lp
}  // namespace privsan

#endif  // PRIVSAN_LP_COLUMN_BLOCKS_H_
