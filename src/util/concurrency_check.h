// Debug-only non-concurrency assertions for single-threaded state.
//
// UmpProblem, SanitizerSession and the DpConstraintSystem they rebind are
// deliberately single-threaded: solves mutate kept problem state in place, so
// two concurrent calls on one instance corrupt state. The supported way to
// use them from many threads is serialization behind a lock — which is
// exactly what serve::SanitizerService does per tenant.
//
// NonConcurrentChecker asserts that contract in debug builds: entering
// while another thread is inside trips an assert. Same-thread reentrancy is
// allowed (F-UMP resolves λ through the session's O-UMP problem). The check
// is best-effort — it catches overlapping calls, not every interleaving.
// Only the assert compiles away under NDEBUG: the members and their
// updates stay in every build, because inline entry points (UmpProblem::
// Solve in core/ump.h) enter the checker from the caller's translation
// unit, and a layout that depended on NDEBUG would let a caller built
// without it write over the fields that follow the checker in a library
// built with it.
#ifndef PRIVSAN_UTIL_CONCURRENCY_CHECK_H_
#define PRIVSAN_UTIL_CONCURRENCY_CHECK_H_

#include <atomic>
#include <cassert>
#include <thread>

namespace privsan {
namespace internal {

class NonConcurrentChecker {
 public:
  void Enter() {
    const std::thread::id self = std::this_thread::get_id();
    if (depth_.fetch_add(1, std::memory_order_acq_rel) == 0) {
      owner_.store(self, std::memory_order_release);
    } else {
      assert(owner_.load(std::memory_order_acquire) == self &&
             "concurrent access to single-threaded sanitizer state; "
             "serialize calls or go through serve::SanitizerService");
    }
  }
  void Leave() { depth_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  std::atomic<int> depth_{0};
  std::atomic<std::thread::id> owner_{};
};

// Release and Debug builds must agree on the layout (see above).
static_assert(sizeof(NonConcurrentChecker) >=
                  sizeof(std::atomic<int>) +
                      sizeof(std::atomic<std::thread::id>),
              "NonConcurrentChecker keeps its members in every build");

// RAII guard for one public entry point.
class NonConcurrentScope {
 public:
  explicit NonConcurrentScope(NonConcurrentChecker* checker)
      : checker_(checker) {
    checker_->Enter();
  }
  ~NonConcurrentScope() { checker_->Leave(); }

  NonConcurrentScope(const NonConcurrentScope&) = delete;
  NonConcurrentScope& operator=(const NonConcurrentScope&) = delete;

 private:
  NonConcurrentChecker* checker_;
};

}  // namespace internal
}  // namespace privsan

#endif  // PRIVSAN_UTIL_CONCURRENCY_CHECK_H_
