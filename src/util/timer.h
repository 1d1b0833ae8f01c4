// Wall-clock timer used by benches and solver statistics.
#ifndef PRIVSAN_UTIL_TIMER_H_
#define PRIVSAN_UTIL_TIMER_H_

#include <chrono>

namespace privsan {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace privsan

#endif  // PRIVSAN_UTIL_TIMER_H_
