// Retention windows over a streaming search log.
//
// A production log is a stream with retention obligations: a tenant keeps
// each user's clicks only while the user is inside the window, and retires
// them afterwards. WindowState tracks per-user last-seen timestamps (the
// serve layer observes them on every flush) and answers "who has aged
// out?" — the actual deletion is SanitizerSession::RemoveUsers, driven
// either explicitly (the EXPIRE verb) or continuously by the serve
// maintenance thread.
//
// Two policies:
//
//   * sliding  — the window is [now − span, now]; a user expires once
//                their last click is older than span;
//   * tumbling — time is cut into fixed [k·span, (k+1)·span) panes; every
//                user whose last click fell in a *previous* pane expires
//                when the pane turns over (all-at-once retirement).
//
// Timestamps are caller-defined uint64 units (the serve layer uses unix
// seconds; tests use logical ticks) — the state never reads a clock, which
// keeps expiry deterministic and replayable. Like the accountant, this is
// plain unlocked state serialized into tenant snapshots.
#ifndef PRIVSAN_STREAM_WINDOW_H_
#define PRIVSAN_STREAM_WINDOW_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/result.h"

namespace privsan {
namespace stream {

enum class WindowKind : uint8_t {
  kNone = 0,      // no retention: users never expire
  kSliding = 1,
  kTumbling = 2,
};

// Returns kInvalidArgument for unknown names.
Result<WindowKind> WindowKindFromString(const std::string& name);

struct WindowPolicy {
  WindowKind kind = WindowKind::kNone;
  // Window length in caller time units; 0 disables retention even for
  // sliding/tumbling kinds.
  uint64_t span = 0;

  bool active() const { return kind != WindowKind::kNone && span > 0; }
  bool operator==(const WindowPolicy&) const = default;
};

class WindowState {
 public:
  WindowState() = default;
  explicit WindowState(WindowPolicy policy) : policy_(policy) {}

  const WindowPolicy& policy() const { return policy_; }

  // Records that `user` was seen at `now` (monotonic per user: an older
  // observation never rolls a newer one back).
  void Observe(const std::string& user, uint64_t now);

  // Users whose last observation is strictly older than `cutoff`, sorted
  // by name (deterministic removal batches). Ignores the policy — this is
  // the explicit EXPIRE verb.
  std::vector<std::string> ExpiredBefore(uint64_t cutoff) const;

  // Users the policy retires at time `now`: sliding — last seen before
  // now − span; tumbling — last seen before the current pane's start.
  // Empty when the policy is inactive.
  std::vector<std::string> ExpiredAt(uint64_t now) const;

  // Drops tracking state for removed users.
  void Forget(const std::vector<std::string>& users);

  size_t tracked_users() const { return last_seen_.size(); }

  void Serialize(std::ostream& out) const;
  static Result<WindowState> Deserialize(std::istream& in);

  bool operator==(const WindowState& other) const {
    return policy_ == other.policy_ && last_seen_ == other.last_seen_;
  }

 private:
  WindowPolicy policy_;
  std::unordered_map<std::string, uint64_t> last_seen_;
};

}  // namespace stream
}  // namespace privsan

#endif  // PRIVSAN_STREAM_WINDOW_H_
