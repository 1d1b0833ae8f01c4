#include "stream/window.h"

#include <algorithm>

#include "util/binary_io.h"

namespace privsan {
namespace stream {

namespace {
constexpr uint64_t kMaxTrackedUsers = 1ull << 26;
}  // namespace

Result<WindowKind> WindowKindFromString(const std::string& name) {
  if (name == "none") return WindowKind::kNone;
  if (name == "sliding") return WindowKind::kSliding;
  if (name == "tumbling") return WindowKind::kTumbling;
  return Status::InvalidArgument("unknown window kind: " + name);
}

void WindowState::Observe(const std::string& user, uint64_t now) {
  uint64_t& seen = last_seen_[user];
  seen = std::max(seen, now);
}

std::vector<std::string> WindowState::ExpiredBefore(uint64_t cutoff) const {
  std::vector<std::string> expired;
  for (const auto& [user, seen] : last_seen_) {
    if (seen < cutoff) expired.push_back(user);
  }
  std::sort(expired.begin(), expired.end());
  return expired;
}

std::vector<std::string> WindowState::ExpiredAt(uint64_t now) const {
  if (!policy_.active()) return {};
  uint64_t cutoff = 0;
  if (policy_.kind == WindowKind::kSliding) {
    cutoff = now > policy_.span ? now - policy_.span : 0;
  } else {
    cutoff = (now / policy_.span) * policy_.span;  // current pane's start
  }
  return ExpiredBefore(cutoff);
}

void WindowState::Forget(const std::vector<std::string>& users) {
  for (const std::string& user : users) last_seen_.erase(user);
}

void WindowState::Serialize(std::ostream& out) const {
  binary_io::WriteScalar<uint8_t>(out, static_cast<uint8_t>(policy_.kind));
  binary_io::WriteScalar<uint64_t>(out, policy_.span);
  binary_io::WriteScalar<uint64_t>(out, last_seen_.size());
  // Deterministic byte stream (snapshot diffing, byte-equivalence smokes):
  // serialize in sorted name order, not hash order.
  std::vector<const std::string*> names;
  names.reserve(last_seen_.size());
  for (const auto& [user, seen] : last_seen_) names.push_back(&user);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* name : names) {
    binary_io::WriteString(out, *name);
    binary_io::WriteScalar<uint64_t>(out, last_seen_.at(*name));
  }
}

Result<WindowState> WindowState::Deserialize(std::istream& in) {
  WindowState state;
  uint8_t kind = 0;
  PRIVSAN_RETURN_IF_ERROR(binary_io::ReadScalar(in, &kind));
  if (kind > static_cast<uint8_t>(WindowKind::kTumbling)) {
    return Status::IoError("window state corrupt: bad kind " +
                           std::to_string(kind));
  }
  state.policy_.kind = static_cast<WindowKind>(kind);
  PRIVSAN_RETURN_IF_ERROR(binary_io::ReadScalar(in, &state.policy_.span));
  PRIVSAN_ASSIGN_OR_RETURN(const uint64_t count,
                           binary_io::ReadCount(in, kMaxTrackedUsers));
  state.last_seen_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PRIVSAN_ASSIGN_OR_RETURN(std::string user, binary_io::ReadString(in));
    uint64_t seen = 0;
    PRIVSAN_RETURN_IF_ERROR(binary_io::ReadScalar(in, &seen));
    state.last_seen_[std::move(user)] = seen;
  }
  return state;
}

}  // namespace stream
}  // namespace privsan
