// The binary framed wire protocol, layer 1: length-prefixed frames.
//
// Every message on a privsan connection — request or response — is one
// frame:
//
//   [u32 length] [u32 magic "PSNF"] [u8 version] [u8 verb]
//   [u16 status] [u64 request_id] [payload bytes]
//
// `length` counts everything after itself (the 16-byte header plus the
// payload), so a reader needs only 4 bytes to know how much to buffer.
// All fields are native-endian, matching the snapshot files (util/
// binary_io.h): the fleet this protocol connects is same-architecture by
// construction — backends and router share a snapshot directory for
// tenant migration, which already assumes one machine profile.
//
// `verb` names the request alternative (FrameVerb mirrors the
// serve::ServeRequest variant order) or kResponse for replies. `status`
// carries the StatusCode of a response (0 on requests), so transport-level
// outcomes — notably kResourceExhausted from admission control — are
// readable without decoding the payload. `request_id` is chosen by the
// client and echoed verbatim in the response; replies additionally arrive
// in per-connection request order, so the id is a cross-check, not a
// matching requirement.
//
// FrameDecoder turns an arbitrary chunking of the byte stream back into
// frames: feed it whatever read() produced, pop complete frames. Malformed
// input — bad magic, unknown version, implausible length — fails with a
// typed InvalidArgument instead of crashing or over-allocating; after an
// error the stream has lost sync and the connection should be dropped.
#ifndef PRIVSAN_NET_FRAME_H_
#define PRIVSAN_NET_FRAME_H_

#include <cstdint>
#include <string>

#include "util/result.h"

namespace privsan {
namespace net {

// "PSNF" little-endian: 'P' is the first byte on the wire.
constexpr uint32_t kFrameMagic = 0x464E5350u;
// Bumped on every payload layout change; peers must match exactly.
constexpr uint8_t kProtocolVersion = 3;
// Header bytes covered by `length` (magic..request_id).
constexpr uint32_t kFrameHeaderBytes = 16;
// Payload cap, mirroring the snapshot codec's element cap: a log big
// enough to exceed this does not fit a single append either. A corrupt or
// hostile length field beyond it is rejected before any allocation.
constexpr uint32_t kMaxFramePayload = 1u << 26;

enum class FrameVerb : uint8_t {
  kResponse = 0,
  // Request verbs, in serve::ServeRequest variant order.
  kCreateTenant = 1,
  kAppend = 2,
  kFlush = 3,
  kSolve = 4,
  kSweep = 5,
  kSanitize = 6,
  kStats = 7,
  kSaveSnapshot = 8,
  kRestoreTenant = 9,
  kDropTenant = 10,
  // Observability verbs (PR 8). Tenant-less: the tenant string on the
  // wire is empty, and the service answers inline without queueing.
  kMetrics = 11,
  kSlowLog = 12,
  // Streaming lifecycle verbs (PR 10): deletion, window expiry, budget.
  kRemoveUsers = 13,
  kExpireWindow = 14,
  kBudgetStatus = 15,
};
constexpr uint8_t kMaxFrameVerb = 15;

const char* FrameVerbName(FrameVerb verb);

struct Frame {
  FrameVerb verb = FrameVerb::kResponse;
  uint16_t status = 0;  // StatusCode of a response; 0 on requests
  uint64_t request_id = 0;
  std::string payload;
};

// Appends the encoded frame (length prefix included) to `out`. A payload
// over kMaxFramePayload (which no peer would accept, and which could wrap
// the u32 length) is replaced by a header-only kResourceExhausted error
// frame; the codecs cap payloads first, so that is a last-resort guard.
void EncodeFrame(const Frame& frame, std::string* out);
std::string EncodeFrame(const Frame& frame);

// Incremental reassembly of a frame stream from arbitrary read() chunks.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const char* data, size_t size) { buffer_.append(data, size); }
  void Feed(const std::string& data) { Feed(data.data(), data.size()); }

  // True and fills `out` when a complete frame was buffered; false when
  // more bytes are needed. A malformed stream (bad magic/version/verb,
  // implausible length) returns InvalidArgument — the decoder is then
  // unsynchronized and the connection should be closed.
  Result<bool> Next(Frame* out);

  size_t buffered() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;
  size_t max_payload_;
};

}  // namespace net
}  // namespace privsan

#endif  // PRIVSAN_NET_FRAME_H_
