// The binary framed wire protocol, layer 2: typed payloads.
//
// Maps the serve/api.h request/response family onto net/frame.h frames.
// Each ServeRequest alternative becomes one frame whose verb names the
// alternative and whose payload serializes its fields with the
// util/binary_io primitives; SearchLogs travel in the snapshot codec's
// byte layout (serve::WriteSearchLog), bases via lp/basis_io. Every
// request payload starts with the tenant name, so a router can pick the
// shard with PeekTenant without decoding the rest.
//
// Responses are one kResponse frame: the StatusCode rides the frame
// header (admission-control rejections are visible as kResourceExhausted
// before any payload decode), the payload holds the status message plus
// the verb's typed payload, tagged by a one-byte kind.
//
// Not serialized: the optional per-tenant SessionOptions override of
// CreateTenant/RestoreTenant. SessionOptions carries solver tunables sized
// to the host, so remote tenants always use the backend's configured
// defaults; EncodeRequest rejects a request carrying an override rather
// than silently dropping it.
//
// Malformed payloads (truncated, out-of-range enums, implausible counts)
// fail with typed errors and never crash or over-allocate — the same
// contract as the snapshot codec, enforced by the same ReadCount guards.
#ifndef PRIVSAN_NET_CODEC_H_
#define PRIVSAN_NET_CODEC_H_

#include <cstdint>
#include <string>

#include "net/frame.h"
#include "serve/api.h"
#include "util/result.h"

namespace privsan {
namespace net {

// InvalidArgument if the request carries a SessionOptions override (not
// representable on the wire; see the header comment).
Result<Frame> EncodeRequest(const serve::ServeRequest& request,
                            uint64_t request_id);
Result<serve::ServeRequest> DecodeRequest(const Frame& frame);

Frame EncodeResponse(const serve::ServeResponse& response,
                     uint64_t request_id);
Result<serve::ServeResponse> DecodeResponse(const Frame& frame);

// The tenant a request frame addresses, without decoding the rest of the
// payload — the router's per-frame hot path.
Result<std::string> PeekTenant(const Frame& frame);

}  // namespace net
}  // namespace privsan

#endif  // PRIVSAN_NET_CODEC_H_
