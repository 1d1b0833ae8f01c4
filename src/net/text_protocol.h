// The serverd line protocol, factored out of the daemon so every
// transport speaks it identically: sanitizer_serverd's stdin pipeline,
// its --protocol=text TCP mode, and sanitizer_netclient (which parses the
// same scripts and executes them over binary frames).
//
// One input line maps to one reply ("OK ..." or "ERR ..."); blank
// lines and #-comments reply with the empty string, which transports
// treat as "print nothing". Two observability commands answer with one
// multi-line reply instead of a single line: METRICS (the Prometheus
// scrape, terminated by its "# EOF" comment) and SLOWLOG (an "OK
// slowlog ..." summary followed by one "SLOW ..." line per record).
// Commands that need several ServeRequests to
// answer one line (SOLVE's cached= flag is a Stats/Solve/Stats sandwich
// on the tenant's FIFO queue) aggregate their responses before
// formatting, so the protocol stays pipelined: a driver may hand over N
// lines without waiting and emit the N replies in order.
//
// Execution is pluggable: the backend is any SubmitFn with the callback
// shape of SanitizerService::Submit — the daemon passes the service
// directly, the net client passes a function that ships frames. Replies
// are produced exactly once per line, from whatever thread resolves the
// last outstanding response.
// The backend runs tenants in parallel, so a RESTORE line waits until
// every earlier SNAPSHOT line naming its path has answered; later lines
// for the restored tenant wait behind it, and all others keep pipelining.
#ifndef PRIVSAN_NET_TEXT_PROTOCOL_H_
#define PRIVSAN_NET_TEXT_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/api.h"

namespace privsan {
namespace net {

// Sanity caps for GEN: a count beyond these is a malformed line (for
// example "-1" wrapped to 2^64-1), answered with ERR instead of handed to
// the generator where it would throw std::length_error and kill the
// daemon mid-pipeline.
inline constexpr uint64_t kMaxGenUsers = 1u << 22;
inline constexpr uint64_t kMaxGenEvents = 1u << 26;

class TextProtocol {
 public:
  // Receives the reply line (no trailing newline; empty = print nothing).
  using Done = std::function<void(std::string reply)>;
  // The execution backend: must invoke the response callback exactly once.
  using SubmitFn = std::function<void(
      serve::ServeRequest request,
      std::function<void(serve::ServeResponse)> respond)>;
  // TENANTS backend; when null the command answers ERR (a remote client
  // has no registry view — the wire protocol is per-tenant).
  using ListTenantsFn = std::function<std::vector<std::string>()>;

  TextProtocol(SubmitFn submit, ListTenantsFn list_tenants = nullptr);

  // Parses and executes one line; `done` fires exactly once. Returns
  // false when the line is QUIT (after acking "OK bye") — the transport
  // decides what quitting means (stdin stops reading; TCP keeps the
  // connection for the client to close).
  bool Handle(const std::string& line, Done done);

 private:
  using Formatter =
      std::function<std::string(std::vector<serve::ServeResponse>&)>;
  struct Backend;  // the SubmitFn plus the RESTORE ordering state

  // Submits the batch through the backend (held back while the RESTORE
  // ordering rule requires) and formats once every response has arrived.
  void SubmitMany(std::vector<serve::ServeRequest> requests,
                  Formatter format, Done done);

  std::shared_ptr<Backend> backend_;
  ListTenantsFn list_tenants_;
};

}  // namespace net
}  // namespace privsan

#endif  // PRIVSAN_NET_TEXT_PROTOCOL_H_
