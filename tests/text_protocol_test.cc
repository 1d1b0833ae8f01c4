// net::TextProtocol: the line protocol shared by sanitizer_serverd (stdin
// and TCP text mode) and sanitizer_netclient.
#include "net/text_protocol.h"

#include <cstdio>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "serve/api.h"
#include "serve/service.h"

namespace privsan {
namespace {

using net::TextProtocol;

// A RESTORE pipelined behind a SNAPSHOT of the same file reaches the
// backend only once that snapshot has answered; the backend runs different
// tenants in parallel, so submitting it earlier races the file write.
TEST(TextProtocolTest, RestoreWaitsForTheSnapshotOfItsFile) {
  std::vector<std::string> submitted;  // "<verb> <tenant>", in order
  std::function<void(serve::ServeResponse)> snapshot_reply;
  TextProtocol protocol(
      [&](serve::ServeRequest request,
          std::function<void(serve::ServeResponse)> respond) {
        submitted.push_back(std::string(serve::RequestName(request)) + " " +
                            serve::RequestTenant(request));
        if (std::holds_alternative<serve::SaveSnapshotRequest>(request)) {
          snapshot_reply = std::move(respond);  // released below
        } else if (std::holds_alternative<serve::StatsRequest>(request)) {
          respond({Status::OK(), serve::TenantStats{}});
        } else {
          respond({Status::OK(), {}});
        }
      });

  std::vector<std::string> replies(6);
  auto into = [&replies](size_t slot) {
    return [&replies, slot](std::string reply) {
      replies[slot] = std::move(reply);
    };
  };
  protocol.Handle("SNAPSHOT t t.snap", into(0));
  protocol.Handle("RESTORE t2 t.snap", into(1));
  protocol.Handle("STATS t2", into(2));  // needs t2, so it waits too
  protocol.Handle("STATS t3", into(3));  // another tenant pipelines
  protocol.Handle("RESTORE t4 other.snap", into(4));  // another file
  EXPECT_EQ(submitted, (std::vector<std::string>{
                           "SaveSnapshot t", "Stats t3", "RestoreTenant t4"}));
  EXPECT_EQ(replies[1], "");
  EXPECT_EQ(replies[2], "");

  ASSERT_TRUE(snapshot_reply);
  snapshot_reply({Status::OK(), {}});
  EXPECT_EQ(submitted,
            (std::vector<std::string>{"SaveSnapshot t", "Stats t3",
                                      "RestoreTenant t4", "RestoreTenant t2",
                                      "Stats t2"}));
  EXPECT_EQ(replies[0], "OK wrote t.snap");
  EXPECT_EQ(replies[1], "OK restored t2");
  EXPECT_EQ(replies[2].rfind("OK appends_enqueued=", 0), 0u) << replies[2];
  EXPECT_EQ(replies[4], "OK restored t4");

  // With no snapshot of the file in flight, a RESTORE goes straight out.
  protocol.Handle("RESTORE t5 t.snap", into(5));
  EXPECT_EQ(submitted.back(), "RestoreTenant t5");
  EXPECT_EQ(replies[5], "OK restored t5");
}

// The same script on the real service: the restored tenant exists, and its
// first solve resumes warm from the snapshot's basis.
TEST(TextProtocolTest, PipelinedSnapshotThenRestoreOnTheService) {
  const std::string path =
      ::testing::TempDir() + "/privsan_text_protocol_restore.snap";
  std::remove(path.c_str());
  serve::ServiceOptions options;
  options.num_threads = 2;
  serve::SanitizerService service(options);
  TextProtocol protocol(
      [&service](serve::ServeRequest request,
                 std::function<void(serve::ServeResponse)> respond) {
        service.Submit(std::move(request), std::move(respond));
      });

  const std::vector<std::string> script = {
      "CREATE t",           "GEN t 40 2000 7",
      "FLUSH t",            "SOLVE t OUMP 2.0 0.5",
      "SNAPSHOT t " + path, "RESTORE t2 " + path,
      "SOLVE t2 OUMP 2.0 0.5"};
  std::vector<std::promise<std::string>> promises(script.size());
  std::vector<std::future<std::string>> replies;
  for (auto& promise : promises) replies.push_back(promise.get_future());
  for (size_t i = 0; i < script.size(); ++i) {
    protocol.Handle(script[i], [&promises, i](std::string reply) {
      promises[i].set_value(std::move(reply));
    });
  }
  std::string last;
  for (size_t i = 0; i < script.size(); ++i) {
    last = replies[i].get();
    EXPECT_EQ(last.rfind("OK", 0), 0u) << script[i] << ": " << last;
  }
  EXPECT_NE(last.find("warm=1"), std::string::npos) << last;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace privsan
