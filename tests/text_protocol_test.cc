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

// Pipelines `script` into a text protocol over a two-worker service and
// returns the replies in line order.
std::vector<std::string> RunOnService(const std::vector<std::string>& script) {
  serve::ServiceOptions options;
  options.num_threads = 2;
  serve::SanitizerService service(options);
  TextProtocol protocol(
      [&service](serve::ServeRequest request,
                 std::function<void(serve::ServeResponse)> respond) {
        service.Submit(std::move(request), std::move(respond));
      });
  std::vector<std::promise<std::string>> promises(script.size());
  std::vector<std::future<std::string>> futures;
  for (auto& promise : promises) futures.push_back(promise.get_future());
  for (size_t i = 0; i < script.size(); ++i) {
    protocol.Handle(script[i], [&promises, i](std::string reply) {
      promises[i].set_value(std::move(reply));
    });
  }
  std::vector<std::string> replies;
  for (auto& future : futures) replies.push_back(future.get());
  return replies;
}

// The same script on the real service: the restored tenant exists, and its
// first solve resumes warm from the snapshot's basis.
TEST(TextProtocolTest, PipelinedSnapshotThenRestoreOnTheService) {
  const std::string path =
      ::testing::TempDir() + "/privsan_text_protocol_restore.snap";
  std::remove(path.c_str());
  const std::vector<std::string> script = {
      "CREATE t",           "GEN t 40 2000 7",
      "FLUSH t",            "SOLVE t OUMP 2.0 0.5",
      "SNAPSHOT t " + path, "RESTORE t2 " + path,
      "SOLVE t2 OUMP 2.0 0.5"};
  const std::vector<std::string> replies = RunOnService(script);
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(replies[i].rfind("OK", 0), 0u) << script[i] << ": " << replies[i];
  }
  EXPECT_NE(replies.back().find("warm=1"), std::string::npos)
      << replies.back();
  std::remove(path.c_str());
}

// REMOVE and EXPIRE answer how many users this request removed, not the
// tenant's running total.
TEST(TextProtocolTest, RemovalRepliesCountThisRequestOnly) {
  const std::vector<std::string> replies = RunOnService(
      {"CREATE t", "GEN t 40 2000 7", "APPEND t zz1 zq zl 2",
       "APPEND t zz2 zq zl 3", "FLUSH t", "REMOVE t zz1",
       "EXPIRE t 1"});  // cutoff at unix second 1: nothing expires
  ASSERT_EQ(replies.size(), 7u);
  EXPECT_EQ(replies[5], "OK users_removed=1");
  EXPECT_EQ(replies[6], "OK users_removed=0");
}

// SWEEP answers how many of its cells ran warm as warm_cells=; the STATS
// line's warm_solves= counts warm LP solves instead. An O-UMP sweep solves
// its first cell and scales that optimum to the others.
TEST(TextProtocolTest, SweepReplyCountsWarmCells) {
  const std::vector<std::string> replies =
      RunOnService({"CREATE t", "GEN t 40 2000 7", "FLUSH t",
                    "SWEEP t OUMP 0.5 1.5 2.0 2.5"});
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[3].rfind("OK cells=3 warm_cells=2 simplex_iterations=", 0),
            0u)
      << replies[3];
}

}  // namespace
}  // namespace privsan
