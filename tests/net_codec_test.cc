// The binary wire protocol: frame encode/decode under arbitrary stream
// chunking, typed round trips of every ServeRequest/ServeResponse
// alternative, router tenant peeking, and rejection of malformed frames —
// bad magic/version/verb, hostile lengths, truncated and trailing-junk
// payloads — with typed errors, never crashes or over-allocation.
#include "net/codec.h"

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/text_protocol.h"
#include "serve/api.h"
#include "synth/generator.h"
#include "test_fixtures.h"

namespace privsan {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameVerb;

SearchLog Synthetic(uint64_t seed = 7) {
  SyntheticLogConfig config = TinyConfig();
  config.seed = seed;
  config.num_users = 40;
  config.num_events = 1500;
  return GenerateSearchLog(config).value();
}

UmpQuery Query(double e_eps, double delta, uint64_t output_size = 0) {
  UmpQuery query;
  query.privacy = PrivacyParams::FromEEpsilon(e_eps, delta);
  query.output_size = output_size;
  return query;
}

// Id-sensitive log equality (the snapshot codec preserves ids exactly).
void ExpectLogsIdentical(const SearchLog& a, const SearchLog& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_pairs(), b.num_pairs());
  ASSERT_EQ(a.total_clicks(), b.total_clicks());
  for (UserId u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.user_name(u), b.user_name(u)) << "user " << u;
  }
  for (PairId p = 0; p < a.num_pairs(); ++p) {
    EXPECT_EQ(a.pair_total(p), b.pair_total(p)) << "pair " << p;
  }
}

// Encode -> decode of a request, through the frame layer byte stream.
serve::ServeRequest RoundTripRequest(const serve::ServeRequest& request,
                                     uint64_t request_id = 17) {
  Frame frame = net::EncodeRequest(request, request_id).value();
  FrameDecoder decoder;
  decoder.Feed(net::EncodeFrame(frame));
  Frame wire;
  EXPECT_TRUE(decoder.Next(&wire).value());
  EXPECT_EQ(wire.request_id, request_id);
  EXPECT_EQ(static_cast<int>(wire.verb), static_cast<int>(frame.verb));
  return net::DecodeRequest(wire).value();
}

serve::ServeResponse RoundTripResponse(const serve::ServeResponse& response,
                                       uint64_t request_id = 23) {
  Frame frame = net::EncodeResponse(response, request_id);
  FrameDecoder decoder;
  decoder.Feed(net::EncodeFrame(frame));
  Frame wire;
  EXPECT_TRUE(decoder.Next(&wire).value());
  EXPECT_EQ(wire.request_id, request_id);
  return net::DecodeResponse(wire).value();
}

// --- Frame layer -----------------------------------------------------------

TEST(FrameTest, RoundTripsThroughArbitraryChunking) {
  Frame frame;
  frame.verb = FrameVerb::kSolve;
  frame.status = 0;
  frame.request_id = 0xDEADBEEFCAFEBABEull;
  frame.payload = "solve payload bytes";
  const std::string wire = net::EncodeFrame(frame);

  // Feed one byte at a time: Next stays "need more" until the last byte.
  FrameDecoder decoder;
  Frame out;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Feed(wire.data() + i, 1);
    EXPECT_FALSE(decoder.Next(&out).value()) << "byte " << i;
  }
  decoder.Feed(wire.data() + wire.size() - 1, 1);
  ASSERT_TRUE(decoder.Next(&out).value());
  EXPECT_EQ(static_cast<int>(out.verb), static_cast<int>(FrameVerb::kSolve));
  EXPECT_EQ(out.request_id, frame.request_id);
  EXPECT_EQ(out.payload, frame.payload);
  EXPECT_FALSE(decoder.Next(&out).value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, PopsPipelinedFramesFromOneChunk) {
  std::string wire;
  for (uint64_t id = 1; id <= 5; ++id) {
    Frame frame;
    frame.verb = FrameVerb::kStats;
    frame.request_id = id;
    frame.payload = std::string(id, 'x');
    net::EncodeFrame(frame, &wire);
  }
  FrameDecoder decoder;
  decoder.Feed(wire);
  for (uint64_t id = 1; id <= 5; ++id) {
    Frame out;
    ASSERT_TRUE(decoder.Next(&out).value()) << "frame " << id;
    EXPECT_EQ(out.request_id, id);
    EXPECT_EQ(out.payload.size(), id);
  }
  Frame out;
  EXPECT_FALSE(decoder.Next(&out).value());
}

TEST(FrameTest, EmptyPayloadFrame) {
  Frame frame;
  frame.verb = FrameVerb::kFlush;
  frame.request_id = 3;
  FrameDecoder decoder;
  decoder.Feed(net::EncodeFrame(frame));
  Frame out;
  ASSERT_TRUE(decoder.Next(&out).value());
  EXPECT_TRUE(out.payload.empty());
}

TEST(FrameTest, RejectsBadMagic) {
  std::string wire = net::EncodeFrame(Frame{});
  wire[4] ^= 0x5A;  // corrupt the magic
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame out;
  Result<bool> next = decoder.Next(&out);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, RejectsUnknownVersionAndVerb) {
  // A peer one layout behind (payloads differ, so it must never be
  // misparsed) and a garbage version byte both fail with a typed error.
  const uint8_t previous = net::kProtocolVersion - 1;
  for (const uint8_t version : {previous, uint8_t{99}}) {
    std::string wire = net::EncodeFrame(Frame{});
    wire[8] = static_cast<char>(version);  // version byte
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame out;
    Result<bool> next = decoder.Next(&out);
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::string wire = net::EncodeFrame(Frame{});
    wire[9] = net::kMaxFrameVerb + 1;  // verb byte
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame out;
    EXPECT_FALSE(decoder.Next(&out).ok());
  }
}

// A hostile length field fails from the prefix alone — before the decoder
// waits for (or allocates) the advertised bytes.
TEST(FrameTest, RejectsHostileLengthsWithoutBuffering) {
  {
    // Length too small to hold the header.
    std::string wire(4, '\0');
    const uint32_t length = 8;
    std::memcpy(wire.data(), &length, sizeof(length));
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame out;
    EXPECT_FALSE(decoder.Next(&out).ok());
  }
  {
    // Length advertising a payload beyond the cap: only 4 bytes fed, the
    // decoder must reject instead of waiting for 4 GiB.
    std::string wire(4, '\0');
    const uint32_t length = 0xF0000000u;
    std::memcpy(wire.data(), &length, sizeof(length));
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame out;
    EXPECT_FALSE(decoder.Next(&out).ok());
  }
}

// Defense in depth at the frame layer: an oversized payload (which the
// peer would reject as malformed, and which could wrap the u32 length) is
// replaced by a well-formed header-only error frame, never a
// stream-desyncing monster.
TEST(FrameTest, OversizedPayloadEncodesHeaderOnlyErrorFrame) {
  Frame frame;
  frame.verb = FrameVerb::kAppend;
  frame.request_id = 9;
  frame.payload.assign(net::kMaxFramePayload + 1, 'x');
  FrameDecoder decoder;
  decoder.Feed(net::EncodeFrame(frame));
  Frame out;
  ASSERT_TRUE(decoder.Next(&out).value());
  EXPECT_TRUE(out.payload.empty());
  EXPECT_EQ(out.request_id, 9u);
  EXPECT_EQ(out.status,
            static_cast<uint16_t>(StatusCode::kResourceExhausted));
  EXPECT_EQ(static_cast<int>(out.verb),
            static_cast<int>(FrameVerb::kAppend));
}

TEST(FrameTest, HonorsCustomPayloadCap) {
  Frame frame;
  frame.verb = FrameVerb::kAppend;
  frame.payload = std::string(1024, 'p');
  FrameDecoder decoder(/*max_payload=*/512);
  decoder.Feed(net::EncodeFrame(frame));
  Frame out;
  EXPECT_FALSE(decoder.Next(&out).ok());
}

// --- Request round trips ----------------------------------------------------

TEST(CodecTest, RoundTripsCreateTenant) {
  const SearchLog log = Synthetic(11);
  serve::ServeRequest decoded = RoundTripRequest(
      serve::CreateTenantRequest{"tenant-a", log, std::nullopt});
  auto* create = std::get_if<serve::CreateTenantRequest>(&decoded);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->tenant, "tenant-a");
  EXPECT_FALSE(create->options.has_value());
  ExpectLogsIdentical(create->initial, log);
}

TEST(CodecTest, RoundTripsAppend) {
  const SearchLog log = Synthetic(12);
  serve::ServeRequest decoded =
      RoundTripRequest(serve::AppendRequest{"t", log});
  auto* append = std::get_if<serve::AppendRequest>(&decoded);
  ASSERT_NE(append, nullptr);
  ExpectLogsIdentical(append->logs, log);
}

TEST(CodecTest, RoundTripsTenantOnlyVerbs) {
  {
    serve::ServeRequest decoded =
        RoundTripRequest(serve::FlushRequest{"flushed"});
    auto* flush = std::get_if<serve::FlushRequest>(&decoded);
    ASSERT_NE(flush, nullptr);
    EXPECT_EQ(flush->tenant, "flushed");
  }
  {
    serve::ServeRequest decoded =
        RoundTripRequest(serve::StatsRequest{"stated"});
    ASSERT_NE(std::get_if<serve::StatsRequest>(&decoded), nullptr);
  }
  {
    serve::ServeRequest decoded =
        RoundTripRequest(serve::DropTenantRequest{"dropped"});
    auto* drop = std::get_if<serve::DropTenantRequest>(&decoded);
    ASSERT_NE(drop, nullptr);
    EXPECT_EQ(drop->tenant, "dropped");
  }
}

TEST(CodecTest, RoundTripsSolveWithAndWithoutSolver) {
  UmpQuery query = Query(0.12, 1e-5, 40);
  query.solver = DumpSolverKind::kBranchAndBound;
  serve::ServeRequest decoded = RoundTripRequest(
      serve::SolveRequest{"t", UtilityObjective::kDiversity, query});
  auto* solve = std::get_if<serve::SolveRequest>(&decoded);
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->objective, UtilityObjective::kDiversity);
  EXPECT_EQ(solve->query.privacy.epsilon, query.privacy.epsilon);
  EXPECT_EQ(solve->query.privacy.delta, query.privacy.delta);
  EXPECT_EQ(solve->query.output_size, 40u);
  ASSERT_TRUE(solve->query.solver.has_value());
  EXPECT_EQ(*solve->query.solver, DumpSolverKind::kBranchAndBound);

  query.solver.reset();
  decoded = RoundTripRequest(
      serve::SolveRequest{"t", UtilityObjective::kOutputSize, query});
  solve = std::get_if<serve::SolveRequest>(&decoded);
  ASSERT_NE(solve, nullptr);
  EXPECT_FALSE(solve->query.solver.has_value());
}

TEST(CodecTest, RoundTripsSweep) {
  serve::SweepRequest request;
  request.tenant = "sweeper";
  request.objective = UtilityObjective::kFrequentPairs;
  request.grid = {Query(0.05, 1e-4), Query(0.2, 1e-5, 10)};
  request.sweep.warm_start = false;
  request.sweep.min_support = 3.5;
  serve::ServeRequest decoded = RoundTripRequest(request);
  auto* sweep = std::get_if<serve::SweepRequest>(&decoded);
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->objective, UtilityObjective::kFrequentPairs);
  ASSERT_EQ(sweep->grid.size(), 2u);
  EXPECT_EQ(sweep->grid[0].privacy.epsilon, request.grid[0].privacy.epsilon);
  EXPECT_EQ(sweep->grid[1].output_size, 10u);
  EXPECT_FALSE(sweep->sweep.warm_start);
  ASSERT_TRUE(sweep->sweep.min_support.has_value());
  EXPECT_EQ(*sweep->sweep.min_support, 3.5);
}

TEST(CodecTest, RoundTripsSanitizeAndSnapshotVerbs) {
  {
    const PrivacyParams privacy = PrivacyParams::FromEEpsilon(0.3, 1e-6);
    serve::ServeRequest decoded =
        RoundTripRequest(serve::SanitizeRequest{"t", privacy});
    auto* sanitize = std::get_if<serve::SanitizeRequest>(&decoded);
    ASSERT_NE(sanitize, nullptr);
    EXPECT_EQ(sanitize->privacy.epsilon, privacy.epsilon);
    EXPECT_EQ(sanitize->privacy.delta, privacy.delta);
  }
  {
    serve::ServeRequest decoded = RoundTripRequest(
        serve::SaveSnapshotRequest{"t", "/tmp/t.snap"});
    auto* save = std::get_if<serve::SaveSnapshotRequest>(&decoded);
    ASSERT_NE(save, nullptr);
    EXPECT_EQ(save->path, "/tmp/t.snap");
  }
  {
    serve::ServeRequest decoded = RoundTripRequest(
        serve::RestoreTenantRequest{"t", "/tmp/t.snap", std::nullopt});
    auto* restore = std::get_if<serve::RestoreTenantRequest>(&decoded);
    ASSERT_NE(restore, nullptr);
    EXPECT_EQ(restore->path, "/tmp/t.snap");
    EXPECT_FALSE(restore->options.has_value());
  }
}

TEST(CodecTest, RejectsSessionOptionsOverrides) {
  SessionOptions options;
  Result<Frame> frame = net::EncodeRequest(
      serve::CreateTenantRequest{"t", SearchLog(), options}, 1);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  frame = net::EncodeRequest(
      serve::RestoreTenantRequest{"t", "p", options}, 1);
  EXPECT_FALSE(frame.ok());
}

TEST(CodecTest, PeeksTenantWithoutFullDecode) {
  const Frame frame =
      net::EncodeRequest(serve::AppendRequest{"shard-key", Synthetic(13)}, 5)
          .value();
  EXPECT_EQ(net::PeekTenant(frame).value(), "shard-key");
  // Response frames address no tenant.
  EXPECT_FALSE(
      net::PeekTenant(net::EncodeResponse({Status::OK(), {}}, 5)).ok());
}

// --- Response round trips ---------------------------------------------------

TEST(CodecTest, RoundTripsErrorStatusResponse) {
  serve::ServeResponse response;
  response.status = Status::ResourceExhausted("tenant queue full: t");
  // The status code rides the frame header, readable pre-decode.
  const Frame frame = net::EncodeResponse(response, 9);
  EXPECT_EQ(frame.status,
            static_cast<uint16_t>(StatusCode::kResourceExhausted));
  serve::ServeResponse decoded = RoundTripResponse(response);
  EXPECT_EQ(decoded.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.status.message(), "tenant queue full: t");
  EXPECT_EQ(decoded.solution(), nullptr);
}

TEST(CodecTest, RoundTripsSolutionPayload) {
  UmpSolution solution;
  solution.objective = UtilityObjective::kFrequentPairs;
  solution.x = {3, 0, 7, 2};
  solution.x_relaxed = {3.25, 0.0, 6.5, 2.0};
  solution.objective_value = 12.75;
  solution.output_size = 12;
  solution.basis.state = {lp::VarStatus::kAtLower, lp::VarStatus::kBasic,
                          lp::VarStatus::kAtUpper, lp::VarStatus::kBasic};
  solution.basis.basic = {1, 3};
  solution.stats.simplex_iterations = 41;
  solution.stats.dual_iterations = 17;
  solution.stats.refactorizations = 2;
  solution.stats.warm_started = true;
  solution.stats.factor_nnz = 999;
  solution.stats.max_update_run = 12;
  solution.stats.wall_seconds = 0.125;
  solution.frequent_pairs = {0, 2};
  solution.used_precision_caps = true;
  solution.proven_optimal = true;

  serve::ServeResponse decoded =
      RoundTripResponse({Status::OK(), solution});
  ASSERT_TRUE(decoded.ok());
  const UmpSolution* out = decoded.solution();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->objective, solution.objective);
  EXPECT_EQ(out->x, solution.x);
  EXPECT_EQ(out->x_relaxed, solution.x_relaxed);
  EXPECT_EQ(out->objective_value, solution.objective_value);
  EXPECT_EQ(out->output_size, solution.output_size);
  EXPECT_EQ(out->basis.basic, solution.basis.basic);
  ASSERT_EQ(out->basis.state.size(), solution.basis.state.size());
  EXPECT_EQ(out->stats.simplex_iterations, 41);
  EXPECT_EQ(out->stats.dual_iterations, 17);
  EXPECT_EQ(out->stats.refactorizations, 2);
  EXPECT_TRUE(out->stats.warm_started);
  EXPECT_EQ(out->stats.factor_nnz, 999u);
  EXPECT_EQ(out->stats.max_update_run, 12);
  EXPECT_EQ(out->stats.wall_seconds, 0.125);
  EXPECT_EQ(out->frequent_pairs, solution.frequent_pairs);
  EXPECT_TRUE(out->used_precision_caps);
  EXPECT_TRUE(out->proven_optimal);
}

TEST(CodecTest, RoundTripsSweepPayload) {
  SweepResult sweep;
  sweep.cells.resize(2);
  sweep.cells[0].objective_value = 5.0;
  sweep.cells[0].x = {1, 2};
  sweep.cells[1].objective_value = 9.0;
  sweep.cells[1].stats.warm_started = true;
  sweep.wall_seconds = 1.5;

  serve::ServeResponse decoded = RoundTripResponse({Status::OK(), sweep});
  const SweepResult* out = decoded.sweep();
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->cells.size(), 2u);
  EXPECT_EQ(out->cells[0].objective_value, 5.0);
  EXPECT_EQ(out->cells[0].x, (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(out->cells[1].stats.warm_started);
  EXPECT_EQ(out->wall_seconds, 1.5);
}

TEST(CodecTest, RoundTripsReportPayload) {
  SanitizeReport report;
  report.output = Synthetic(21);
  report.preprocessed_input = Synthetic(22);
  report.preprocess_stats.pairs_removed = 5;
  report.preprocess_stats.pairs_retained = 30;
  report.preprocess_stats.users_dropped = 2;
  report.preprocess_stats.clicks_removed = 17;
  report.preprocess_stats.clicks_retained = 400;
  report.optimal_counts = {4, 0, 9};
  report.output_size = 13;
  report.audit.satisfies_privacy = true;
  report.audit.condition1_ok = true;
  report.audit.condition2_ok = false;
  report.audit.condition3_ok = true;
  report.audit.max_ratio = 1.75;
  report.audit.max_leak_probability = 1e-6;
  report.audit.worst_user = 19;
  report.audit.max_row_lhs = 0.25;
  report.audit.budget = 0.5;
  report.stats.simplex_iterations = 4200;
  report.stats.refactorizations = 9;
  report.stats.factor_nnz = 777;
  report.stats.max_update_run = 31;
  report.solve_seconds = 2.5;

  serve::ServeResponse decoded = RoundTripResponse({Status::OK(), report});
  const SanitizeReport* out = decoded.report();
  ASSERT_NE(out, nullptr);
  ExpectLogsIdentical(out->output, report.output);
  ExpectLogsIdentical(out->preprocessed_input, report.preprocessed_input);
  EXPECT_EQ(out->preprocess_stats.pairs_removed, 5u);
  EXPECT_EQ(out->preprocess_stats.users_dropped, 2u);
  EXPECT_EQ(out->preprocess_stats.clicks_retained, 400u);
  EXPECT_EQ(out->optimal_counts, report.optimal_counts);
  EXPECT_EQ(out->output_size, 13u);
  EXPECT_TRUE(out->audit.satisfies_privacy);
  EXPECT_FALSE(out->audit.condition2_ok);
  EXPECT_EQ(out->audit.max_ratio, 1.75);
  EXPECT_EQ(out->audit.worst_user, 19u);
  EXPECT_EQ(out->stats.simplex_iterations, 4200);
  EXPECT_EQ(out->stats.refactorizations, 9);
  EXPECT_EQ(out->stats.factor_nnz, 777u);
  EXPECT_EQ(out->stats.max_update_run, 31);
  EXPECT_EQ(out->solve_seconds, 2.5);
}

// A SolveStats whose every field holds its own value, offset by `base`.
lp::SolveStats DistinctSolveStats(uint64_t base) {
  lp::SolveStats stats;
  uint64_t value = base;
  for (const lp::SolveStatsField& f : lp::kSolveStatsFields) {
    stats.*f.field = ++value;
  }
  return stats;
}

void ExpectSolveStatsEq(const lp::SolveStats& got,
                        const lp::SolveStats& want) {
  for (const lp::SolveStatsField& f : lp::kSolveStatsFields) {
    EXPECT_EQ(got.*f.field, want.*f.field) << f.name;
  }
}

// Walks the TenantStats field table: every field, given a value of its
// own, survives the binary codec and reads as key=value on the text STATS
// line; every SolveStats field survives the Solve, Sweep and Sanitize
// payloads that carry one.
TEST(CodecTest, RoundTripsStatsPayload) {
  serve::TenantStats stats;
  uint64_t value = 1000;
  for (const serve::TenantStatField& f : serve::kTenantStatFields) {
    stats.*f.field = ++value;
  }

  serve::ServeResponse decoded = RoundTripResponse({Status::OK(), stats});
  const serve::TenantStats* out = decoded.stats();
  ASSERT_NE(out, nullptr);
  std::string line;
  net::TextProtocol protocol(
      [&](serve::ServeRequest,
          std::function<void(serve::ServeResponse)> respond) {
        respond({Status::OK(), stats});
      });
  protocol.Handle("STATS t", [&](std::string reply) { line = reply + " "; });
  for (const serve::TenantStatField& f : serve::kTenantStatFields) {
    EXPECT_EQ(out->*f.field, stats.*f.field) << f.key;
    const std::string pair = std::string(" ") + f.key + "=" +
                             std::to_string(stats.*f.field) + " ";
    EXPECT_NE(line.find(pair), std::string::npos) << pair << " in " << line;
  }

  UmpSolution solution;
  static_cast<lp::SolveStats&>(solution.stats) = DistinctSolveStats(10);
  decoded = RoundTripResponse({Status::OK(), solution});
  ASSERT_NE(decoded.solution(), nullptr);
  ExpectSolveStatsEq(decoded.solution()->stats, solution.stats);

  SweepResult sweep;
  sweep.cells.resize(2);
  static_cast<lp::SolveStats&>(sweep.cells[0].stats) = DistinctSolveStats(20);
  static_cast<lp::SolveStats&>(sweep.cells[1].stats) = DistinctSolveStats(30);
  decoded = RoundTripResponse({Status::OK(), sweep});
  ASSERT_NE(decoded.sweep(), nullptr);
  ASSERT_EQ(decoded.sweep()->cells.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    ExpectSolveStatsEq(decoded.sweep()->cells[i].stats,
                       sweep.cells[i].stats);
  }

  SanitizeReport report;
  static_cast<lp::SolveStats&>(report.stats) = DistinctSolveStats(40);
  decoded = RoundTripResponse({Status::OK(), report});
  ASSERT_NE(decoded.report(), nullptr);
  ExpectSolveStatsEq(decoded.report()->stats, report.stats);

  // A version-3 peer writes the narrower stats layouts; its frames must be
  // refused, never misparsed.
  std::string wire =
      net::EncodeFrame(net::EncodeResponse({Status::OK(), stats}, 23));
  wire[8] = 3;  // version byte
  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame frame;
  const Result<bool> next = decoder.Next(&frame);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

// --- Malformed payloads -----------------------------------------------------

TEST(CodecTest, RejectsTruncatedPayloads) {
  Frame frame =
      net::EncodeRequest(serve::AppendRequest{"t", Synthetic(31)}, 1)
          .value();
  // Chop the payload at several depths: every prefix must fail cleanly.
  for (size_t keep : {size_t{0}, size_t{1}, frame.payload.size() / 2,
                      frame.payload.size() - 1}) {
    Frame cut = frame;
    cut.payload.resize(keep);
    Result<serve::ServeRequest> decoded = net::DecodeRequest(cut);
    EXPECT_FALSE(decoded.ok()) << "kept " << keep << " bytes";
  }
}

TEST(CodecTest, RejectsTrailingBytes) {
  Frame frame = net::EncodeRequest(serve::FlushRequest{"t"}, 1).value();
  frame.payload += "junk";
  Result<serve::ServeRequest> decoded = net::DecodeRequest(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecTest, RejectsOutOfRangeEnums) {
  {
    // Solve with an unknown objective byte.
    Frame frame =
        net::EncodeRequest(
            serve::SolveRequest{"t", UtilityObjective::kOutputSize,
                                Query(0.1, 1e-5)},
            1)
            .value();
    // Payload: tenant string (u64 length + bytes), then the objective.
    const size_t objective_at = sizeof(uint64_t) + 1;
    frame.payload[objective_at] = 55;
    EXPECT_FALSE(net::DecodeRequest(frame).ok());
  }
  {
    // Response with an unknown payload kind.
    Frame frame = net::EncodeResponse({Status::OK(), {}}, 1);
    frame.payload.back() = 55;
    EXPECT_FALSE(net::DecodeResponse(frame).ok());
  }
  {
    // Response with an unknown status code in the header.
    Frame frame = net::EncodeResponse({Status::OK(), {}}, 1);
    frame.status = 200;
    EXPECT_FALSE(net::DecodeResponse(frame).ok());
  }
}

TEST(CodecTest, RejectsWrongFrameDirection) {
  const Frame response = net::EncodeResponse({Status::OK(), {}}, 1);
  EXPECT_FALSE(net::DecodeRequest(response).ok());
  const Frame request =
      net::EncodeRequest(serve::StatsRequest{"t"}, 1).value();
  EXPECT_FALSE(net::DecodeResponse(request).ok());
}

// A response too large to frame (e.g. a report embedding a huge log) must
// cross the wire as a typed error the client can decode — not as an
// unparseable frame that tears down the connection and fails every
// pipelined request with it.
TEST(CodecTest, OversizedResponseBecomesTypedError) {
  UmpSolution solution;
  solution.x.assign(net::kMaxFramePayload / sizeof(uint64_t) + 1024, 7);
  const Frame frame = net::EncodeResponse({Status::OK(), solution}, 33);
  EXPECT_EQ(frame.status,
            static_cast<uint16_t>(StatusCode::kResourceExhausted));
  EXPECT_LE(frame.payload.size(), net::kMaxFramePayload);
  FrameDecoder decoder;
  decoder.Feed(net::EncodeFrame(frame));
  Frame wire;
  ASSERT_TRUE(decoder.Next(&wire).value());
  EXPECT_EQ(wire.request_id, 33u);
  const serve::ServeResponse decoded = net::DecodeResponse(wire).value();
  EXPECT_EQ(decoded.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.solution(), nullptr);
}

// A count field that passes the absolute element cap but not the frame's
// actual size must fail before resizing: 2^26-1 8-byte elements would be
// a ~512MB up-front allocation conjured from a ~100-byte frame.
TEST(CodecTest, RejectsCountsExceedingRemainingPayload) {
  UmpSolution solution;
  solution.x = {1, 2, 3};
  Frame frame = net::EncodeResponse({Status::OK(), solution}, 1);
  // Payload: status message (u64 length, empty), payload kind u8,
  // objective u8, then the x element count.
  const size_t count_at = sizeof(uint64_t) + 1 + 1;
  const uint64_t huge = (1ull << 26) - 1;
  std::memcpy(frame.payload.data() + count_at, &huge, sizeof(huge));
  Result<serve::ServeResponse> decoded = net::DecodeResponse(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// A hostile element count inside a well-framed payload must fail before
// allocating: craft an Append whose log header claims 2^26 users.
TEST(CodecTest, RejectsImplausibleElementCounts) {
  Frame frame =
      net::EncodeRequest(serve::AppendRequest{"t", SearchLog()}, 1).value();
  // Payload: tenant "t" (u64 len + 1 byte), then num_users u64.
  const size_t users_at = sizeof(uint64_t) + 1;
  const uint64_t huge = 1ull << 40;
  std::memcpy(frame.payload.data() + users_at, &huge, sizeof(huge));
  // The ReadCount guard fires (typed error, no allocation).
  EXPECT_FALSE(net::DecodeRequest(frame).ok());
}

// --- Observability verbs (PR 8) ---------------------------------------------

TEST(CodecTest, RoundTripsMetricsAndSlowLogRequests) {
  {
    serve::ServeRequest decoded = RoundTripRequest(serve::MetricsRequest{});
    ASSERT_TRUE(std::holds_alternative<serve::MetricsRequest>(decoded));
  }
  {
    serve::ServeRequest decoded =
        RoundTripRequest(serve::SlowLogRequest{"", 25});
    ASSERT_TRUE(std::holds_alternative<serve::SlowLogRequest>(decoded));
    EXPECT_EQ(std::get<serve::SlowLogRequest>(decoded).limit, 25u);
  }
}

TEST(CodecTest, RoundTripsMetricsTextPayload) {
  serve::MetricsText metrics;
  metrics.text = "# HELP a_total A.\n# TYPE a_total counter\na_total 3\n";
  serve::ServeResponse decoded =
      RoundTripResponse({Status::OK(), metrics});
  ASSERT_TRUE(decoded.ok());
  ASSERT_NE(decoded.metrics(), nullptr);
  EXPECT_EQ(decoded.metrics()->text, metrics.text);
}

TEST(CodecTest, RoundTripsSlowLogDumpPayload) {
  serve::SlowLogDump dump;
  dump.dropped = 5;
  dump.threshold_ms = 12.5;
  obs::SlowRequestRecord record;
  record.sequence = 42;
  record.tenant = "acme";
  record.verb = "Sweep";
  record.status_code = 8;
  record.total_ms = 1234.5;
  record.trace.queue_ms = 1.5;
  record.trace.flush_ms = 2.5;
  record.trace.solve_ms = 1200.0;
  record.trace.cache_ms = 0.25;
  record.trace.repair_pivots = 7;
  record.trace.iterations = 910;
  dump.records.push_back(record);
  dump.records.push_back(obs::SlowRequestRecord{});

  serve::ServeResponse decoded = RoundTripResponse({Status::OK(), dump});
  ASSERT_TRUE(decoded.ok());
  const serve::SlowLogDump* out = decoded.slow_log();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->dropped, 5u);
  EXPECT_EQ(out->threshold_ms, 12.5);
  ASSERT_EQ(out->records.size(), 2u);
  const obs::SlowRequestRecord& first = out->records[0];
  EXPECT_EQ(first.sequence, 42u);
  EXPECT_EQ(first.tenant, "acme");
  EXPECT_EQ(first.verb, "Sweep");
  EXPECT_EQ(first.status_code, 8);
  EXPECT_EQ(first.total_ms, 1234.5);
  EXPECT_EQ(first.trace.queue_ms, 1.5);
  EXPECT_EQ(first.trace.flush_ms, 2.5);
  EXPECT_EQ(first.trace.solve_ms, 1200.0);
  EXPECT_EQ(first.trace.cache_ms, 0.25);
  EXPECT_EQ(first.trace.repair_pivots, 7u);
  EXPECT_EQ(first.trace.iterations, 910u);
}

// A hostile record count in a SlowLog dump must fail before allocating
// (each wire record needs at least its fixed-size fields).
TEST(CodecTest, RejectsImplausibleSlowLogRecordCount) {
  Frame frame = net::EncodeResponse({Status::OK(), serve::SlowLogDump{}}, 1);
  // Payload: status message (u64 length, empty), payload kind u8, then
  // the record count u64.
  const size_t count_at = sizeof(uint64_t) + 1;
  // Under ReadCount's global element cap (so that earlier kIoError guard
  // passes), but far more records than the tiny frame can possibly back:
  // this must trip ReadBoundedCount's bytes-remaining check.
  const uint64_t huge = 1ull << 20;
  std::memcpy(frame.payload.data() + count_at, &huge, sizeof(huge));
  Result<serve::ServeResponse> decoded = net::DecodeResponse(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// --- Streaming-lifecycle verbs (PR 10) --------------------------------------

TEST(CodecTest, RoundTripsRemoveUsersRequest) {
  serve::ServeRequest decoded = RoundTripRequest(serve::RemoveUsersRequest{
      "t", {"alice", "bob", "user with spaces"}});
  auto* remove = std::get_if<serve::RemoveUsersRequest>(&decoded);
  ASSERT_NE(remove, nullptr);
  EXPECT_EQ(remove->tenant, "t");
  EXPECT_EQ(remove->users,
            (std::vector<std::string>{"alice", "bob", "user with spaces"}));

  // An empty user list is legal (a no-op removal), not malformed.
  decoded = RoundTripRequest(serve::RemoveUsersRequest{"t", {}});
  remove = std::get_if<serve::RemoveUsersRequest>(&decoded);
  ASSERT_NE(remove, nullptr);
  EXPECT_TRUE(remove->users.empty());
}

TEST(CodecTest, RoundTripsExpireWindowAndBudgetStatusRequests) {
  {
    serve::ServeRequest decoded = RoundTripRequest(
        serve::ExpireWindowRequest{"t", 0xFEEDFACE12345678ull});
    auto* expire = std::get_if<serve::ExpireWindowRequest>(&decoded);
    ASSERT_NE(expire, nullptr);
    EXPECT_EQ(expire->tenant, "t");
    EXPECT_EQ(expire->cutoff, 0xFEEDFACE12345678ull);
  }
  {
    serve::ServeRequest decoded =
        RoundTripRequest(serve::BudgetStatusRequest{"budgeted"});
    auto* budget = std::get_if<serve::BudgetStatusRequest>(&decoded);
    ASSERT_NE(budget, nullptr);
    EXPECT_EQ(budget->tenant, "budgeted");
  }
}

TEST(CodecTest, RoundTripsCreateTenantWithBudgetAndWindow) {
  serve::CreateTenantRequest request{"t", Synthetic(14), std::nullopt};
  request.budget.max_epsilon = 2.5;
  request.budget.max_delta = 0.125;
  request.budget.min_remaining_epsilon = 0.25;
  request.budget.composition = stream::Composition::kAdvanced;
  request.budget.advanced_delta_slack = 1e-7;
  request.window.kind = stream::WindowKind::kTumbling;
  request.window.span = 86400;

  serve::ServeRequest decoded = RoundTripRequest(request);
  auto* create = std::get_if<serve::CreateTenantRequest>(&decoded);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->budget, request.budget);
  EXPECT_EQ(create->window, request.window);
  ExpectLogsIdentical(create->initial, request.initial);

  // Defaults (no budget, no window) round trip as the inactive configs.
  decoded = RoundTripRequest(
      serve::CreateTenantRequest{"t", SearchLog(), std::nullopt});
  create = std::get_if<serve::CreateTenantRequest>(&decoded);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->budget, stream::BudgetConfig{});
  EXPECT_EQ(create->window, stream::WindowPolicy{});
}

TEST(CodecTest, RoundTripsBudgetStatusPayload) {
  serve::BudgetStatus budget;
  budget.max_epsilon = 4.0;
  budget.max_delta = 0.5;
  budget.min_remaining_epsilon = 0.125;
  budget.composition = "advanced";
  budget.spent_epsilon = 1.75;
  budget.spent_delta = 0.0625;
  budget.remaining_epsilon = 2.25;
  budget.enforced = true;
  budget.allocations = 12;
  budget.refusals = 3;

  serve::ServeResponse decoded = RoundTripResponse({Status::OK(), budget});
  ASSERT_TRUE(decoded.ok());
  const serve::BudgetStatus* out = decoded.budget();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->max_epsilon, 4.0);
  EXPECT_EQ(out->max_delta, 0.5);
  EXPECT_EQ(out->min_remaining_epsilon, 0.125);
  EXPECT_EQ(out->composition, "advanced");
  EXPECT_EQ(out->spent_epsilon, 1.75);
  EXPECT_EQ(out->spent_delta, 0.0625);
  EXPECT_EQ(out->remaining_epsilon, 2.25);
  EXPECT_TRUE(out->enforced);
  EXPECT_EQ(out->allocations, 12u);
  EXPECT_EQ(out->refusals, 3u);
}

// The typed refusal must survive the wire: kBudgetExhausted rides the
// frame status header and decodes back as itself, not as a generic error.
TEST(CodecTest, RoundTripsBudgetExhaustedStatus) {
  serve::ServeResponse response;
  response.status = Status::BudgetExhausted("spent 1.0 of 1.0");
  const Frame frame = net::EncodeResponse(response, 7);
  EXPECT_EQ(frame.status,
            static_cast<uint16_t>(StatusCode::kBudgetExhausted));
  serve::ServeResponse decoded = RoundTripResponse(response);
  EXPECT_EQ(decoded.status.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(decoded.status.message(), "spent 1.0 of 1.0");
}

// A hostile user-name count in a RemoveUsers frame must fail before
// allocating or looping: each name needs at least its wire footprint.
TEST(CodecTest, RejectsImplausibleRemoveUsersCount) {
  Frame frame =
      net::EncodeRequest(serve::RemoveUsersRequest{"t", {"alice"}}, 1)
          .value();
  // Payload: tenant "t" (u64 length + 1 byte), then the user count u64.
  const size_t count_at = sizeof(uint64_t) + 1;
  // Under ReadCount's global cap, so only the bytes-remaining guard can
  // catch it.
  const uint64_t huge = 1ull << 20;
  std::memcpy(frame.payload.data() + count_at, &huge, sizeof(huge));
  Result<serve::ServeRequest> decoded = net::DecodeRequest(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// Unknown composition / window-kind bytes in a CreateTenant stream config
// are typed decode errors, not silently-misconfigured tenants.
TEST(CodecTest, RejectsBadCompositionAndWindowKindBytes) {
  const Frame frame =
      net::EncodeRequest(
          serve::CreateTenantRequest{"t", SearchLog(), std::nullopt}, 1)
          .value();
  // The stream config is the payload's 42-byte tail:
  //   max_eps(8) max_delta(8) floor(8) composition(1) slack(8)
  //   kind(1) span(8)
  ASSERT_GE(frame.payload.size(), 42u);
  {
    Frame bad = frame;
    bad.payload[bad.payload.size() - 18] = 9;  // composition byte
    Result<serve::ServeRequest> decoded = net::DecodeRequest(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Frame bad = frame;
    bad.payload[bad.payload.size() - 9] = 9;  // window kind byte
    Result<serve::ServeRequest> decoded = net::DecodeRequest(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace privsan
