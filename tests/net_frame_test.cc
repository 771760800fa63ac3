// Wire-protocol serialization tests: every job-service message round-trips
// through its envelope, and hostile bytes — truncated frames, corrupted payloads, bad
// magic, oversize lengths, short message bodies — surface as clean errors
// (false / nullopt), never as crashes or garbage decoded into engine state.
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/crc32.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/serialize/byte_buffer.h"

namespace blaze::net {
namespace {

// A connected fd pair; WriteFrame/ReadFrame only need stream semantics.
struct FdPair {
  int fds[2] = {-1, -1};
  FdPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~FdPair() {
    for (int fd : fds) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }
  void CloseWriter() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

// Builds the exact on-wire bytes of one frame so tests can vandalize them.
std::vector<uint8_t> RawFrame(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  const uint32_t magic = kFrameMagic;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  out.resize(12 + payload.size());
  std::memcpy(out.data(), &magic, 4);
  std::memcpy(out.data() + 4, &len, 4);
  std::memcpy(out.data() + 8, payload.data(), payload.size());
  std::memcpy(out.data() + 8 + payload.size(), &crc, 4);
  return out;
}

void SendRaw(int fd, const std::vector<uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

TEST(FrameTest, RoundTripsPayloads) {
  FdPair pair;
  for (const size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{64 * 1024}}) {
    std::vector<uint8_t> payload(size);
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    ASSERT_TRUE(WriteFrame(pair.fds[0], payload));
    std::vector<uint8_t> got;
    std::string error;
    ASSERT_TRUE(ReadFrame(pair.fds[1], &got, &error)) << error;
    EXPECT_EQ(got, payload);
  }
}

TEST(FrameTest, CleanEofReadsAsEof) {
  FdPair pair;
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_EQ(error, "eof");
}

TEST(FrameTest, RejectsBadMagic) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  bytes[0] ^= 0xFF;
  SendRaw(pair.fds[0], bytes);
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(FrameTest, RejectsOversizeLength) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  const uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(bytes.data() + 4, &huge, 4);  // lie about the payload length
  SendRaw(pair.fds[0], bytes);
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("bound"), std::string::npos) << error;
}

TEST(FrameTest, RejectsTruncatedPayload) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3, 4, 5, 6, 7, 8});
  bytes.resize(bytes.size() - 7);  // cut into the payload
  SendRaw(pair.fds[0], bytes);
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(FrameTest, RejectsTruncatedTrailer) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({1, 2, 3});
  bytes.resize(bytes.size() - 2);  // cut into the CRC trailer
  SendRaw(pair.fds[0], bytes);
  pair.CloseWriter();
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(FrameTest, RejectsCorruptedPayload) {
  FdPair pair;
  std::vector<uint8_t> bytes = RawFrame({10, 20, 30, 40});
  bytes[9] ^= 0x01;  // flip one payload bit; CRC must catch it
  SendRaw(pair.fds[0], bytes);
  std::vector<uint8_t> got;
  std::string error;
  EXPECT_FALSE(ReadFrame(pair.fds[1], &got, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(FrameTest, ListenConnectRoundTrip) {
  uint16_t port = 0;
  std::string error;
  const int listen_fd = ListenLocal(0, &port, /*attempts=*/10, &error);
  ASSERT_GE(listen_fd, 0) << error;
  ASSERT_GT(port, 0);

  std::thread server([listen_fd] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(conn, &payload));
    ASSERT_TRUE(WriteFrame(conn, payload));  // echo
    ::close(conn);
  });

  const int fd = ConnectLocal(port, /*attempts=*/3, /*timeout_ms=*/2000, &error);
  ASSERT_GE(fd, 0) << error;
  const std::vector<uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(WriteFrame(fd, payload));
  std::vector<uint8_t> echo;
  ASSERT_TRUE(ReadFrame(fd, &echo, &error)) << error;
  EXPECT_EQ(echo, payload);
  ::close(fd);
  server.join();
  ::close(listen_fd);
}

// --- message round-trips ----------------------------------------------------

// Decodes an envelope produced by EncodeEnvelope back into header + body.
template <typename Msg>
std::optional<Msg> DecodeEnvelope(const std::vector<uint8_t>& bytes, MsgType want_type,
                                  uint64_t want_request_id) {
  ByteSource src(bytes);
  const auto header = MessageHeader::Decode(src);
  if (!header || header->type != want_type || header->request_id != want_request_id) {
    return std::nullopt;
  }
  return Msg::Decode(src);
}

TEST(MessageTest, JobSubmitRoundTrip) {
  JobSubmitMsg msg;
  msg.tenant = "analytics";
  msg.workload = "pagerank";
  msg.iterations = 5;
  const auto bytes = EncodeEnvelope(MsgType::kJobSubmit, 42, msg);
  const auto got = DecodeEnvelope<JobSubmitMsg>(bytes, MsgType::kJobSubmit, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tenant, "analytics");
  EXPECT_EQ(got->workload, "pagerank");
  EXPECT_EQ(got->iterations, 5);
}

TEST(MessageTest, JobSubmitRespRoundTrip) {
  JobSubmitRespMsg msg;
  msg.accepted = false;
  msg.server_job_id = -1;
  msg.error = "unknown tenant";
  const auto bytes = EncodeEnvelope(MsgType::kJobSubmitResp, 1, msg);
  const auto got = DecodeEnvelope<JobSubmitRespMsg>(bytes, MsgType::kJobSubmitResp, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->accepted);
  EXPECT_EQ(got->server_job_id, -1);
  EXPECT_EQ(got->error, "unknown tenant");
}

TEST(MessageTest, JobStatusRoundTrip) {
  JobStatusMsg msg;
  msg.server_job_id = 1234567890123;
  const auto bytes = EncodeEnvelope(MsgType::kJobStatus, 7, msg);
  const auto got = DecodeEnvelope<JobStatusMsg>(bytes, MsgType::kJobStatus, 7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->server_job_id, 1234567890123);
}

TEST(MessageTest, JobStatusRespRoundTrip) {
  JobStatusRespMsg msg;
  msg.known = true;
  msg.state = "done";
  msg.detail = "rank sum 1000";
  msg.elapsed_ms = 12.5;
  const auto bytes = EncodeEnvelope(MsgType::kJobStatusResp, 8, msg);
  const auto got = DecodeEnvelope<JobStatusRespMsg>(bytes, MsgType::kJobStatusResp, 8);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->known);
  EXPECT_EQ(got->state, "done");
  EXPECT_EQ(got->detail, "rank sum 1000");
  EXPECT_DOUBLE_EQ(got->elapsed_ms, 12.5);
}

TEST(MessageTest, TenantStatsRoundTrip) {
  const auto bytes = EncodeEnvelope(MsgType::kTenantStats, 9, TenantStatsMsg{});
  EXPECT_TRUE(DecodeEnvelope<TenantStatsMsg>(bytes, MsgType::kTenantStats, 9).has_value());
}

// Two rows with every field distinct, so a swapped or dropped field shows.
TenantStatsRespMsg TwoTenantStats() {
  TenantStatsRespMsg msg;
  for (int i = 0; i < 2; ++i) {
    TenantStatRow row;
    row.name = i == 0 ? "quiet" : "churn";
    row.share_bytes = 1000 + i;
    row.used_bytes = 2000 + i;
    row.borrowed_bytes = 3000 + i;
    row.jobs_running = 4 + i;
    row.jobs_queued = 6 + i;
    row.jobs_completed = 8000 + i;
    row.jobs_rejected = 9000 + i;
    row.cache_hits = 10000 + i;
    row.cache_misses = 11000 + i;
    msg.tenants.push_back(row);
  }
  return msg;
}

TEST(MessageTest, TenantStatsRespRoundTrip) {
  const TenantStatsRespMsg msg = TwoTenantStats();
  const auto bytes = EncodeEnvelope(MsgType::kTenantStatsResp, 10, msg);
  const auto got = DecodeEnvelope<TenantStatsRespMsg>(bytes, MsgType::kTenantStatsResp, 10);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->tenants.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const TenantStatRow& want = msg.tenants[i];
    const TenantStatRow& row = got->tenants[i];
    EXPECT_EQ(row.name, want.name);
    EXPECT_EQ(row.share_bytes, want.share_bytes);
    EXPECT_EQ(row.used_bytes, want.used_bytes);
    EXPECT_EQ(row.borrowed_bytes, want.borrowed_bytes);
    EXPECT_EQ(row.jobs_running, want.jobs_running);
    EXPECT_EQ(row.jobs_queued, want.jobs_queued);
    EXPECT_EQ(row.jobs_completed, want.jobs_completed);
    EXPECT_EQ(row.jobs_rejected, want.jobs_rejected);
    EXPECT_EQ(row.cache_hits, want.cache_hits);
    EXPECT_EQ(row.cache_misses, want.cache_misses);
  }
}

// --- malformed bodies -------------------------------------------------------

// Every strict prefix of a valid encoding must decode to nullopt — not crash,
// not read out of bounds. This sweeps all message types at every cut point.
template <typename Msg>
void ExpectTruncationsFailCleanly(const Msg& msg, MsgType type) {
  const auto bytes = EncodeEnvelope(type, 77, msg);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteSource src(bytes.data(), cut);
    const auto header = MessageHeader::Decode(src);
    if (!header.has_value()) {
      continue;  // cut fell inside the header — already a clean failure
    }
    EXPECT_FALSE(Msg::Decode(src).has_value())
        << MsgTypeName(type) << " decoded from a " << cut << "-byte prefix of "
        << bytes.size() << " bytes";
  }
}

TEST(MessageTest, TruncatedBodiesFailCleanly) {
  JobSubmitMsg submit;
  submit.tenant = "t";
  submit.workload = "kmeans";
  submit.iterations = 3;
  ExpectTruncationsFailCleanly(submit, MsgType::kJobSubmit);

  JobSubmitRespMsg submit_resp;
  submit_resp.accepted = true;
  submit_resp.server_job_id = 17;
  submit_resp.error = "e";
  ExpectTruncationsFailCleanly(submit_resp, MsgType::kJobSubmitResp);

  JobStatusMsg status;
  status.server_job_id = 17;
  ExpectTruncationsFailCleanly(status, MsgType::kJobStatus);

  JobStatusRespMsg status_resp;
  status_resp.known = true;
  status_resp.state = "running";
  status_resp.detail = "d";
  status_resp.elapsed_ms = 1.0;
  ExpectTruncationsFailCleanly(status_resp, MsgType::kJobStatusResp);

  // The request has an empty body: only cuts inside the header exist, and
  // they must fail in MessageHeader::Decode.
  ExpectTruncationsFailCleanly(TenantStatsMsg{}, MsgType::kTenantStats);

  ExpectTruncationsFailCleanly(TwoTenantStats(), MsgType::kTenantStatsResp);
}

TEST(MessageTest, LyingLengthPrefixFailsCleanly) {
  // A string length prefix claiming more bytes than the body carries must
  // not over-read. Craft: header + varint(1000) + 3 actual bytes.
  ByteSink sink;
  MessageHeader{MsgType::kJobSubmit, 1}.EncodeTo(sink);
  sink.WriteVarint(1000);  // tenant length lie
  sink.WritePod<uint8_t>('a');
  sink.WritePod<uint8_t>('b');
  sink.WritePod<uint8_t>('c');
  const auto bytes = sink.TakeData();
  ByteSource src(bytes);
  ASSERT_TRUE(MessageHeader::Decode(src).has_value());
  EXPECT_FALSE(JobSubmitMsg::Decode(src).has_value());
}

TEST(MessageTest, OversizeTenantCountFailsCleanly) {
  // A row count past the 4096 bound is rejected before any reserve(), even
  // though the rows that follow are well formed.
  TenantStatsRespMsg two = TwoTenantStats();
  ByteSink rows;
  two.EncodeTo(rows);
  ByteSink sink;
  sink.WriteVarint(4097);
  const std::vector<uint8_t> row_bytes = rows.TakeData();
  sink.WriteRaw(row_bytes.data() + 1, row_bytes.size() - 1);  // skip count 2
  const auto bytes = sink.TakeData();
  ByteSource src(bytes);
  EXPECT_FALSE(TenantStatsRespMsg::Decode(src).has_value());
}

TEST(MessageTest, EmptySourceHeaderFailsCleanly) {
  std::vector<uint8_t> empty;
  ByteSource src(empty);
  EXPECT_FALSE(MessageHeader::Decode(src).has_value());
}

TEST(MessageTest, MsgTypeNamesCoverProtocol) {
  for (uint8_t raw = 15; raw <= 20; ++raw) {
    EXPECT_STRNE(MsgTypeName(static_cast<MsgType>(raw)), "unknown") << int{raw};
  }
}

TEST(MessageTest, HeaderRejectsRetiredAndUnknownTypes) {
  for (int raw = 0; raw <= 255; ++raw) {
    ByteSink sink;
    sink.WritePod<uint8_t>(static_cast<uint8_t>(raw));
    sink.WritePod<uint64_t>(1);
    const auto bytes = sink.TakeData();
    ByteSource src(bytes);
    const bool accepted = MessageHeader::Decode(src).has_value();
    EXPECT_EQ(accepted, raw >= 15 && raw <= 20) << "message type " << raw;
  }
}

}  // namespace
}  // namespace blaze::net
