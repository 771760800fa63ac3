// Job-service wire messages (blaze_serve <-> BlazeServiceClient / blazectl).
//
// One request/response pair per protocol verb, serialized with the engine's
// codec primitives (varint lengths, little-endian PODs). Every frame payload
// is:
//
//   [u8 MsgType] [u64 request_id] [message body]
//
// Decoding is defensive end to end: the bytes arrive on a TCP port, and a
// frame whose CRC passed can still carry a short or malformed body, so every
// Decode checks bounds and returns nullopt instead of dying — the connection
// is then dropped as a protocol error. BLAZE_CHECK-style aborts are reserved
// for local bugs.
#ifndef SRC_NET_MESSAGE_H_
#define SRC_NET_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/serialize/byte_buffer.h"

namespace blaze::net {

// Values 1-14 are retired and must not be reused; MessageHeader::Decode
// rejects them.
enum class MsgType : uint8_t {
  kJobSubmit = 15,       // submit a named workload on behalf of a tenant
  kJobSubmitResp = 16,
  kJobStatus = 17,       // poll a previously submitted server job
  kJobStatusResp = 18,
  kTenantStats = 19,     // one-shot per-tenant usage/admission snapshot
  kTenantStatsResp = 20,
};

const char* MsgTypeName(MsgType type);

struct MessageHeader {
  MsgType type = MsgType::kJobSubmit;
  uint64_t request_id = 0;

  void EncodeTo(ByteSink& sink) const;
  static std::optional<MessageHeader> Decode(ByteSource& src);
};

// --- multi-tenant job service -----------------------------------------------

// Submit a registered workload on behalf of a named tenant. The server maps
// the tenant name to its TenantRegistry id and runs the workload through the
// engine's tenant-scoped admission path.
struct JobSubmitMsg {
  std::string tenant;
  std::string workload;
  int32_t iterations = 0;  // 0 = workload default

  void EncodeTo(ByteSink& sink) const;
  static std::optional<JobSubmitMsg> Decode(ByteSource& src);
};

struct JobSubmitRespMsg {
  bool accepted = false;
  int64_t server_job_id = -1;  // valid when accepted
  std::string error;           // reject reason otherwise

  void EncodeTo(ByteSink& sink) const;
  static std::optional<JobSubmitRespMsg> Decode(ByteSource& src);
};

struct JobStatusMsg {
  int64_t server_job_id = -1;

  void EncodeTo(ByteSink& sink) const;
  static std::optional<JobStatusMsg> Decode(ByteSource& src);
};

struct JobStatusRespMsg {
  bool known = false;
  std::string state;   // "queued" | "running" | "done" | "failed" | "rejected"
  std::string detail;  // result summary or error/reject reason
  double elapsed_ms = 0.0;

  void EncodeTo(ByteSink& sink) const;
  static std::optional<JobStatusRespMsg> Decode(ByteSource& src);
};

// One row per registered tenant in the stats snapshot.
struct TenantStatRow {
  std::string name;
  uint64_t share_bytes = 0;     // summed across executors
  uint64_t used_bytes = 0;      // cached bytes charged to the tenant
  uint64_t borrowed_bytes = 0;  // usage above the share (work-conserving)
  int32_t jobs_running = 0;
  int32_t jobs_queued = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_rejected = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

struct TenantStatsMsg {
  void EncodeTo(ByteSink& sink) const;
  static std::optional<TenantStatsMsg> Decode(ByteSource& src);
};

struct TenantStatsRespMsg {
  std::vector<TenantStatRow> tenants;

  void EncodeTo(ByteSink& sink) const;
  static std::optional<TenantStatsRespMsg> Decode(ByteSource& src);
};

// --- bounded helpers (shared by the decoders) -------------------------------

// Length-prefixed string read that validates the length against the
// remaining source instead of dying on underflow.
bool ReadString(ByteSource& src, std::string* out);
void WriteString(ByteSink& sink, const std::string& s);

// Encodes header + body into one frame payload.
template <typename Msg>
std::vector<uint8_t> EncodeEnvelope(MsgType type, uint64_t request_id, const Msg& msg) {
  ByteSink sink;
  MessageHeader header{type, request_id};
  header.EncodeTo(sink);
  msg.EncodeTo(sink);
  return sink.TakeData();
}

}  // namespace blaze::net

#endif  // SRC_NET_MESSAGE_H_
