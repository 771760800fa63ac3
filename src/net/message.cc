#include "src/net/message.h"

namespace blaze::net {

namespace {

// ByteSource aborts on underflow (local-bug semantics); peers are untrusted,
// so every read here is pre-checked against remaining().
template <typename T>
bool TryReadPod(ByteSource& src, T* out) {
  if (src.remaining() < sizeof(T)) {
    return false;
  }
  *out = src.ReadPod<T>();
  return true;
}

bool TryReadVarint(ByteSource& src, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (src.remaining() == 0 || shift >= 64) {
      return false;
    }
    const uint8_t b = src.ReadPod<uint8_t>();
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
}

bool TryReadBool(ByteSource& src, bool* out) {
  uint8_t b = 0;
  if (!TryReadPod(src, &b)) {
    return false;
  }
  *out = (b != 0);
  return true;
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kJobSubmit: return "job_submit";
    case MsgType::kJobSubmitResp: return "job_submit_resp";
    case MsgType::kJobStatus: return "job_status";
    case MsgType::kJobStatusResp: return "job_status_resp";
    case MsgType::kTenantStats: return "tenant_stats";
    case MsgType::kTenantStatsResp: return "tenant_stats_resp";
  }
  return "unknown";
}

bool ReadString(ByteSource& src, std::string* out) {
  uint64_t len = 0;
  if (!TryReadVarint(src, &len) || len > src.remaining()) {
    return false;
  }
  out->resize(len);
  if (len > 0) {
    src.ReadRaw(out->data(), len);
  }
  return true;
}

void WriteString(ByteSink& sink, const std::string& s) {
  sink.WriteVarint(s.size());
  if (!s.empty()) {
    sink.WriteRaw(s.data(), s.size());
  }
}

void MessageHeader::EncodeTo(ByteSink& sink) const {
  sink.WritePod<uint8_t>(static_cast<uint8_t>(type));
  sink.WritePod<uint64_t>(request_id);
}

std::optional<MessageHeader> MessageHeader::Decode(ByteSource& src) {
  MessageHeader h;
  uint8_t raw_type = 0;
  if (!TryReadPod(src, &raw_type) || !TryReadPod(src, &h.request_id)) {
    return std::nullopt;
  }
  if (raw_type < static_cast<uint8_t>(MsgType::kJobSubmit) ||
      raw_type > static_cast<uint8_t>(MsgType::kTenantStatsResp)) {
    return std::nullopt;
  }
  h.type = static_cast<MsgType>(raw_type);
  return h;
}

void JobSubmitMsg::EncodeTo(ByteSink& sink) const {
  WriteString(sink, tenant);
  WriteString(sink, workload);
  sink.WritePod<int32_t>(iterations);
}

std::optional<JobSubmitMsg> JobSubmitMsg::Decode(ByteSource& src) {
  JobSubmitMsg m;
  if (!ReadString(src, &m.tenant) || !ReadString(src, &m.workload) ||
      !TryReadPod(src, &m.iterations)) {
    return std::nullopt;
  }
  return m;
}

void JobSubmitRespMsg::EncodeTo(ByteSink& sink) const {
  sink.WritePod<uint8_t>(accepted ? 1 : 0);
  sink.WritePod<int64_t>(server_job_id);
  WriteString(sink, error);
}

std::optional<JobSubmitRespMsg> JobSubmitRespMsg::Decode(ByteSource& src) {
  JobSubmitRespMsg m;
  if (!TryReadBool(src, &m.accepted) || !TryReadPod(src, &m.server_job_id) ||
      !ReadString(src, &m.error)) {
    return std::nullopt;
  }
  return m;
}

void JobStatusMsg::EncodeTo(ByteSink& sink) const {
  sink.WritePod<int64_t>(server_job_id);
}

std::optional<JobStatusMsg> JobStatusMsg::Decode(ByteSource& src) {
  JobStatusMsg m;
  if (!TryReadPod(src, &m.server_job_id)) {
    return std::nullopt;
  }
  return m;
}

void JobStatusRespMsg::EncodeTo(ByteSink& sink) const {
  sink.WritePod<uint8_t>(known ? 1 : 0);
  WriteString(sink, state);
  WriteString(sink, detail);
  sink.WritePod<double>(elapsed_ms);
}

std::optional<JobStatusRespMsg> JobStatusRespMsg::Decode(ByteSource& src) {
  JobStatusRespMsg m;
  if (!TryReadBool(src, &m.known) || !ReadString(src, &m.state) ||
      !ReadString(src, &m.detail) || !TryReadPod(src, &m.elapsed_ms)) {
    return std::nullopt;
  }
  return m;
}

void TenantStatsMsg::EncodeTo(ByteSink& sink) const { (void)sink; }

std::optional<TenantStatsMsg> TenantStatsMsg::Decode(ByteSource& src) {
  (void)src;
  return TenantStatsMsg{};
}

void TenantStatsRespMsg::EncodeTo(ByteSink& sink) const {
  sink.WriteVarint(tenants.size());
  for (const TenantStatRow& row : tenants) {
    WriteString(sink, row.name);
    sink.WritePod<uint64_t>(row.share_bytes);
    sink.WritePod<uint64_t>(row.used_bytes);
    sink.WritePod<uint64_t>(row.borrowed_bytes);
    sink.WritePod<int32_t>(row.jobs_running);
    sink.WritePod<int32_t>(row.jobs_queued);
    sink.WritePod<uint64_t>(row.jobs_completed);
    sink.WritePod<uint64_t>(row.jobs_rejected);
    sink.WritePod<uint64_t>(row.cache_hits);
    sink.WritePod<uint64_t>(row.cache_misses);
  }
}

std::optional<TenantStatsRespMsg> TenantStatsRespMsg::Decode(ByteSource& src) {
  TenantStatsRespMsg m;
  uint64_t count = 0;
  if (!TryReadVarint(src, &count) || count > 4096) {
    return std::nullopt;  // bound: no engine registers thousands of tenants
  }
  m.tenants.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TenantStatRow row;
    if (!ReadString(src, &row.name) || !TryReadPod(src, &row.share_bytes) ||
        !TryReadPod(src, &row.used_bytes) || !TryReadPod(src, &row.borrowed_bytes) ||
        !TryReadPod(src, &row.jobs_running) || !TryReadPod(src, &row.jobs_queued) ||
        !TryReadPod(src, &row.jobs_completed) || !TryReadPod(src, &row.jobs_rejected) ||
        !TryReadPod(src, &row.cache_hits) || !TryReadPod(src, &row.cache_misses)) {
      return std::nullopt;
    }
    m.tenants.push_back(std::move(row));
  }
  return m;
}

}  // namespace blaze::net
