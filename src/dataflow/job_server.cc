#include "src/dataflow/job_server.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/dataflow/tenant.h"
#include "src/net/message.h"
#include "src/storage/block_manager.h"

namespace blaze {

using net::EncodeEnvelope;
using net::MessageHeader;
using net::MsgType;

BlazeJobServer::BlazeJobServer(EngineContext* engine, uint16_t port, size_t driver_threads)
    : engine_(engine),
      server_(port, [this](const MessageHeader& h, ByteSource& b) { return Handle(h, b); }),
      drivers_(driver_threads, "job-server") {
  BLAZE_CHECK(engine->tenants() != nullptr)
      << "BlazeJobServer requires EngineConfig::multi_tenant with registered tenants";
}

BlazeJobServer::~BlazeJobServer() { Stop(); }

void BlazeJobServer::RegisterWorkload(std::string name, WorkloadFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  workloads_[std::move(name)] = std::move(fn);
}

bool BlazeJobServer::Start(std::string* error) { return server_.Start(error); }

void BlazeJobServer::Stop() {
  server_.Stop();
  // Drain in-flight drivers so no workload outlives the engine it runs on.
  drivers_.Wait();
}

std::vector<uint8_t> BlazeJobServer::Handle(const MessageHeader& header, ByteSource& body) {
  switch (header.type) {
    case MsgType::kJobSubmit:
      return HandleSubmit(header.request_id, body);
    case MsgType::kJobStatus:
      return HandleStatus(header.request_id, body);
    case MsgType::kTenantStats:
      return HandleStats(header.request_id);
    default:
      return {};  // protocol error: drop the connection
  }
}

std::vector<uint8_t> BlazeJobServer::HandleSubmit(uint64_t request_id, ByteSource& body) {
  const auto msg = net::JobSubmitMsg::Decode(body);
  if (!msg.has_value()) {
    return {};
  }
  net::JobSubmitRespMsg resp;
  const auto tenant = engine_->tenants()->FindByName(msg->tenant);
  WorkloadFn workload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workloads_.find(msg->workload);
    if (it != workloads_.end()) {
      workload = it->second;
    }
  }
  if (!tenant.has_value()) {
    resp.error = "unknown tenant: " + msg->tenant;
  } else if (workload == nullptr) {
    resp.error = "unknown workload: " + msg->workload;
  } else {
    std::shared_ptr<ServerJob> job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      resp.server_job_id = ++next_job_id_;
      job = std::make_shared<ServerJob>();
      jobs_[resp.server_job_id] = job;
    }
    resp.accepted = true;
    const TenantId tenant_id = *tenant;
    const int iterations = msg->iterations;
    EngineContext* engine = engine_;
    drivers_.Submit([job, workload = std::move(workload), engine, tenant_id, iterations] {
      {
        std::lock_guard<std::mutex> lock(job->mu);
        job->state = "running";
      }
      std::string reject_reason;
      std::string result;
      try {
        result = workload(*engine, tenant_id, iterations, &reject_reason);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(job->mu);
        job->state = "failed";
        job->detail = e.what();
        job->elapsed_ms = job->watch.ElapsedMillis();
        return;
      }
      std::lock_guard<std::mutex> lock(job->mu);
      if (!reject_reason.empty()) {
        job->state = "rejected";
        job->detail = reject_reason;
      } else {
        job->state = "done";
        job->detail = std::move(result);
      }
      job->elapsed_ms = job->watch.ElapsedMillis();
    });
  }
  return EncodeEnvelope(MsgType::kJobSubmitResp, request_id, resp);
}

std::vector<uint8_t> BlazeJobServer::HandleStatus(uint64_t request_id, ByteSource& body) {
  const auto msg = net::JobStatusMsg::Decode(body);
  if (!msg.has_value()) {
    return {};
  }
  net::JobStatusRespMsg resp;
  std::shared_ptr<ServerJob> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(msg->server_job_id);
    if (it != jobs_.end()) {
      job = it->second;
    }
  }
  if (job != nullptr) {
    std::lock_guard<std::mutex> lock(job->mu);
    resp.known = true;
    resp.state = job->state;
    resp.detail = job->detail;
    resp.elapsed_ms = job->state == "queued" || job->state == "running"
                          ? job->watch.ElapsedMillis()
                          : job->elapsed_ms;
  }
  return EncodeEnvelope(MsgType::kJobStatusResp, request_id, resp);
}

std::vector<uint8_t> BlazeJobServer::HandleStats(uint64_t request_id) {
  net::TenantStatsRespMsg resp;
  const TenantRegistry* tenants = engine_->tenants();
  for (TenantId t = 0; t < tenants->num_tenants(); ++t) {
    const TenantRegistry::TenantStats stats = tenants->Stats(t);
    net::TenantStatRow row;
    row.name = stats.name;
    row.share_bytes = stats.share_bytes;
    for (size_t e = 0; e < engine_->num_executors(); ++e) {
      const MemoryArbiter& arbiter = engine_->block_manager(e).arbiter();
      row.used_bytes += arbiter.TenantCacheUsed(t);
      row.borrowed_bytes += arbiter.TenantBorrowedBytes(t);
    }
    row.jobs_running = stats.jobs_running;
    row.jobs_queued = stats.jobs_queued;
    row.jobs_completed = stats.jobs_completed;
    row.jobs_rejected = stats.jobs_rejected;
    row.cache_hits = stats.cache_hits;
    row.cache_misses = stats.cache_misses;
    resp.tenants.push_back(std::move(row));
  }
  return EncodeEnvelope(MsgType::kTenantStatsResp, request_id, resp);
}

// --- client -----------------------------------------------------------------

BlazeServiceClient::BlazeServiceClient(uint16_t port, int timeout_ms)
    : client_(port, /*pool_size=*/2, timeout_ms) {}

namespace {

// One round trip: encode, call, decode the expected response type. `attempts`
// is passed to RpcClient::Call; only read verbs may resend.
template <typename Resp>
std::optional<Resp> RoundTrip(net::RpcClient& client, std::vector<uint8_t> request,
                              uint64_t request_id, MsgType expect, std::string* error,
                              int attempts = 3) {
  std::vector<uint8_t> response;
  if (!client.Call(request, &response, error, attempts)) {
    return std::nullopt;
  }
  ByteSource body(response);
  const auto header = net::DecodeResponseHeader(response, request_id, &body);
  if (!header.has_value() || header->type != expect) {
    if (error != nullptr) {
      *error = "malformed response";
    }
    return std::nullopt;
  }
  auto decoded = Resp::Decode(body);
  if (!decoded.has_value() && error != nullptr) {
    *error = "undecodable response body";
  }
  return decoded;
}

}  // namespace

bool BlazeServiceClient::Submit(const std::string& tenant, const std::string& workload,
                                int iterations, int64_t* server_job_id, std::string* error) {
  net::JobSubmitMsg msg;
  msg.tenant = tenant;
  msg.workload = workload;
  msg.iterations = iterations;
  const uint64_t id = client_.NextRequestId();
  // Sent once: a resend after a dropped connection or a timed-out read could
  // start the job again on a server that already accepted it.
  const auto resp = RoundTrip<net::JobSubmitRespMsg>(
      client_, EncodeEnvelope(MsgType::kJobSubmit, id, msg), id, MsgType::kJobSubmitResp,
      error, /*attempts=*/1);
  if (!resp.has_value()) {
    return false;
  }
  if (!resp->accepted) {
    if (error != nullptr) {
      *error = resp->error;
    }
    return false;
  }
  if (server_job_id != nullptr) {
    *server_job_id = resp->server_job_id;
  }
  return true;
}

bool BlazeServiceClient::Status(int64_t server_job_id, net::JobStatusRespMsg* out,
                                std::string* error) {
  net::JobStatusMsg msg;
  msg.server_job_id = server_job_id;
  const uint64_t id = client_.NextRequestId();
  const auto resp = RoundTrip<net::JobStatusRespMsg>(
      client_, EncodeEnvelope(MsgType::kJobStatus, id, msg), id, MsgType::kJobStatusResp,
      error);
  if (!resp.has_value()) {
    return false;
  }
  *out = *resp;
  return true;
}

bool BlazeServiceClient::Stats(std::vector<net::TenantStatRow>* out, std::string* error) {
  const uint64_t id = client_.NextRequestId();
  const auto resp = RoundTrip<net::TenantStatsRespMsg>(
      client_, EncodeEnvelope(MsgType::kTenantStats, id, net::TenantStatsMsg{}), id,
      MsgType::kTenantStatsResp, error);
  if (!resp.has_value()) {
    return false;
  }
  *out = std::move(resp->tenants);
  return true;
}

bool BlazeServiceClient::WaitDone(int64_t server_job_id, net::JobStatusRespMsg* out,
                                  int timeout_ms, std::string* error) {
  Stopwatch watch;
  for (;;) {
    if (!Status(server_job_id, out, error)) {
      return false;
    }
    if (out->known && out->state != "queued" && out->state != "running") {
      return true;
    }
    if (watch.ElapsedMillis() > timeout_ms) {
      if (error != nullptr) {
        *error = "timeout waiting for job " + std::to_string(server_job_id);
      }
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace blaze
