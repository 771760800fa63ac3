// Blaze-as-a-service: a long-lived job server multiplexing one engine across
// registered tenants, speaking the framed RPC protocol from src/net.
//
// The server owns no scheduling of its own — it is a thin service plane:
//
//   submit(tenant, workload)  ->  maps the tenant name to its registry id,
//                                 enqueues the workload on a driver pool, and
//                                 returns a server job id immediately. The
//                                 tenant's admission gate (max in-flight,
//                                 bounded queue) applies when the driver's
//                                 jobs reach EngineContext::SubmitJobAs — a
//                                 rejection surfaces as state "rejected" with
//                                 the reason in the status detail.
//   status(server_job_id)     ->  queued | running | done | failed | rejected
//   tenant stats              ->  one row per tenant: share/used/borrowed
//                                 bytes (summed across executor arbiters),
//                                 running/queued jobs, completions, rejects,
//                                 and hit/miss counters.
//
// Workloads are registered by name — both processes link the driver code, so
// only the name and an iteration count travel on the wire.
#ifndef SRC_DATAFLOW_JOB_SERVER_H_
#define SRC_DATAFLOW_JOB_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/dataflow/engine_context.h"
#include "src/net/rpc.h"

namespace blaze {

class BlazeJobServer {
 public:
  // A tenant-scoped driver: runs its jobs through `engine` attributed to
  // `tenant` (RunJobAs/SubmitJobAs), returns a short result summary. An
  // admission rejection is reported by filling *reject_reason and returning
  // an empty string.
  using WorkloadFn = std::function<std::string(EngineContext& engine, TenantId tenant,
                                               int iterations, std::string* reject_reason)>;

  // Port 0 binds an ephemeral port (see port() after Start).
  BlazeJobServer(EngineContext* engine, uint16_t port, size_t driver_threads = 4);
  ~BlazeJobServer();

  BlazeJobServer(const BlazeJobServer&) = delete;
  BlazeJobServer& operator=(const BlazeJobServer&) = delete;

  void RegisterWorkload(std::string name, WorkloadFn fn);

  bool Start(std::string* error = nullptr);
  void Stop();

  uint16_t port() const { return server_.port(); }

 private:
  struct ServerJob {
    std::mutex mu;
    std::string state = "queued";  // queued -> running -> done|failed|rejected
    std::string detail;
    Stopwatch watch;
    double elapsed_ms = 0.0;
  };

  std::vector<uint8_t> Handle(const net::MessageHeader& header, ByteSource& body);
  std::vector<uint8_t> HandleSubmit(uint64_t request_id, ByteSource& body);
  std::vector<uint8_t> HandleStatus(uint64_t request_id, ByteSource& body);
  std::vector<uint8_t> HandleStats(uint64_t request_id);

  EngineContext* engine_;
  net::RpcServer server_;
  ThreadPool drivers_;  // runs submitted workloads off the RPC threads

  std::mutex mu_;
  std::unordered_map<std::string, WorkloadFn> workloads_;
  int64_t next_job_id_ = 0;
  std::unordered_map<int64_t, std::shared_ptr<ServerJob>> jobs_;
};

// Blocking client for the job-server verbs (wraps net::RpcClient; used by
// blaze_serve-driven tools and the tenant tests).
class BlazeServiceClient {
 public:
  explicit BlazeServiceClient(uint16_t port, int timeout_ms = 10000);

  // False on transport failure; *error explains. A submit that reached the
  // server but was refused (unknown tenant/workload) also returns false with
  // the server's reason in *error. Submit is sent once and never resent (a
  // transport failure may leave the job started); Status and Stats retry.
  bool Submit(const std::string& tenant, const std::string& workload, int iterations,
              int64_t* server_job_id, std::string* error = nullptr);
  bool Status(int64_t server_job_id, net::JobStatusRespMsg* out,
              std::string* error = nullptr);
  bool Stats(std::vector<net::TenantStatRow>* out, std::string* error = nullptr);

  // Polls Status until the job leaves queued/running or `timeout_ms` passes.
  bool WaitDone(int64_t server_job_id, net::JobStatusRespMsg* out, int timeout_ms = 30000,
                std::string* error = nullptr);

 private:
  net::RpcClient client_;
};

}  // namespace blaze

#endif  // SRC_DATAFLOW_JOB_SERVER_H_
