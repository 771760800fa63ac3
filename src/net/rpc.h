// Blocking RPC shim over the framed loopback protocol (the job-service verbs
// of message.h).
//
// RpcServer: accept loop plus one serving thread per connection; each request
// frame is decoded to a header and handed to the handler, whose response
// frame is written back on the same connection. Synchronous per connection —
// concurrency comes from the client opening several connections, which keeps
// the protocol trivially orderable (no interleaved responses).
//
// RpcClient: a small pool of persistent connections to one server. A call
// locks a connection, writes the request, and blocks for the response.
// Dead connections are re-dialed with exponential backoff, and by default the
// request is resent after a transport error. A resent request may already
// have been applied, so only reads (job status, tenant stats) may use the
// default; a verb with a side effect (job submit) must pass attempts = 1.
#ifndef SRC_NET_RPC_H_
#define SRC_NET_RPC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/frame.h"
#include "src/net/message.h"

namespace blaze::net {

class RpcServer {
 public:
  // Returns the full response frame payload (header + body), or empty to
  // drop the connection (protocol error).
  using Handler =
      std::function<std::vector<uint8_t>(const MessageHeader&, ByteSource&)>;

  RpcServer(uint16_t port, Handler handler)
      : requested_port_(port), handler_(std::move(handler)) {}
  ~RpcServer() { Stop(); }

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  bool Start(std::string* error = nullptr);
  void Stop();

  uint16_t port() const { return bound_port_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  const uint16_t requested_port_;
  Handler handler_;
  // Atomic: Stop() retires it to -1 while AcceptLoop is parked in accept().
  std::atomic<int> listen_fd_{-1};
  uint16_t bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  // Open connection fds, so Stop() can shutdown() them and wake serving
  // threads parked in ReadFrame instead of waiting out the socket timeout.
  std::vector<int> live_fds_;
};

class RpcClient {
 public:
  RpcClient(uint16_t port, int pool_size = 4, int timeout_ms = 5000)
      : port_(port), timeout_ms_(timeout_ms),
        conns_(std::max(1, pool_size)) {}
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Blocking request/response. `request` is a full frame payload (use
  // EncodeEnvelope); the response frame payload lands in *response. False
  // after all `attempts` sends fail, with the last error in *error. Each
  // attempt after the first resends the request: pass 1 for a verb that
  // must not run twice.
  bool Call(const std::vector<uint8_t>& request, std::vector<uint8_t>* response,
            std::string* error = nullptr, int attempts = 3);

  uint64_t NextRequestId() { return next_request_id_.fetch_add(1) + 1; }

  uint16_t port() const { return port_; }

 private:
  struct Conn {
    std::mutex mu;
    int fd = -1;
  };

  const uint16_t port_;
  const int timeout_ms_;
  std::vector<Conn> conns_;
  std::atomic<uint64_t> next_slot_{0};
  std::atomic<uint64_t> next_request_id_{0};
};

// Decodes a response frame into (header, body) and checks the echoed
// request id. Returns nullopt on any mismatch.
std::optional<MessageHeader> DecodeResponseHeader(
    const std::vector<uint8_t>& response, uint64_t expect_request_id,
    ByteSource* body);

}  // namespace blaze::net

#endif  // SRC_NET_RPC_H_
