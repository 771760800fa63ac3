#include "src/net/rpc.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"

namespace blaze::net {

bool RpcServer::Start(std::string* error) {
  const int fd = ListenLocal(requested_port_, &bound_port_, /*attempts=*/10, error);
  if (fd < 0) {
    return false;
  }
  listen_fd_.store(fd);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void RpcServer::Stop() {
  // exchange() makes Stop idempotent: the second caller (typically the
  // destructor after an explicit Stop) sees -1 and returns.
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd < 0) {
    return;
  }
  stopping_.store(true);
  // shutdown() wakes the blocked accept(); the close waits until the accept
  // thread is joined so its fd number can't be recycled out from under it.
  ::shutdown(listen_fd, SHUT_RDWR);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  ::close(listen_fd);
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    // Wake every serving thread parked in ReadFrame on an idle connection;
    // the thread owns the close (shutdown alone leaves the fd valid).
    for (const int fd : live_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    conns.swap(conn_threads_);
  }
  for (auto& t : conns) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void RpcServer::AcceptLoop() {
  for (;;) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) {
      return;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;
    }
    SetSocketTimeouts(fd, /*timeout_ms=*/30000);
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    live_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void RpcServer::ServeConnection(int fd) {
  std::vector<uint8_t> request;
  std::string error;
  while (!stopping_.load()) {
    if (!ReadFrame(fd, &request, &error)) {
      // "eof" is the normal hang-up; anything else is a protocol error worth
      // a log line before the drop.
      if (error != "eof" && !stopping_.load()) {
        BLAZE_LOG(kWarn) << "rpc: dropping connection: " << error;
      }
      break;
    }
    ByteSource src(request);
    const auto header = MessageHeader::Decode(src);
    if (!header.has_value()) {
      BLAZE_LOG(kWarn) << "rpc: dropping connection: bad message header";
      break;
    }
    const std::vector<uint8_t> response = handler_(*header, src);
    if (response.empty()) {
      BLAZE_LOG(kWarn) << "rpc: dropping connection: handler rejected "
                         << MsgTypeName(header->type);
      break;
    }
    if (!WriteFrame(fd, response, &error)) {
      break;
    }
  }
  // Deregister before close so a racing accept() can't recycle the fd number
  // into live_fds_ while this entry is still present.
  std::lock_guard<std::mutex> lock(conn_mu_);
  live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), fd), live_fds_.end());
  ::close(fd);
}

RpcClient::~RpcClient() {
  for (auto& conn : conns_) {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.fd >= 0) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
}

bool RpcClient::Call(const std::vector<uint8_t>& request,
                     std::vector<uint8_t>* response, std::string* error,
                     int attempts) {
  const size_t slot = next_slot_.fetch_add(1) % conns_.size();
  Conn& conn = conns_[slot];
  std::lock_guard<std::mutex> lock(conn.mu);

  std::string local_error;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (conn.fd < 0) {
      conn.fd = ConnectLocal(port_, /*attempts=*/3, timeout_ms_, &local_error);
      if (conn.fd < 0) {
        continue;
      }
    }
    if (WriteFrame(conn.fd, request, &local_error) &&
        ReadFrame(conn.fd, response, &local_error)) {
      return true;
    }
    // Socket is in an unknown state (half-written request, truncated
    // response): never reuse it. The next attempt re-dials.
    ::close(conn.fd);
    conn.fd = -1;
  }
  if (error != nullptr) {
    *error = local_error.empty() ? "rpc failed" : local_error;
  }
  return false;
}

std::optional<MessageHeader> DecodeResponseHeader(
    const std::vector<uint8_t>& response, uint64_t expect_request_id,
    ByteSource* body) {
  ByteSource src(response);
  const auto header = MessageHeader::Decode(src);
  if (!header.has_value() || header->request_id != expect_request_id) {
    return std::nullopt;
  }
  *body = src;
  return header;
}

}  // namespace blaze::net
