#include "src/common/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace blaze {

namespace {

constexpr int kPollIntervalMs = 100;   // stop-flag check cadence
constexpr size_t kMaxRequestBytes = 8192;

bool SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool HttpServer::Start(uint16_t port, Handler handler) {
  if (listen_fd_ >= 0 || !handler) {
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // A fixed port may still be in TIME_WAIT from a just-restarted process:
  // retry EADDRINUSE with backoff instead of failing telemetry outright. Kernel-assigned ports (port==0) never clash.
  int backoff_ms = 10;
  int rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  while (rc != 0 && errno == EADDRINUSE && port != 0 && backoff_ms <= 500) {
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms *= 2;
    rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0 || ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  // Recover the kernel-assigned port when port==0 was requested.
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    return false;
  }
  port_ = ntohs(addr.sin_port);
  handler_ = std::move(handler);
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void HttpServer::Stop() {
  if (listen_fd_ < 0) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
  handler_ = nullptr;
}

void HttpServer::Loop() {
  pollfd pfd{};
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;
  while (!stop_.load(std::memory_order_acquire)) {
    const int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready <= 0) {
      continue;  // timeout (stop-flag check) or EINTR
    }
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      continue;
    }
    HandleConnection(conn);
    ::close(conn);
  }
}

void HttpServer::HandleConnection(int fd) {
  // Bound the read so a stalled client cannot wedge the listener.
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  // Read until the header terminator; we ignore request bodies entirely.
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }

  // Parse "GET <path> HTTP/1.x".
  std::string method;
  std::string path;
  {
    const size_t sp1 = request.find(' ');
    if (sp1 == std::string::npos) {
      return;
    }
    const size_t sp2 = request.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
      return;
    }
    method = request.substr(0, sp1);
    path = request.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t query = path.find('?');
    if (query != std::string::npos) {
      path.resize(query);
    }
  }

  std::string status = "200 OK";
  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "method not allowed\n";
  } else if (!handler_(path, &body, &content_type)) {
    status = "404 Not Found";
    body = "not found\n";
  }

  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n";
  response += body;
  SendAll(fd, response.data(), response.size());
}

std::optional<std::string> HttpGetLocal(uint16_t port, const std::string& path,
                                        std::string* error, int timeout_ms) {
  const auto fail = [error](const std::string& why) -> std::optional<std::string> {
    if (error != nullptr) {
      *error = why;
    }
    return std::nullopt;
  };

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return fail("socket: " + std::string(std::strerror(errno)));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return fail("connect 127.0.0.1:" + std::to_string(port) + ": " +
                std::strerror(errno));
  }

  const std::string request = "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!SendAll(fd, request.data(), request.size())) {
    ::close(fd);
    return fail("send: " + std::string(std::strerror(errno)));
  }

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return fail("malformed response (no header terminator)");
  }
  // Status line: "HTTP/1.0 200 OK".
  const size_t sp = response.find(' ');
  if (sp == std::string::npos || response.compare(sp + 1, 3, "200") != 0) {
    return fail("non-200 status: " + response.substr(0, response.find("\r\n")));
  }
  return response.substr(header_end + 4);
}

}  // namespace blaze
