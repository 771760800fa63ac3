// Wire framing for the job-service protocol (message.h).
//
// Every message travels as one frame over a local TCP stream:
//
//   [u32 magic "BLZ1"] [u32 payload_len] [payload bytes] [u32 crc32(payload)]
//
// all little-endian. The CRC-32 trailer reuses the disk-spill checksum
// (src/common/crc32.h): a truncated or corrupted frame must surface as a
// clean connection error — never as garbage decoded into engine state.
// Frames are bounded (kMaxFrameBytes) so a garbled length prefix cannot make
// a peer allocate unbounded memory.
//
// Socket helpers: loopback-only listen/connect with SO_REUSEADDR and
// bind/connect retry with exponential backoff, so service ports survive fast
// restarts in tests and CI.
#ifndef SRC_NET_FRAME_H_
#define SRC_NET_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace blaze::net {

inline constexpr uint32_t kFrameMagic = 0x315A4C42u;  // "BLZ1"
inline constexpr uint32_t kMaxFrameBytes = 1u << 30;  // 1 GiB payload bound

// Writes one frame; retries on EINTR, suppresses SIGPIPE. False on any
// socket error (peer gone, timeout).
bool WriteFrame(int fd, const uint8_t* payload, size_t len, std::string* error = nullptr);
bool WriteFrame(int fd, const std::vector<uint8_t>& payload, std::string* error = nullptr);

// Reads one frame into *payload. False on EOF, short read, bad magic,
// oversize length, or CRC mismatch — with a human-readable reason in *error.
// A clean EOF before any byte reads as error "eof".
bool ReadFrame(int fd, std::vector<uint8_t>* payload, std::string* error = nullptr);

// Creates a loopback listener with SO_REUSEADDR, retrying bind with
// exponential backoff (`attempts` tries) so a just-restarted process can
// reclaim its port while the old socket drains. port==0 binds ephemeral.
// Returns the listening fd and writes the bound port, or -1.
int ListenLocal(uint16_t port, uint16_t* bound_port, int attempts = 10,
                std::string* error = nullptr);

// Connects to 127.0.0.1:port with per-attempt timeout and exponential
// backoff between attempts. Returns the connected fd or -1.
int ConnectLocal(uint16_t port, int attempts = 3, int timeout_ms = 1000,
                 std::string* error = nullptr);

// Applies send/receive timeouts to a connected socket.
void SetSocketTimeouts(int fd, int timeout_ms);

}  // namespace blaze::net

#endif  // SRC_NET_FRAME_H_
