// File-backed disk block store with an optional throughput throttle.
//
// Writes and reads are real file I/O under a per-store temp directory; the
// throttle sleeps out the remainder of bytes/throughput so a store configured
// at, say, 80 MB/s behaves like the paper's gp2 SSD regardless of how fast the
// host filesystem actually is. Timings are returned to the caller so the task
// layer can attribute disk time (paper Figs. 4/10 "Disk I/O Time for Caching").
//
// Every block file carries a CRC-32 trailer. A mismatch on read (torn write,
// bit rot, external truncation) is reported as a miss — the caller falls back
// to lineage recomputation — never as successfully decoded garbage.
#ifndef SRC_STORAGE_DISK_STORE_H_
#define SRC_STORAGE_DISK_STORE_H_

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/block.h"

namespace blaze {

struct DiskOpResult {
  double elapsed_ms = 0.0;
  uint64_t bytes = 0;
};

class DiskStore {
 public:
  // throughput_bytes_per_sec == 0 disables throttling. The directory is
  // created on the first Put (and wiped on destruction).
  DiskStore(std::filesystem::path dir, uint64_t throughput_bytes_per_sec);
  ~DiskStore();

  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  // Writes the encoded block; replaces any previous content for the id.
  DiskOpResult Put(const BlockId& id, const std::vector<uint8_t>& encoded);

  // Reads the encoded block back; nullopt if absent or if the stored checksum
  // does not match (the corrupted entry is dropped so later probes miss fast).
  // elapsed_ms is written to *op if the read happened.
  std::optional<std::vector<uint8_t>> Get(const BlockId& id, DiskOpResult* op);

  // Number of reads rejected by the CRC check since construction.
  uint64_t checksum_failures() const;

  bool Contains(const BlockId& id) const;

  // Removes the block file; returns its size or 0 if absent.
  uint64_t Remove(const BlockId& id);

  uint64_t used_bytes() const;
  size_t num_blocks() const;

  // Ids of all blocks currently stored (for coordinator sweeps).
  std::vector<BlockId> Blocks() const;

  // Observed effective throughput (bytes/s) over all operations so far, or
  // the configured value when nothing has been measured yet. Blaze's cost
  // model profiles this at runtime (paper §5.3).
  double ObservedThroughput() const;

 private:
  std::filesystem::path PathFor(const BlockId& id) const;
  void Throttle(uint64_t bytes, double actual_ms) const;

  std::filesystem::path dir_;
  std::once_flag dir_created_;
  uint64_t throughput_;
  mutable std::mutex mu_;
  std::unordered_map<BlockId, uint64_t, BlockIdHash> sizes_;
  uint64_t used_ = 0;
  uint64_t checksum_failures_ = 0;
  double total_io_ms_ = 0.0;
  uint64_t total_io_bytes_ = 0;
};

}  // namespace blaze

#endif  // SRC_STORAGE_DISK_STORE_H_
