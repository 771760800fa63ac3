// Per-executor storage: one memory store + one disk store, mirroring Spark's
// BlockManager. Provides the mechanical operations (spill, disk fetch,
// remove); every *decision* — admit, evict, victim choice, disk-vs-discard —
// belongs to the cache coordinator (src/cache/cache_coordinator.h).
//
// PR 5 additions: the BlockManager owns the executor's MemoryArbiter (one
// byte ledger for cache blocks and shuffle/execution buffers — the memory
// store's capacity bound shrinks as shuffle bytes are charged) and its
// SpillQueue (asynchronous spill/fetch worker). WriteBack is the single disk
// write path coordinators use; it and FetchAsync go off-path through the
// queue, and only a full queue (back-pressure) sends a write back onto the
// calling thread.
#ifndef SRC_STORAGE_BLOCK_MANAGER_H_
#define SRC_STORAGE_BLOCK_MANAGER_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>

#include "src/metrics/run_metrics.h"
#include "src/storage/disk_store.h"
#include "src/storage/memory_arbiter.h"
#include "src/storage/memory_store.h"
#include "src/storage/spill_queue.h"

namespace blaze {

struct BlockManagerConfig {
  uint64_t memory_capacity_bytes = 64ULL << 20;
  std::filesystem::path disk_dir;
  uint64_t disk_throughput_bytes_per_sec = 0;  // 0 = unthrottled
  // Bounded; a full queue falls back to a synchronous write (back-pressure).
  // Engines keep the default; tests shrink it to force a full queue.
  size_t spill_queue_depth = 32;
};

class BlockManager {
 public:
  BlockManager(size_t executor_id, const BlockManagerConfig& config, RunMetrics* metrics);
  ~BlockManager();

  size_t executor_id() const { return executor_id_; }
  MemoryStore& memory() { return memory_; }
  const MemoryStore& memory() const { return memory_; }
  DiskStore& disk() { return disk_; }
  const DiskStore& disk() const { return disk_; }
  MemoryArbiter& arbiter() { return arbiter_; }
  const MemoryArbiter& arbiter() const { return arbiter_; }

  // Serializes `data` and writes it to the disk store. Returns total
  // milliseconds spent (serialization + throttled write).
  double SpillToDisk(const BlockId& id, const BlockData& data, uint64_t* bytes_out = nullptr);

  // Hands the victim to the spill worker; the write happens off the task
  // path. Returns false — caller must SpillToDisk synchronously — when the
  // queue is full or the same id is mid-write.
  bool SpillAsync(const BlockId& id, BlockPtr data);

  enum class WriteBackResult {
    kSkipped,  // already on disk or already queued: nothing to write
    kQueued,   // handed to the spill worker (CancelSpill revokes it)
    kWritten,  // written synchronously on the calling thread
  };

  // The one disk-write path for every cache coordinator (evictions and
  // admissions straight to disk alike). Skips a block that is already on disk
  // or queued; otherwise enqueues it with SpillAsync, and writes synchronously
  // only when SpillAsync refuses. A synchronous write's milliseconds and
  // bytes are charged to `charge` when it is non-null.
  WriteBackResult WriteBack(const BlockId& id, const BlockPtr& data, TaskMetrics* charge);

  // The in-memory payload of a spill that has not committed yet (write-claim
  // read-through): present from SpillAsync until the disk write lands.
  std::optional<BlockPtr> InFlightSpill(const BlockId& id) const;

  // Revokes a pending spill (unpersist racing an eviction). A spill already
  // mid-write has its file deleted right after the commit.
  bool CancelSpill(const BlockId& id);

  // Blocks until the spill worker is idle. Call before tearing down anything
  // a fetch callback may reference.
  void DrainSpills();

  // Schedules an asynchronous disk read on the spill worker (recovery /
  // promotion overlap). Returns false if the queue is full — caller reads
  // synchronously.
  bool FetchAsync(const BlockId& id, SpillQueue::FetchCallback on_loaded);

  // Depth of the spill/fetch queue right now (diagnostics).
  size_t SpillQueueDepth() const;

  // Payload bytes of spills claimed but not yet committed (the
  // spill.pending_bytes gauge).
  uint64_t PendingSpillBytes() const;

  // Reads the encoded bytes of a spilled block; millis spent written to *ms.
  std::optional<std::vector<uint8_t>> ReadFromDisk(const BlockId& id, double* ms);

  // Drops the block from the given tiers, updating disk residency metrics.
  void RemoveFromMemory(const BlockId& id);
  void RemoveFromDisk(const BlockId& id);

  RunMetrics* metrics() { return metrics_; }

 private:
  size_t executor_id_;
  MemoryArbiter arbiter_;
  MemoryStore memory_;
  DiskStore disk_;
  RunMetrics* metrics_;
  std::unique_ptr<SpillQueue> spill_;  // constructed last, destroyed first
};

}  // namespace blaze

#endif  // SRC_STORAGE_BLOCK_MANAGER_H_
