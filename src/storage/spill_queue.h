// Asynchronous per-executor spill/fetch pipeline.
//
// Eviction used to serialize and write the victim inside the evicting task's
// critical path (the coordinator holds the executor lock, the task eats the
// disk milliseconds). The spill queue moves that work to one background
// worker per executor: eviction enqueues the victim (an O(1) pointer hand-off
// under the arbiter's bounded queue) and returns; the worker serializes,
// writes through the BlockManager (so throttling, metrics, and tracing stay
// identical to the sync path), and commits.
//
// Write-claim state machine, mirroring the shuffle service's
// absent -> computing -> complete claims (PR 4):
//
//   absent --EnqueueSpill--> queued --worker picks up--> writing --commit--> absent
//
// While an id is queued or writing, FindInFlight returns the live BlockPtr:
// a block being spilled can still be read *from memory* until the write
// commits, so the eviction window never costs a disk read or a recompute.
// Cancel (unpersist racing a spill) removes a queued item outright and marks
// a writing item so its committed file is deleted right after the write —
// a cancelled spill can never resurrect a dropped block on disk.
//
// The same worker overlaps disk *fetches* (EnqueueFetch): recovery reloads
// and planned d->m promotions run off the planning/task path and deliver
// their bytes via callback.
//
// The queue is bounded: a full queue rejects the enqueue and the caller
// falls back to the synchronous spill (backpressure instead of unbounded
// memory retention — every queued BlockPtr keeps its payload alive).
//
// The worker thread starts on the first enqueue, so an engine that never
// touches its disk tier never spawns one.
#ifndef SRC_STORAGE_SPILL_QUEUE_H_
#define SRC_STORAGE_SPILL_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/storage/block.h"

namespace blaze {

class BlockManager;
class RunMetrics;

class SpillQueue {
 public:
  // Callback for EnqueueFetch: encoded bytes (nullopt = absent/corrupt) plus
  // the disk milliseconds spent. Runs on the spill worker thread.
  using FetchCallback =
      std::function<void(std::optional<std::vector<uint8_t>> bytes, double disk_ms)>;

  SpillQueue(BlockManager* bm, size_t max_depth, RunMetrics* metrics);
  // Drains every pending item (writes commit, fetches deliver) and joins the
  // worker. Safe only after task execution has quiesced.
  ~SpillQueue();

  SpillQueue(const SpillQueue&) = delete;
  SpillQueue& operator=(const SpillQueue&) = delete;

  // Claims an async spill for `id`. Returns false — caller spills
  // synchronously — when the queue is at capacity or the same id is already
  // mid-write (two concurrent writers of one file would interleave).
  // Re-enqueueing a still-queued id just replaces its payload.
  bool EnqueueSpill(const BlockId& id, BlockPtr data);

  // Schedules an asynchronous disk read on the same worker. Returns false if
  // the queue is at capacity (caller reads synchronously).
  bool EnqueueFetch(const BlockId& id, FetchCallback on_loaded);

  // Read-your-spills: the in-memory payload of a queued or mid-write spill.
  std::optional<BlockPtr> FindInFlight(const BlockId& id) const;

  // Revokes a pending spill of `id`: a queued item is dropped, a mid-write
  // item is flagged so its file is removed right after the commit. Returns
  // true if there was anything to cancel.
  bool Cancel(const BlockId& id);

  // Blocks until the queue is empty and the worker is idle. Must not be
  // called while holding locks the fetch callbacks take.
  void Drain();

  size_t depth() const;

  // Payload bytes of spills claimed but not yet committed to disk.
  uint64_t pending_spill_bytes() const;

 private:
  enum class SpillState { kQueued, kWriting };
  struct InFlight {
    BlockPtr data;
    SpillState state = SpillState::kQueued;
    bool cancelled = false;
  };
  struct FetchItem {
    BlockId id;
    FetchCallback on_loaded;
  };
  struct WorkItem {
    bool is_fetch = false;
    BlockId id;
  };

  // Spawns the worker on the first enqueue (caller holds mu_): an engine
  // that never spills or fetches never starts the thread.
  void StartWorkerLocked();
  void WorkerLoop();
  void ProcessSpill(const BlockId& id);
  void ProcessFetch(const BlockId& id);

  BlockManager* bm_;
  RunMetrics* metrics_;
  const size_t max_depth_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // signalled on enqueue and stop
  std::condition_variable drain_cv_;  // signalled when the worker goes idle
  std::deque<WorkItem> queue_;
  std::unordered_map<BlockId, InFlight, BlockIdHash> spills_;
  std::unordered_map<BlockId, std::vector<FetchCallback>, BlockIdHash> fetches_;
  size_t active_ = 0;  // items the worker holds outside the queue
  uint64_t pending_spill_bytes_ = 0;  // payload bytes in spills_ (queued + writing)
  bool stop_ = false;

  std::thread worker_;  // started lazily by StartWorkerLocked, under mu_
};

}  // namespace blaze

#endif  // SRC_STORAGE_SPILL_QUEUE_H_
