// In-process shuffle service.
//
// Map tasks write per-reduce buckets here; reduce tasks fetch every map
// partition's bucket for their reduce index. Outputs persist for the lifetime
// of the run (mirroring Spark's on-disk shuffle files), which both enables
// stage skipping across jobs and makes recomputation of a shuffled dataset a
// re-aggregation rather than a full upstream re-execution — exactly Spark's
// recovery behaviour for shuffle children.
//
// The bucket map is striped over kNumShards shards keyed by a hash of
// (shuffle_id, reduce_part), each with its own spinlock, so the M×R bucket
// writes of a map stage fan out across locks instead of serializing on one.
// Byte accounting is a relaxed atomic; whole-shuffle queries (HasAllOutputs,
// ClearShuffle, DropStale) aggregate across shards.
#ifndef SRC_DATAFLOW_SHUFFLE_H_
#define SRC_DATAFLOW_SHUFFLE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/spinlock.h"
#include "src/storage/block.h"
#include "src/storage/memory_arbiter.h"

namespace blaze {

class ShuffleService {
 public:
  static constexpr size_t kNumShards = 16;

  // Unified memory accounting: once attached, every bucket's bytes are
  // reserved against the owning executor's MemoryArbiter (executor =
  // map_part % num_executors, matching EngineContext::ExecutorFor) and
  // released when the bucket is replaced or dropped. Attach/Detach must
  // happen while no tasks run; the engine attaches at construction and
  // detaches before executors are destroyed.
  void AttachArbiters(std::vector<MemoryArbiter*> arbiters);
  void DetachArbiters();

  // Write-claim outcome for a shuffle's map outputs (see ClaimWrite).
  enum class WriteClaim {
    kOwner,            // caller must run the map stage and call FinishWrite
    kAlreadyComplete,  // all outputs present; safe to skip the map stage
    kPending,          // another job is writing; callback fires on completion
  };

  // Registers the bucket for (shuffle, map_partition, reduce_partition).
  void PutBucket(int shuffle_id, uint32_t map_part, uint32_t reduce_part, BlockPtr bucket);

  // Returns the bucket, or nullptr if the map output is missing.
  BlockPtr GetBucket(int shuffle_id, uint32_t map_part, uint32_t reduce_part) const;

  // True when all num_map x num_reduce buckets of the shuffle are present.
  // Diagnostic / cost-model view only: under concurrent jobs a bare bucket
  // count is a TOCTOU trap (another job may still be mid-write), so the
  // scheduler's stage skipping goes through ClaimWrite instead.
  bool HasAllOutputs(int shuffle_id, size_t num_map, size_t num_reduce) const;

  // --- write-claim state machine ----------------------------------------------------
  // Each shuffle moves absent -> computing -> complete. A stage that wants to
  // produce shuffle outputs first claims the write:
  //   * kOwner: the shuffle was absent; the caller owns the write and must
  //     call FinishWrite once every bucket is registered.
  //   * kAlreadyComplete: a previous job finished this shuffle (or its buckets
  //     were fully rebuilt through the lineage); the stage can be skipped.
  //   * kPending: a concurrent job is mid-write. `on_complete` is invoked
  //     exactly once, on the writer's FinishWrite thread, when the shuffle
  //     becomes readable. Callback-based (not blocking) so a finite worker
  //     pool can never deadlock waiting for its own queue to drain.
  // An absent shuffle whose num_map x num_reduce buckets already all exist
  // (lazily rebuilt by ReadOrRebuildShuffleBuckets, or prepopulated by tests)
  // is promoted straight to complete.
  WriteClaim ClaimWrite(int shuffle_id, size_t num_map, size_t num_reduce,
                        std::function<void()> on_complete);

  // Marks the claimed shuffle complete and fires pending waiters (outside the
  // service lock). Only the kOwner claimant may call this.
  void FinishWrite(int shuffle_id);

  // State probes for tests and diagnostics.
  bool IsComplete(int shuffle_id) const;
  // Blocks until the shuffle reaches complete (test helper; the scheduler
  // itself only uses the non-blocking callback path).
  void WaitComplete(int shuffle_id);

  // Retention pinning: a job pins every shuffle it plans to read or write for
  // its whole duration, so DropStale never reaps outputs of in-flight jobs.
  void Pin(int shuffle_id);
  void Unpin(int shuffle_id);

  // Total bytes held (diagnostics only; Spark keeps these on local disk).
  uint64_t approx_bytes() const { return approx_bytes_.load(std::memory_order_relaxed); }

  void Clear();

  // Drops all outputs of one shuffle (Spark's ContextCleaner when the shuffle
  // dependency is collected). Reduce-side datasets rebuild missing buckets
  // through their lineage on access.
  void ClearShuffle(int shuffle_id);

  // Retention bookkeeping: the scheduler marks each shuffle it reads or
  // writes with the running job; DropStale clears shuffles untouched for
  // `retention_jobs` jobs (modeling aggressive shuffle cleanup — the design
  // ablation for our keep-everything default). Pinned or mid-write shuffles
  // are never dropped.
  void MarkUsed(int shuffle_id, int job_id);
  void DropStale(int current_job, int retention_jobs);

  int NewShuffleId() { return next_shuffle_id_.fetch_add(1, std::memory_order_relaxed); }

 private:
  struct Key {
    int shuffle_id;
    uint32_t map_part;
    uint32_t reduce_part;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = static_cast<uint64_t>(k.shuffle_id) * 0x9E3779B97F4A7C15ULL;
      h ^= (static_cast<uint64_t>(k.map_part) << 32) | k.reduce_part;
      return std::hash<uint64_t>()(h);
    }
  };

  struct Shard {
    mutable SpinLock mu;  // guards ~tens-of-ns sections; see spinlock.h
    std::unordered_map<Key, BlockPtr, KeyHash> buckets;
    // This shard's bucket count per shuffle id; HasAllOutputs sums them.
    std::unordered_map<int, size_t> bucket_counts;
  };

  // All buckets of one (shuffle, reduce partition) land in one shard, so a
  // reduce task's fetch sweep stays on a single lock while different reduce
  // partitions (and shuffles) spread across shards.
  Shard& ShardFor(int shuffle_id, uint32_t reduce_part) const {
    uint64_t h = (static_cast<uint64_t>(shuffle_id) << 32) | reduce_part;
    h *= 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    return shards_[h % kNumShards];
  }

  // Ledger charge for a bucket written by `map_part` (nullptr when detached).
  MemoryArbiter* ArbiterFor(uint32_t map_part) const {
    return arbiters_.empty() ? nullptr : arbiters_[map_part % arbiters_.size()];
  }

  void ClearShuffleInShards(int shuffle_id);
  // Sums this shuffle's resident buckets across shards. Leaf operation: takes
  // only shard spinlocks, safe to call with control_mu_ held.
  size_t CountBuckets(int shuffle_id) const;

  mutable std::array<Shard, kNumShards> shards_;
  // Written only while quiesced (AttachArbiters/DetachArbiters); read on the
  // bucket hot path without locking.
  std::vector<MemoryArbiter*> arbiters_;
  std::atomic<uint64_t> approx_bytes_{0};
  std::atomic<int> next_shuffle_id_{0};

  enum class State { kAbsent, kComputing, kComplete };
  struct Entry {
    State state = State::kAbsent;
    int last_used_job = -1;  // retention watermark (MarkUsed)
    int pins = 0;            // in-flight jobs referencing this shuffle
    std::vector<std::function<void()>> waiters;  // fired by FinishWrite
  };

  // Control-plane mutex: guards `entries_` (state machine, pins, retention).
  // Lock order: control_mu_ before shard spinlocks (CountBuckets); the data
  // plane (PutBucket/GetBucket) never takes control_mu_.
  mutable std::mutex control_mu_;
  std::condition_variable control_cv_;  // signalled on state -> kComplete
  std::unordered_map<int, Entry> entries_;
};

}  // namespace blaze

#endif  // SRC_DATAFLOW_SHUFFLE_H_
