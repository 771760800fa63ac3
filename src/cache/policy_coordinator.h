// The Spark-baseline cache coordinator: blindly follows user Cache()/
// Unpersist() annotations at dataset granularity, evicts under memory
// pressure according to a pluggable policy, and recovers evicted data either
// by recomputation (MEM_ONLY) or from the per-executor disk store
// (MEM_AND_DISK) — exactly the three separate operational layers the paper's
// §2.3/§3 describe.
#ifndef SRC_CACHE_POLICY_COORDINATOR_H_
#define SRC_CACHE_POLICY_COORDINATOR_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/cache/eviction_policy.h"
#include "src/dataflow/cache_coordinator.h"
#include "src/dataflow/engine_context.h"

namespace blaze {

class PolicyCoordinator : public CacheCoordinator {
 public:
  PolicyCoordinator(EngineContext* engine, std::unique_ptr<EvictionPolicy> policy,
                    EvictionMode mode);

  void OnJobStart(const JobInfo& job) override;
  void OnStageStart(const StageInfo& stage) override;
  void OnStageComplete(const StageInfo& stage) override;

  std::optional<BlockPtr> Lookup(const RddBase& rdd, uint32_t partition,
                                 TaskContext& tc) override;
  void BlockComputed(const RddBase& rdd, uint32_t partition, const BlockPtr& block,
                     double compute_ms, TaskContext& tc) override;
  bool IsManaged(const RddBase& rdd) const override;
  // Spark-style candidate selection is annotation-only: fusion breaks exactly
  // at user Cache() points, everything else pipelines through.
  bool IsCacheCandidate(const RddBase& rdd) const override {
    return rdd.storage_level() != StorageLevel::kNone;
  }
  void UnpersistRdd(const RddBase& rdd) override;

 private:
  // Frees at least `needed` bytes on the executor by evicting policy-chosen
  // victims (spilled to disk in MEM_AND_DISK mode, discarded in MEM_ONLY).
  // Blocks of `incoming_rdd` are never victims (Spark's same-RDD guard).
  // Returns false, before evicting anything, when even every candidate together
  // cannot free the space. Caller holds the executor lock; a synchronous spill
  // fallback is charged to `tc`.
  bool EnsureSpace(size_t executor, uint64_t needed, RddId incoming_rdd, TaskContext& tc);

  // The blocks an insert of `incoming_rdd` on behalf of `tenant` may evict:
  // unpinned, of another dataset, and allowed by the tenant floor. Blocks
  // several tenants reference go to `shared_hot` (offered last). Returns the
  // bytes of both lists together.
  uint64_t CollectCandidates(BlockManager& bm, RddId incoming_rdd, uint32_t tenant,
                             std::vector<MemoryEntry>* candidates,
                             std::vector<MemoryEntry>* shared_hot) const;

  // The one promotion path into memory, shared by disk hits and MRD prefetch.
  // Caller holds the executor lock and has checked that the block is on disk
  // and not in memory; the disk copy is kept, so a later eviction costs no
  // write. For a reading task (`tc` non-null) the policy's ShouldPromote gate
  // decides, given `recency` (the block's previous access); the prefetcher
  // (`tc` null) only fills free room. A block that fits in free room is
  // inserted at `recency`; one that does not makes room through EnsureSpace
  // and counts as accessed now. A task's promoted block stays pinned until
  // the task ends. Returns true if the block was inserted.
  bool PromoteLocked(size_t executor, const RddBase& rdd, const BlockId& id,
                     const BlockPtr& block, uint64_t recency, TaskContext* tc,
                     const char* reason);

  // Multi-tenant charging: the dataset owner (first-toucher; a shared
  // dataset is charged once), else `fallback`; kNoTenant outside
  // multi-tenant mode.
  uint32_t ChargedTenant(const RddBase& rdd, uint32_t fallback) const;

  // Runs one prefetch sweep (MRD); executed on the background prefetcher.
  void PrefetchSweep(DependencyDigest digest);

  EngineContext* engine_;
  std::unique_ptr<EvictionPolicy> policy_;
  EvictionMode mode_;
  std::vector<std::unique_ptr<std::mutex>> executor_mu_;
  // Per executor, guarded by executor_mu_[e]: the memory-store clock value
  // (MemoryStore::Tick) of the last access of every block that went to disk
  // in MEM_AND_DISK mode — its last access in memory when evicted, the
  // admission when written straight to disk, then every disk hit. The
  // promotion gate compares it against the resident blocks' recency.
  std::vector<std::unordered_map<BlockId, uint64_t, BlockIdHash>> disk_access_;
  mutable std::mutex digest_mu_;
  // One digest per engine, rebuilt on every OnJobStart. Under concurrent jobs
  // this is a race-free last-submitted-job approximation: policies see the
  // most recent job's reference counts/stage positions, which can only skew
  // eviction and prefetch choices (performance), never correctness — all
  // digest reads and writes stay behind digest_mu_.
  DependencyDigest digest_;
  // Prefetching overlaps with task execution (MRD's prefetcher is a
  // background component); one thread keeps sweeps ordered.
  std::unique_ptr<ThreadPool> prefetcher_;
};

}  // namespace blaze

#endif  // SRC_CACHE_POLICY_COORDINATOR_H_
