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

  // Runs one prefetch sweep (MRD); executed on the background prefetcher.
  void PrefetchSweep(DependencyDigest digest);

  EngineContext* engine_;
  std::unique_ptr<EvictionPolicy> policy_;
  EvictionMode mode_;
  std::vector<std::unique_ptr<std::mutex>> executor_mu_;
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
