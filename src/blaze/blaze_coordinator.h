// The Blaze unified decision layer (paper §5): automatic partition-granular
// caching driven by the CostLineage, cost-aware eviction with a
// recompute-vs-spill choice per victim, timely auto-unpersisting, and an
// ILP-optimized partition-state plan recomputed at every job submission.
//
// The ablation flags reproduce §7.3's build-up:
//   +AutoCache  : auto_cache only (LRU victims, always spill)
//   +CostAware  : auto_cache + cost_aware_eviction (min-disk-cost victims,
//                 always spill)
//   Blaze       : all flags on (admission cost guard, recompute-vs-disk
//                 choice, ILP plan)
//   Blaze(MEM)  : use_disk = false (§7.4)
#ifndef SRC_BLAZE_BLAZE_COORDINATOR_H_
#define SRC_BLAZE_BLAZE_COORDINATOR_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/blaze/cost_lineage.h"
#include "src/blaze/cost_model.h"
#include "src/dataflow/cache_coordinator.h"
#include "src/dataflow/engine_context.h"

namespace blaze {

struct BlazeOptions {
  bool auto_cache = true;           // cache by future references, not annotations
  bool cost_aware_eviction = true;  // victims by potential cost, not LRU
  bool ilp = true;                  // ILP state plan + recompute-vs-disk choice
  bool use_disk = true;             // false = Blaze(MEM), no disk tier

  static BlazeOptions Full() { return BlazeOptions{}; }
  static BlazeOptions AutoCacheOnly() { return {true, false, false, true}; }
  static BlazeOptions CostAware() { return {true, true, false, true}; }
  static BlazeOptions MemoryOnly() { return {true, true, true, false}; }
};

class BlazeCoordinator : public CacheCoordinator {
 public:
  BlazeCoordinator(EngineContext* engine, BlazeOptions options);

  // Installs the structure captured by the dependency-extraction phase.
  void SeedProfile(const LineageProfile& profile);

  void OnJobStart(const JobInfo& job) override;
  void OnStageComplete(const StageInfo& stage) override;

  std::optional<BlockPtr> Lookup(const RddBase& rdd, uint32_t partition,
                                 TaskContext& tc) override;
  void BlockComputed(const RddBase& rdd, uint32_t partition, const BlockPtr& block,
                     double compute_ms, TaskContext& tc) override;
  bool IsManaged(const RddBase& rdd) const override;
  // Fusion consults this before eliding an intermediate block: mirrors
  // BlockComputed's admission gate (predicted future references in auto mode,
  // user annotation otherwise), so anything Blaze might cache materializes.
  bool IsCacheCandidate(const RddBase& rdd) const override;
  void UnpersistRdd(const RddBase& rdd) override;

  CostLineage& lineage() { return lineage_; }
  const BlazeOptions& options() const { return options_; }

 private:
  // Potential recovery cost used for victim ranking under the current flags.
  double VictimCost(CostEstimator& estimator, const BlockId& id) const;

  // Frees >= `needed` bytes on the executor. Victims are chosen and routed
  // (disk vs discard) per the ablation flags. In full-Blaze mode the eviction
  // aborts (returns false) if the displaced potential cost would exceed
  // `incoming_cost` (paper §4.1's admission comparison). Executor lock held.
  bool EnsureSpace(size_t executor, uint64_t needed, double incoming_cost, TaskContext& tc);

  // Spills or discards one resident victim; updates lineage state, metrics,
  // and the cache audit log (reason/score/candidates describe the decision).
  // The write goes through BlockManager::WriteBack; a synchronous fallback is
  // charged to `tc` when there is one. Returns false when the
  // eviction was refused because the victim is pinned by an executing task.
  bool EvictBlock(size_t executor, const MemoryEntry& victim, bool spill, TaskContext* tc,
                  const char* reason, double score, uint32_t candidates);

  // Solves the per-executor MCKP over the upcoming window and applies the
  // resulting state transitions (paper §5.5).
  void RunIlpPlan(int job_id);

  // Installs a planned disk->memory promotion whose disk read has finished.
  // Executor lock held. Skips a block that left the disk tier or came back to
  // memory while the read ran (an unpersist or an admission won the race).
  void PromoteLocked(size_t executor, const BlockId& id, BlockPtr block);

  // Timely removal of partitions with no remaining references (paper §5.6).
  void AutoUnpersist();

  double DiskThroughput() const;

  // Availability callback for the cost model; non-null only when the engine
  // runs with aggressive shuffle retention (otherwise outputs always persist).
  ShuffleAvailabilityFn MakeShuffleAvailability() const;

  EngineContext* engine_;
  BlazeOptions options_;
  CostLineage lineage_;
  std::vector<std::unique_ptr<std::mutex>> executor_mu_;

  // Serializes job-level planning (lineage observation + ILP solve + desired_
  // replacement) under concurrent OnJobStart callbacks: two interleaved plans
  // would otherwise clobber each other's desired_ map mid-install. Data-path
  // calls (Lookup/BlockComputed) deliberately do not take it.
  std::mutex plan_mu_;
  int last_planned_job_ = -1;  // contract assertion: job ids arrive fresh

  mutable std::mutex desired_mu_;
  // ILP-planned states for blocks not yet materialized, applied on admission.
  std::unordered_map<BlockId, PartitionState, BlockIdHash> desired_;
};

}  // namespace blaze

#endif  // SRC_BLAZE_BLAZE_COORDINATOR_H_
