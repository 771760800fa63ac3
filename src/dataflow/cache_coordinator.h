// The engine's caching extension point.
//
// Existing systems split caching across three independent layers (user
// annotations, an eviction policy, and a fixed recovery mode); Blaze unifies
// them. Both designs plug into this single interface: the engine calls it on
// every block materialization and lookup, and the implementation owns all
// admit/evict/spill/discard decisions against the per-executor block managers.
#ifndef SRC_DATAFLOW_CACHE_COORDINATOR_H_
#define SRC_DATAFLOW_CACHE_COORDINATOR_H_

#include <cstdint>
#include <optional>

#include "src/dataflow/events.h"
#include "src/dataflow/rdd_base.h"
#include "src/storage/block.h"

namespace blaze {

class TaskContext;

// Thread-safety contract (event-driven scheduler, concurrent jobs):
//
//  * Every method may be called concurrently from any driver or executor
//    worker thread; implementations must synchronize their own state.
//  * Per-job ordering is guaranteed: OnJobStart(j) happens-before every
//    OnStageStart/OnStageComplete carrying job id j, which happen-before
//    OnJobEnd(j). OnStageStart(s) happens-before OnStageComplete(s) for the
//    same stage, and a stage's events happen-after the completion events of
//    its parent stages.
//  * Nothing is guaranteed *across* jobs: callbacks of different jobs
//    interleave arbitrarily (job B may start and finish between two stage
//    events of job A), and sibling stages of one job overlap, so two
//    OnStageStart calls of the same job can race. Skipped stages (shuffle
//    outputs already present) emit no stage events at all.
//  * Lifecycle events fire on whichever thread completes the triggering
//    event — OnJobStart on the submitting driver thread, stage/job
//    completions on the worker thread that finished the last task — so they
//    must never block on work scheduled behind them in the same pool.
//  * Data-path calls (Lookup/BlockComputed) come from many tasks of many
//    jobs at once; job ids are available via TaskContext::job_id().
class CacheCoordinator {
 public:
  virtual ~CacheCoordinator() = default;

  // --- scheduler lifecycle events -------------------------------------------------
  virtual void OnJobStart(const JobInfo& job) { (void)job; }
  virtual void OnJobEnd(int job_id) { (void)job_id; }
  virtual void OnStageStart(const StageInfo& stage) { (void)stage; }
  virtual void OnStageComplete(const StageInfo& stage) { (void)stage; }

  // --- data path -------------------------------------------------------------------
  // Returns the block from a cache tier (memory or disk) if resident, charging
  // any disk/(de)serialization time to `tc`. Never recomputes.
  virtual std::optional<BlockPtr> Lookup(const RddBase& rdd, uint32_t partition,
                                         TaskContext& tc) = 0;

  // Offered every time a task materializes a block (annotated or not). The
  // coordinator may admit it to memory (evicting victims as it sees fit),
  // write it to disk, or ignore it. `compute_ms` is the exclusive time it took
  // to produce this block.
  virtual void BlockComputed(const RddBase& rdd, uint32_t partition, const BlockPtr& block,
                             double compute_ms, TaskContext& tc) = 0;

  // True if a cache miss of this dataset counts as a *recovery* (the paper's
  // recomputation cost): i.e. the coordinator intended it to be resident.
  virtual bool IsManaged(const RddBase& rdd) const = 0;

  // True if the coordinator would want this dataset's blocks offered for
  // admission when they are computed. Operator fusion consults this before
  // eliding an intermediate: a candidate always materializes so the
  // coordinator sees its BlockComputed offers (Blaze's auto-caching hook).
  // Default: fuse through anything the coordinator doesn't manage.
  virtual bool IsCacheCandidate(const RddBase& rdd) const { return IsManaged(rdd); }

  // User annotation path: drop every partition of `rdd` from every tier.
  virtual void UnpersistRdd(const RddBase& rdd) = 0;

};

}  // namespace blaze

#endif  // SRC_DATAFLOW_CACHE_COORDINATOR_H_
