#include "src/cache/policy_coordinator.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"
#include "src/dataflow/task_context.h"

namespace blaze {

PolicyCoordinator::PolicyCoordinator(EngineContext* engine,
                                     std::unique_ptr<EvictionPolicy> policy, EvictionMode mode)
    : engine_(engine), policy_(std::move(policy)), mode_(mode) {
  executor_mu_.reserve(engine->num_executors());
  for (size_t e = 0; e < engine->num_executors(); ++e) {
    executor_mu_.push_back(std::make_unique<std::mutex>());
  }
  disk_access_.resize(engine->num_executors());
}

void PolicyCoordinator::OnJobStart(const JobInfo& job) {
  std::lock_guard<std::mutex> lock(digest_mu_);
  digest_.ref_count.clear();
  digest_.next_use_stage.clear();
  digest_.current_stage = 0;
  for (const JobRddInfo& info : job.rdds) {
    digest_.ref_count[info.rdd->id()] = info.num_dependents_in_job;
    if (info.first_consumer_stage >= 0) {
      digest_.next_use_stage[info.rdd->id()] = info.first_consumer_stage;
    }
  }
}

void PolicyCoordinator::OnStageStart(const StageInfo& stage) {
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    digest_.current_stage = stage.stage_index;
  }
  if (!policy_->WantsPrefetch()) {
    return;
  }
  // MRD prefetch: pull disk-resident blocks the imminent stage will reference
  // back into memory, overlapping with task execution (no evictions for this).
  DependencyDigest digest_copy;
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    digest_copy = digest_;
  }
  if (prefetcher_ == nullptr) {
    prefetcher_ = std::make_unique<ThreadPool>(1, "mrd-prefetch");
  }
  prefetcher_->Submit(
      [this, digest_copy = std::move(digest_copy)] { PrefetchSweep(digest_copy); });
}

void PolicyCoordinator::PrefetchSweep(DependencyDigest digest_copy) {
  for (size_t e = 0; e < engine_->num_executors(); ++e) {
    BlockManager& bm = engine_->block_manager(e);
    // Candidate ids: every block on this executor's disk store is tracked via
    // the registry of datasets touched in this job.
    for (const auto& [rdd_id, next_stage] : digest_copy.next_use_stage) {
      auto rdd = engine_->FindRdd(rdd_id);
      if (rdd == nullptr || !policy_->ShouldPrefetch(rdd_id, digest_copy)) {
        continue;
      }
      for (uint32_t p = 0; p < rdd->num_partitions(); ++p) {
        if (engine_->ExecutorFor(p) != e) {
          continue;
        }
        const BlockId id{rdd_id, p};
        if (bm.memory().Contains(id) || !bm.disk().Contains(id)) {
          continue;
        }
        // The throttled read runs outside the executor lock, so admissions
        // on this executor never wait on the prefetcher's disk.
        double read_ms = 0.0;
        auto bytes = bm.ReadFromDisk(id, &read_ms);
        if (!bytes) {
          continue;
        }
        ByteSource src(*bytes);
        BlockPtr block = rdd->DecodeBlock(src);
        std::lock_guard<std::mutex> lock(*executor_mu_[e]);
        if (bm.memory().Contains(id) || !bm.disk().Contains(id)) {
          continue;  // a reader promoted it, or an unpersist dropped it
        }
        if (!PromoteLocked(e, *rdd, id, block, bm.memory().Tick(), /*tc=*/nullptr,
                           "mrd_prefetch")) {
          break;  // no free room on this executor; stop prefetching here
        }
      }
    }
  }
}

void PolicyCoordinator::OnStageComplete(const StageInfo& stage) {
  std::lock_guard<std::mutex> lock(digest_mu_);
  digest_.current_stage = stage.stage_index + 1;
}

std::optional<BlockPtr> PolicyCoordinator::Lookup(const RddBase& rdd, uint32_t partition,
                                                  TaskContext& tc) {
  const BlockId id{rdd.id(), partition};
  const size_t executor = engine_->ExecutorFor(partition);
  BlockManager& bm = engine_->block_manager(executor);
  if (auto hit = bm.memory().GetAndPin(id)) {
    // Pinned for the task's lifetime: eviction (RemoveIfUnpinned) cannot free
    // this data while the task still references it.
    tc.RegisterPin(executor, id);
    engine_->metrics().RecordCacheHit(/*from_memory=*/true);
    TRACE_EVENT("cache.hit", "cache", trace::TArg("rdd", id.rdd_id),
                trace::TArg("part", id.partition), trace::TArg("tier", "memory"));
    return hit;
  }
  // Evicted but not yet committed to disk: the spill queue's write-claim still
  // holds the live payload — serve it from memory instead of waiting for (or
  // re-reading) the disk write.
  if (auto in_flight = bm.InFlightSpill(id)) {
    engine_->metrics().RecordCacheHit(/*from_memory=*/true);
    TRACE_EVENT("cache.hit", "cache", trace::TArg("rdd", id.rdd_id),
                trace::TArg("part", id.partition), trace::TArg("tier", "spill_queue"));
    return in_flight;
  }
  if (mode_ == EvictionMode::kMemAndDisk) {
    double read_ms = 0.0;
    if (auto bytes = bm.ReadFromDisk(id, &read_ms)) {
      Stopwatch decode_watch;
      ByteSource src(*bytes);
      BlockPtr block = rdd.DecodeBlock(src);
      tc.metrics().cache_disk_ms += read_ms + decode_watch.ElapsedMillis();
      tc.metrics().cache_disk_bytes_read += bytes->size();
      engine_->metrics().RecordCacheHit(/*from_memory=*/false);
      TRACE_EVENT("cache.hit", "cache", trace::TArg("rdd", id.rdd_id),
                  trace::TArg("part", id.partition), trace::TArg("tier", "disk"));
      // Two-tier read: the task already holds the decoded block, so putting
      // it back into memory costs no further disk read.
      std::lock_guard<std::mutex> lock(*executor_mu_[executor]);
      // Re-checked under the lock: an unpersist that raced the read must not
      // see the block come back, and a concurrent reader may have promoted it.
      if (bm.disk().Contains(id) && !bm.memory().Contains(id)) {
        auto& accesses = disk_access_[executor];
        uint64_t& last_access = accesses[id];
        const uint64_t previous = last_access;
        last_access = bm.memory().Tick();
        PromoteLocked(executor, rdd, id, block, previous, &tc, "disk_hit_promote");
      }
      return block;
    }
  }
  TRACE_EVENT("cache.miss", "cache", trace::TArg("rdd", id.rdd_id),
              trace::TArg("part", id.partition));
  // Full miss: learning policies observe it as potential regret. (The policy
  // state is guarded by the digest mutex, like SelectVictim calls.)
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    policy_->OnCacheMiss(id);
  }
  return std::nullopt;
}

uint64_t PolicyCoordinator::CollectCandidates(BlockManager& bm, RddId incoming_rdd,
                                              uint32_t tenant,
                                              std::vector<MemoryEntry>* candidates,
                                              std::vector<MemoryEntry>* shared_hot) const {
  // Pinned entries are not eviction candidates: an executing task still
  // references them, and RemoveIfUnpinned would refuse anyway. In
  // multi-tenant mode the candidate set also honours the eviction floor
  // (another tenant's block is fair game only while that tenant is over its
  // arbiter share — a live-ledger check that stays consistent across
  // EnsureSpace rounds because each eviction updates the ledger immediately),
  // and cross-tenant-hot blocks (referenced by several tenants) are offered to
  // the policy only when nothing else can satisfy the request.
  const TenantRegistry* tenants = engine_->tenants();
  uint64_t evictable = 0;
  for (MemoryEntry& entry : bm.memory().Entries()) {
    if (entry.id.rdd_id == incoming_rdd || entry.pins > 0) {
      continue;
    }
    if (tenants != nullptr && !tenants->MayEvict(tenant, entry.tenant, bm.arbiter())) {
      continue;
    }
    evictable += entry.size_bytes;
    if (tenants != nullptr && tenants->TenantsReferencing(entry.id.rdd_id) > 1) {
      shared_hot->push_back(std::move(entry));
    } else {
      candidates->push_back(std::move(entry));
    }
  }
  return evictable;
}

bool PolicyCoordinator::EnsureSpace(size_t executor, uint64_t needed, RddId incoming_rdd,
                                    TaskContext& tc) {
  BlockManager& bm = engine_->block_manager(executor);
  for (;;) {
    // Read once per round: the bound moves under concurrent shuffle
    // reservations, and the feasibility check below must see the same value.
    const uint64_t free_bytes = bm.memory().free_bytes();
    if (free_bytes >= needed) {
      return true;
    }
    std::vector<MemoryEntry> candidates;
    std::vector<MemoryEntry> shared_hot;
    const uint64_t evictable =
        CollectCandidates(bm, incoming_rdd, tc.tenant(), &candidates, &shared_hot);
    // Feasibility first, like Spark's evictBlocksToFreeSpace: when even every
    // candidate together cannot make room, evict nothing (and let no policy
    // record a victim) instead of emptying the cache for a refused admission.
    if (free_bytes + evictable < needed) {
      return false;
    }
    if (candidates.empty()) {
      candidates = std::move(shared_hot);
    }
    size_t victim_index = 0;
    {
      std::lock_guard<std::mutex> lock(digest_mu_);
      victim_index = policy_->SelectVictim(candidates, digest_);
    }
    const MemoryEntry& victim = candidates[victim_index];
    const bool to_disk = mode_ == EvictionMode::kMemAndDisk;
    // The write is handed off before the memory entry goes away, so the
    // write-claim read-through has no gap.
    const auto written = to_disk ? bm.WriteBack(victim.id, victim.data, &tc.metrics())
                                 : BlockManager::WriteBackResult::kSkipped;
    if (bm.memory().RemoveIfUnpinned(victim.id) == 0) {
      // The victim got pinned (or removed) between the snapshot and now; its
      // payload stays resident, so the queued write is pointless. (A sync
      // write that already landed just leaves a redundant disk copy.)
      if (written == BlockManager::WriteBackResult::kQueued) {
        bm.CancelSpill(victim.id);
      }
      continue;  // re-snapshot and pick another victim
    }
    if (to_disk) {
      disk_access_[executor][victim.id] = victim.last_access_seq;
    }
    engine_->metrics().RecordEviction(executor, victim.size_bytes, to_disk);
    engine_->audit().Evict(static_cast<uint32_t>(executor), victim.id.rdd_id,
                           victim.id.partition, victim.size_bytes, to_disk, policy_->name(),
                           "capacity_pressure",
                           static_cast<double>(victim.last_access_seq),
                           static_cast<uint32_t>(candidates.size()), victim.tenant);
  }
}

void PolicyCoordinator::BlockComputed(const RddBase& rdd, uint32_t partition,
                                      const BlockPtr& block, double /*compute_ms*/,
                                      TaskContext& tc) {
  if (rdd.storage_level() == StorageLevel::kNone) {
    return;  // not annotated: transient data
  }
  const BlockId id{rdd.id(), partition};
  const size_t executor = engine_->ExecutorFor(partition);
  BlockManager& bm = engine_->block_manager(executor);
  std::lock_guard<std::mutex> lock(*executor_mu_[executor]);
  if (bm.memory().Contains(id)) {
    return;
  }
  // Representation selection: the cached copy may be converted (object rows
  // -> columnar) while the computing task keeps the row block it already
  // holds. Size, admission, and any disk write all use the cached form.
  const BlockPtr cached = rdd.CacheRepresentation(block);
  const uint64_t size = cached->SizeBytes();
  const uint32_t owner = ChargedTenant(rdd, tc.tenant());
  // TryPut, not Put: with the arbiter attached the cache bound moves under
  // concurrent shuffle reservations, so the headroom EnsureSpace freed can
  // legitimately be gone by the time the insert lands.
  const bool oversized = size > bm.memory().effective_capacity_bytes();
  if (!oversized && EnsureSpace(executor, size, rdd.id(), tc) &&
      bm.memory().TryPut(id, cached, size, owner)) {
    engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                           /*to_disk=*/false, policy_->name(), "annotated", owner);
    return;
  }
  // No room in memory: MEM_AND_DISK stores it straight on disk, through the
  // same write-claim path as an eviction (off the task thread, readable from
  // the spill queue until the write commits).
  if (mode_ != EvictionMode::kMemAndDisk) {
    return;
  }
  disk_access_[executor][id] = bm.memory().Tick();
  if (bm.WriteBack(id, cached, &tc.metrics()) != BlockManager::WriteBackResult::kSkipped) {
    engine_->metrics().RecordEviction(executor, size, /*to_disk=*/true);
    engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                           /*to_disk=*/true, policy_->name(),
                           oversized ? "exceeds_memory_capacity" : "no_evictable_room", owner);
  }
}

uint32_t PolicyCoordinator::ChargedTenant(const RddBase& rdd, uint32_t fallback) const {
  const TenantRegistry* tenants = engine_->tenants();
  if (tenants == nullptr) {
    return kNoTenant;
  }
  const uint32_t owner = tenants->OwnerOf(rdd.id());
  return owner != kNoTenant ? owner : fallback;
}

bool PolicyCoordinator::PromoteLocked(size_t executor, const RddBase& rdd, const BlockId& id,
                                      const BlockPtr& block, uint64_t recency,
                                      TaskContext* tc, const char* reason) {
  BlockManager& bm = engine_->block_manager(executor);
  const uint64_t size = block->SizeBytes();
  // Read once: the bound moves under concurrent shuffle reservations.
  const uint64_t free_bytes = bm.memory().free_bytes();
  const bool fits = size <= free_bytes;
  if (!fits && (tc == nullptr || size > bm.memory().effective_capacity_bytes())) {
    return false;
  }
  if (tc != nullptr) {
    std::vector<MemoryEntry> candidates;
    std::vector<MemoryEntry> shared_hot;
    CollectCandidates(bm, rdd.id(), tc->tenant(), &candidates, &shared_hot);
    if (candidates.empty()) {
      candidates = std::move(shared_hot);
    }
    // The gate ranks the block as if its reuse interval were twice as long:
    // it must come back within half the time a victim has sat idle. With the
    // bare recency test, a block an iterative job reads once per iteration
    // gets in over the blocks the previous iteration left idle (data the job
    // is about to unpersist), costing their write and a later eviction for
    // no memory hit; the margin keeps such a block on disk.
    const uint64_t reuse_interval = bm.memory().Tick() - recency;
    MemoryEntry incoming;
    incoming.id = id;
    incoming.size_bytes = size;
    incoming.last_access_seq = recency > reuse_interval ? recency - reuse_interval : 0;
    std::lock_guard<std::mutex> lock(digest_mu_);
    if (!policy_->ShouldPromote(incoming, candidates, fits ? 0 : size - free_bytes,
                                digest_)) {
      return false;
    }
  }
  const uint32_t owner = ChargedTenant(rdd, tc != nullptr ? tc->tenant() : kNoTenant);
  // Into free room the block goes at `recency`, its previous access, so the
  // next admission displaces this clean block (its disk copy makes that
  // eviction free) before anything it would have had to write. A block that
  // made room for itself counts as accessed now.
  const bool inserted =
      fits ? bm.memory().TryPut(id, block, size, owner, recency)
           : EnsureSpace(executor, size, rdd.id(), *tc) &&
                 bm.memory().TryPut(id, block, size, owner);
  if (!inserted) {
    return false;
  }
  disk_access_[executor].erase(id);
  if (tc != nullptr) {
    // The reading task holds this payload: pinned, its bytes stay on the
    // arbiter ledger until the task ends.
    if (bm.memory().Pin(id)) {
      tc->RegisterPin(executor, id);
    }
  }
  engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                         /*to_disk=*/false, policy_->name(), reason, owner);
  return true;
}

bool PolicyCoordinator::IsManaged(const RddBase& rdd) const {
  return rdd.storage_level() != StorageLevel::kNone;
}

void PolicyCoordinator::UnpersistRdd(const RddBase& rdd) {
  const TenantRegistry* tenants = engine_->tenants();
  const uint32_t owner = tenants != nullptr ? tenants->OwnerOf(rdd.id()) : kNoTenant;
  for (uint32_t p = 0; p < rdd.num_partitions(); ++p) {
    const size_t executor = engine_->ExecutorFor(p);
    std::lock_guard<std::mutex> lock(*executor_mu_[executor]);
    BlockManager& bm = engine_->block_manager(executor);
    const BlockId id{rdd.id(), p};
    const bool resident = bm.memory().Contains(id) || bm.disk().Contains(id) ||
                          bm.InFlightSpill(id).has_value();
    // Revoke any queued/in-flight spill first: a write committing after the
    // removal below would resurrect the unpersisted block on disk.
    bm.CancelSpill(id);
    bm.RemoveFromMemory(id);
    bm.RemoveFromDisk(id);
    disk_access_[executor].erase(id);
    if (resident) {
      engine_->audit().Unpersist(static_cast<uint32_t>(executor), id.rdd_id, id.partition,
                                 /*size_bytes=*/0, policy_->name(), "user_unpersist", owner);
    }
  }
}

}  // namespace blaze
