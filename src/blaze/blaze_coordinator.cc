#include "src/blaze/blaze_coordinator.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"
#include "src/dataflow/task_context.h"
#include "src/solver/mckp.h"

namespace blaze {

namespace {

// ILP horizon in jobs: the current job and the next one (paper §5.5 bounds
// the planned set J this way so each solve stays punctual).
constexpr int kWindowJobs = 2;

}  // namespace

BlazeCoordinator::BlazeCoordinator(EngineContext* engine, BlazeOptions options)
    : engine_(engine), options_(options) {
  for (size_t e = 0; e < engine->num_executors(); ++e) {
    executor_mu_.push_back(std::make_unique<std::mutex>());
  }
}

void BlazeCoordinator::SeedProfile(const LineageProfile& profile) {
  lineage_.SeedFromProfile(profile);
}

ShuffleAvailabilityFn BlazeCoordinator::MakeShuffleAvailability() const {
  if (engine_->config().shuffle_retention_jobs == 0) {
    return nullptr;  // outputs persist for the whole run
  }
  EngineContext* engine = engine_;
  return [engine](RddId role) {
    auto rdd = engine->FindRdd(role);
    if (rdd == nullptr) {
      return true;
    }
    for (const Dependency& dep : rdd->dependencies()) {
      if (dep.is_shuffle &&
          !engine->shuffle().HasAllOutputs(dep.shuffle_id, dep.parent->num_partitions(),
                                           dep.num_reduce)) {
        return false;
      }
    }
    return true;
  };
}

double BlazeCoordinator::DiskThroughput() const {
  // Profiled at runtime from the real disk stores (paper §5.3); executor 0 is
  // representative since all stores share the configured device profile.
  return engine_->block_manager(0).disk().ObservedThroughput();
}

void BlazeCoordinator::OnJobStart(const JobInfo& job) {
  // One job's planning round at a time (see plan_mu_): concurrent submissions
  // queue here, so the lineage observes whole jobs and the desired_ plan is
  // always the product of a single consistent solve.
  std::lock_guard<std::mutex> lock(plan_mu_);
  BLAZE_CHECK_NE(job.job_id, last_planned_job_)
      << "OnJobStart for job " << job.job_id << " delivered twice";
  last_planned_job_ = job.job_id;
  lineage_.ObserveJobStart(job);
  if (options_.ilp) {
    TRACE_SCOPE("ilp.plan", "cache", trace::TArg("job", job.job_id));
    Stopwatch watch;
    RunIlpPlan(job.job_id);
    engine_->metrics().RecordSolve(watch.ElapsedMillis());
  }
}

void BlazeCoordinator::OnStageComplete(const StageInfo& stage) {
  (void)stage;
  if (options_.auto_cache) {
    AutoUnpersist();
  }
}

std::optional<BlockPtr> BlazeCoordinator::Lookup(const RddBase& rdd, uint32_t partition,
                                                 TaskContext& tc) {
  const BlockId id{rdd.id(), partition};
  const size_t executor = engine_->ExecutorFor(partition);
  BlockManager& bm = engine_->block_manager(executor);
  if (auto hit = bm.memory().GetAndPin(id)) {
    // Pinned until the task ends: eviction cannot free it mid-task.
    tc.RegisterPin(executor, id);
    engine_->metrics().RecordCacheHit(/*from_memory=*/true);
    TRACE_EVENT("cache.hit", "cache", trace::TArg("rdd", id.rdd_id),
                trace::TArg("part", id.partition), trace::TArg("tier", "memory"));
    return hit;
  }
  // Eviction write still in flight: serve the live payload from the spill
  // queue's write-claim instead of paying a disk read or a recompute.
  if (auto in_flight = bm.InFlightSpill(id)) {
    engine_->metrics().RecordCacheHit(/*from_memory=*/true);
    TRACE_EVENT("cache.hit", "cache", trace::TArg("rdd", id.rdd_id),
                trace::TArg("part", id.partition), trace::TArg("tier", "spill_queue"));
    return in_flight;
  }
  if (options_.use_disk) {
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
      return block;
    }
  }
  TRACE_EVENT("cache.miss", "cache", trace::TArg("rdd", id.rdd_id),
              trace::TArg("part", id.partition));
  return std::nullopt;
}

double BlazeCoordinator::VictimCost(CostEstimator& estimator, const BlockId& id) const {
  if (options_.ilp &&
      lineage_.FutureRefCount(id.rdd_id, lineage_.current_job(),
                              /*include_current=*/false) == 0) {
    // No accesses after the current job: the recovery cost can never be paid
    // (Eq. 5 only prices partitions used by upcoming jobs), so this block is
    // a free victim.
    return 0.0;
  }
  const BlockCost cost = estimator.Estimate(id.rdd_id, id.partition);
  if (options_.ilp) {
    return cost.recovery_ms;  // full Blaze: min(disk, recompute)
  }
  if (options_.cost_aware_eviction) {
    return cost.cost_d_ms;  // +CostAware: smallest disk-access cost first
  }
  return 0.0;  // +AutoCache: cost-agnostic (LRU below)
}

bool BlazeCoordinator::EvictBlock(size_t executor, const MemoryEntry& victim, bool spill,
                                  TaskContext* tc, const char* reason, double score,
                                  uint32_t candidates) {
  BlockManager& bm = engine_->block_manager(executor);
  const bool to_disk = spill && options_.use_disk;
  const auto written = to_disk ? bm.WriteBack(victim.id, victim.data,
                                              tc != nullptr ? &tc->metrics() : nullptr)
                               : BlockManager::WriteBackResult::kSkipped;
  if (bm.memory().RemoveIfUnpinned(victim.id) == 0) {
    // Pinned by an executing task (or already gone): eviction refused; the
    // queued write would only duplicate a still-resident block.
    if (written == BlockManager::WriteBackResult::kQueued) {
      bm.CancelSpill(victim.id);
    }
    return false;
  }
  lineage_.SetState(victim.id.rdd_id, victim.id.partition,
                    to_disk ? PartitionState::kDisk : PartitionState::kNone);
  engine_->metrics().RecordEviction(executor, victim.size_bytes, to_disk);
  engine_->audit().Evict(static_cast<uint32_t>(executor), victim.id.rdd_id,
                         victim.id.partition, victim.size_bytes, to_disk,
                         options_.cost_aware_eviction ? "BlazeCost" : "BlazeLRU", reason,
                         score, candidates, victim.tenant);
  return true;
}

bool BlazeCoordinator::EnsureSpace(size_t executor, uint64_t needed, double incoming_cost,
                                   TaskContext& tc) {
  BlockManager& bm = engine_->block_manager(executor);
  if (bm.memory().effective_capacity_bytes() < needed) {
    return false;
  }
  uint64_t free_bytes = bm.memory().free_bytes();
  if (free_bytes >= needed) {
    return true;
  }

  std::vector<MemoryEntry> entries = bm.memory().Entries();
  CostEstimator estimator(&lineage_, DiskThroughput(), options_.use_disk,
                          MakeShuffleAvailability());

  // Rank victims: cheapest potential recovery first (cost-aware modes) or LRU
  // (+AutoCache). Then take victims until the incoming block fits. Pinned
  // entries are excluded: an executing task still references them and
  // RemoveIfUnpinned would refuse the eviction anyway. In multi-tenant mode
  // blocks referenced by more than one tenant ("cross-tenant hot") sort
  // behind everything else, so they are the last candidates any scan touches.
  const TenantRegistry* tenants = engine_->tenants();
  std::vector<std::tuple<int, double, size_t>> order;
  order.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].pins > 0) {
      continue;
    }
    const double cost = options_.cost_aware_eviction
                            ? VictimCost(estimator, entries[i].id)
                            : static_cast<double>(entries[i].last_access_seq);
    const int shared_hot =
        tenants != nullptr && tenants->TenantsReferencing(entries[i].id.rdd_id) > 1 ? 1 : 0;
    order.emplace_back(shared_hot, cost, i);
  }
  std::sort(order.begin(), order.end());

  // Eviction floor (tentpole invariant): a scan on behalf of `requester` may
  // reclaim another tenant's bytes only down to that tenant's share. The
  // per-victim-tenant budget starts at the tenant's live borrowed (over-share)
  // bytes and shrinks as victims accumulate, so one batched scan cannot
  // select a victim set that would dip below any tenant's floor.
  const uint32_t requester = tc.tenant();
  std::unordered_map<uint32_t, uint64_t> borrow_budget;
  const MemoryArbiter& arbiter = bm.arbiter();
  const auto floor_allows = [&](const MemoryEntry& entry) {
    if (tenants == nullptr) {
      return true;
    }
    const uint32_t victim_tenant = entry.tenant;
    if (victim_tenant == kNoTenant || victim_tenant == requester) {
      return true;
    }
    auto [it, inserted] =
        borrow_budget.try_emplace(victim_tenant, arbiter.TenantBorrowedBytes(victim_tenant));
    if (it->second == 0) {
      return false;  // at or under its share: the floor holds
    }
    it->second -= std::min<uint64_t>(it->second, entry.size_bytes);
    return true;
  };

  std::vector<size_t> victims;
  uint64_t reclaimed = 0;
  double displaced_cost = 0.0;
  for (const auto& [shared_hot, cost, index] : order) {
    if (free_bytes + reclaimed >= needed) {
      break;
    }
    if (!floor_allows(entries[index])) {
      continue;
    }
    victims.push_back(index);
    reclaimed += entries[index].size_bytes;
    if (options_.cost_aware_eviction) {
      displaced_cost += VictimCost(estimator, entries[index].id);
    }
  }
  if (free_bytes + reclaimed < needed) {
    return false;
  }
  // Paper §4.1: cache only if the incoming block's potential cost exceeds what
  // the eviction would expose (full Blaze only).
  if (options_.ilp && displaced_cost >= incoming_cost) {
    return false;
  }

  for (size_t index : victims) {
    const MemoryEntry& victim = entries[index];
    bool spill = options_.use_disk;
    if (options_.ilp && spill) {
      // Unified recovery choice: write to disk only when reloading would be
      // cheaper than recomputing (paper §4.2).
      const BlockCost cost = estimator.Estimate(victim.id.rdd_id, victim.id.partition);
      spill = cost.cost_d_ms < cost.cost_r_ms;
    }
    const double score = options_.cost_aware_eviction
                             ? VictimCost(estimator, victim.id)
                             : static_cast<double>(victim.last_access_seq);
    EvictBlock(executor, victim, spill, &tc, "displaced_by_admission", score,
               static_cast<uint32_t>(entries.size()));
  }
  // Re-check: an eviction may have been refused (victim pinned after the
  // snapshot) or the arbiter bound may have shifted under shuffle pressure.
  return bm.memory().free_bytes() >= needed;
}

void BlazeCoordinator::BlockComputed(const RddBase& rdd, uint32_t partition,
                                     const BlockPtr& block, double compute_ms,
                                     TaskContext& tc) {
  lineage_.ObserveBlockComputed(rdd.id(), partition, block->SizeBytes(), compute_ms);

  // Candidate selection: future references (auto mode) or user annotation.
  if (options_.auto_cache) {
    if (lineage_.FutureRefCount(rdd.id(), lineage_.current_job(), /*include_current=*/true) ==
        0) {
      return;
    }
  } else if (rdd.storage_level() == StorageLevel::kNone) {
    return;
  }

  const BlockId id{rdd.id(), partition};
  const size_t executor = engine_->ExecutorFor(partition);

  PartitionState desired = PartitionState::kMemory;
  bool planned = false;
  if (options_.ilp) {
    std::lock_guard<std::mutex> lock(desired_mu_);
    auto it = desired_.find(id);
    if (it != desired_.end()) {
      desired = it->second;
      planned = true;
    }
  }
  if (desired == PartitionState::kNone) {
    return;
  }

  std::lock_guard<std::mutex> lock(*executor_mu_[executor]);
  BlockManager& bm = engine_->block_manager(executor);
  if (bm.memory().Contains(id)) {
    return;
  }
  // Representation selection: the cached copy may be converted (object rows
  // -> columnar) while the computing task keeps the row block it already
  // holds. Size, admission, and the disk tier all use the cached form; the
  // lineage observed the row-block size above, and the two are pinned within
  // tolerance so MCKP size terms do not shift with representation.
  const BlockPtr cached = rdd.CacheRepresentation(block);
  const uint64_t size = cached->SizeBytes();

  CostEstimator estimator(&lineage_, DiskThroughput(), options_.use_disk,
                          MakeShuffleAvailability());
  const BlockCost cost = estimator.Estimate(rdd.id(), partition);

  // Multi-tenant charging: the cached bytes land on the dataset owner's
  // ledger (first-toucher; shared datasets are charged once), falling back to
  // the computing task's tenant for datasets the registry has not seen.
  uint32_t owner = kNoTenant;
  if (const TenantRegistry* tenants = engine_->tenants(); tenants != nullptr) {
    owner = tenants->OwnerOf(rdd.id());
    if (owner == kNoTenant) {
      owner = tc.tenant();
    }
  }

  // A memory placement decided by the ILP plan was already justified against
  // the whole executor's universe, so the local admission comparison is
  // bypassed (incoming cost treated as unbeatable).
  const double admission_cost =
      planned ? std::numeric_limits<double>::infinity() : cost.recovery_ms;
  const bool want_memory = desired == PartitionState::kMemory;
  // TryPut, not Put: with the arbiter attached the bound can shrink between
  // EnsureSpace and the insert as concurrent shuffle reservations land.
  if (want_memory && EnsureSpace(executor, size, admission_cost, tc) &&
      bm.memory().TryPut(id, cached, size, owner)) {
    lineage_.SetState(rdd.id(), partition, PartitionState::kMemory);
    engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                           /*to_disk=*/false, "Blaze",
                           planned ? "ilp_planned" : "admission_cost_won", owner);
    return;
  }

  // Not admitted to memory: choose the disk tier only when it pays off.
  bool spill = options_.use_disk;
  if (spill && options_.ilp && desired != PartitionState::kDisk) {
    spill = cost.cost_d_ms < cost.cost_r_ms;
  }
  // Until an off-path write commits, lookups are served from the spill
  // queue's write-claim.
  if (spill && bm.WriteBack(id, cached, &tc.metrics()) !=
                   BlockManager::WriteBackResult::kSkipped) {
    lineage_.SetState(rdd.id(), partition, PartitionState::kDisk);
    engine_->metrics().RecordEviction(executor, size, /*to_disk=*/true);
    engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                           /*to_disk=*/true, "Blaze",
                           planned ? "ilp_planned_disk" : "disk_cheaper_than_recompute",
                           owner);
  }
}

bool BlazeCoordinator::IsManaged(const RddBase& rdd) const {
  if (!options_.auto_cache) {
    return rdd.storage_level() != StorageLevel::kNone;
  }
  // Managed = the lineage has ever predicted a reuse for this dataset's class.
  return lineage_.FutureRefCount(rdd.id(), -1, /*include_current=*/false) > 0;
}

bool BlazeCoordinator::IsCacheCandidate(const RddBase& rdd) const {
  if (!options_.auto_cache) {
    return rdd.storage_level() != StorageLevel::kNone;
  }
  return lineage_.FutureRefCount(rdd.id(), lineage_.current_job(), /*include_current=*/true) >
         0;
}

void BlazeCoordinator::UnpersistRdd(const RddBase& rdd) {
  if (options_.auto_cache) {
    return;  // Blaze manages lifetimes itself; user annotations are ignored.
  }
  const TenantRegistry* tenants = engine_->tenants();
  const uint32_t owner = tenants != nullptr ? tenants->OwnerOf(rdd.id()) : kNoTenant;
  for (uint32_t p = 0; p < rdd.num_partitions(); ++p) {
    const size_t executor = engine_->ExecutorFor(p);
    std::lock_guard<std::mutex> lock(*executor_mu_[executor]);
    BlockManager& bm = engine_->block_manager(executor);
    const BlockId id{rdd.id(), p};
    const bool resident = bm.memory().Contains(id) || bm.disk().Contains(id) ||
                          bm.InFlightSpill(id).has_value();
    // Revoke any in-flight spill first so a late commit cannot resurrect the
    // unpersisted block on disk.
    bm.CancelSpill(id);
    bm.RemoveFromMemory(id);
    bm.RemoveFromDisk(id);
    lineage_.SetState(rdd.id(), p, PartitionState::kNone);
    if (resident) {
      engine_->audit().Unpersist(static_cast<uint32_t>(executor), id.rdd_id, id.partition,
                                 /*size_bytes=*/0, "Blaze", "user_unpersist", owner);
    }
  }
}

void BlazeCoordinator::AutoUnpersist() {
  const int now = lineage_.current_job();
  for (size_t e = 0; e < engine_->num_executors(); ++e) {
    std::lock_guard<std::mutex> lock(*executor_mu_[e]);
    BlockManager& bm = engine_->block_manager(e);
    for (const MemoryEntry& entry : bm.memory().Entries()) {
      if (lineage_.FutureRefCount(entry.id.rdd_id, now, /*include_current=*/true) == 0) {
        bm.CancelSpill(entry.id);
        bm.memory().Remove(entry.id);
        lineage_.SetState(entry.id.rdd_id, entry.id.partition, PartitionState::kNone);
        engine_->metrics().RecordUnpersist();
        engine_->audit().Unpersist(static_cast<uint32_t>(e), entry.id.rdd_id,
                                   entry.id.partition, entry.size_bytes, "Blaze",
                                   "refcount_zero", entry.tenant);
      }
    }
    for (const BlockId& id : bm.disk().Blocks()) {
      if (lineage_.FutureRefCount(id.rdd_id, now, /*include_current=*/true) == 0) {
        bm.CancelSpill(id);
        bm.RemoveFromDisk(id);
        lineage_.SetState(id.rdd_id, id.partition, PartitionState::kNone);
        engine_->metrics().RecordUnpersist();
        engine_->audit().Unpersist(static_cast<uint32_t>(e), id.rdd_id, id.partition,
                                   /*size_bytes=*/0, "Blaze", "refcount_zero");
      }
    }
  }
}

void BlazeCoordinator::RunIlpPlan(int job_id) {
  // Universe: cache-candidate partitions referenced in the window plus
  // everything resident. Single-use transients (no future references) are
  // excluded — they are never cached, so letting them occupy zero-cost memory
  // choices would only crowd out the real candidates (Eq. 5 optimizes over
  // the partitions "to be used in our upcoming jobs").
  std::vector<RddId> window_roles;
  for (int j = job_id; j < job_id + kWindowJobs; ++j) {
    for (RddId role : lineage_.RolesReferencedIn(j)) {
      if (lineage_.FutureRefCount(role, job_id, /*include_current=*/true) > 0) {
        window_roles.push_back(role);
      }
    }
  }
  std::sort(window_roles.begin(), window_roles.end());
  window_roles.erase(std::unique(window_roles.begin(), window_roles.end()),
                     window_roles.end());

  std::unordered_map<BlockId, PartitionState, BlockIdHash> new_desired;
  const TenantRegistry* tenants = engine_->tenants();

  for (size_t e = 0; e < engine_->num_executors(); ++e) {
    std::lock_guard<std::mutex> lock(*executor_mu_[e]);
    BlockManager& bm = engine_->block_manager(e);

    // Assemble the per-executor universe.
    std::vector<BlockId> universe;
    std::unordered_map<BlockId, PartitionState, BlockIdHash> current_state;
    for (const MemoryEntry& entry : bm.memory().Entries()) {
      universe.push_back(entry.id);
      current_state[entry.id] = PartitionState::kMemory;
    }
    for (const BlockId& id : bm.disk().Blocks()) {
      if (!current_state.contains(id)) {
        universe.push_back(id);
        current_state[id] = PartitionState::kDisk;
      }
    }
    for (RddId role : window_roles) {
      const LineageNode* node = lineage_.GetNode(role);
      if (node == nullptr) {
        continue;
      }
      for (uint32_t p = 0; p < node->num_partitions; ++p) {
        if (engine_->ExecutorFor(p) != e) {
          continue;
        }
        const BlockId id{role, p};
        if (!current_state.contains(id)) {
          universe.push_back(id);
          current_state[id] = PartitionState::kNone;
        }
      }
    }
    if (universe.empty()) {
      continue;
    }

    // Multi-tenant partitioning: one knapsack per owning tenant, each solved
    // against the tenant's effective capacity — its arbiter share plus the
    // headroom the explicit shares leave unclaimed (work-conserving
    // borrowing). A dataset referenced by several tenants is charged once, to
    // its owner's knapsack, so no block is double-counted across solves.
    // Without a registry everything lands in one untenanted bucket with the
    // whole executor capacity: byte-for-byte the single-tenant plan.
    struct Bucket {
      uint32_t tenant = kNoTenant;
      std::vector<BlockId> ids;
      double capacity = 0.0;
    };
    std::vector<Bucket> buckets;
    if (tenants == nullptr) {
      Bucket all;
      all.ids = std::move(universe);
      all.capacity = static_cast<double>(bm.memory().capacity_bytes());
      buckets.push_back(std::move(all));
    } else {
      const MemoryArbiter& arbiter = bm.arbiter();
      const uint64_t cap = bm.memory().capacity_bytes();
      uint64_t claimed = 0;
      for (uint32_t t = 0; t < tenants->num_tenants(); ++t) {
        claimed += arbiter.TenantShareBytes(t);
      }
      const uint64_t headroom = cap > claimed ? cap - claimed : 0;
      std::unordered_map<uint32_t, size_t> bucket_index;
      for (const BlockId& id : universe) {
        const uint32_t owner = tenants->OwnerOf(id.rdd_id);
        auto [it, inserted] = bucket_index.try_emplace(owner, buckets.size());
        if (inserted) {
          Bucket bucket;
          bucket.tenant = owner;
          bucket.capacity = owner == kNoTenant
                                ? static_cast<double>(cap)
                                : static_cast<double>(arbiter.TenantShareBytes(owner) +
                                                      headroom);
          buckets.push_back(std::move(bucket));
        }
        buckets[it->second].ids.push_back(id);
      }
    }

    for (Bucket& bucket : buckets) {
      // Build and solve the MCKP: one group per partition with (memory, disk,
      // unpersist) choices (paper Eq. 5-6; see src/solver/mckp.h for the
      // reduction). Two fixed-point rounds: the second round re-prices cost_r
      // as if the first round's plan were applied, so chained recomputation
      // costs of co-dropped partitions are visible (paper §5.5).
      CostEstimator round_estimator(&lineage_, DiskThroughput(), options_.use_disk,
                                    MakeShuffleAvailability());
      // Residents whose last reference is the current job will be auto-
      // unpersisted before the window's later accesses happen: price downstream
      // recomputations as if they were already gone.
      for (const auto& [resident_id, state] : current_state) {
        if (state != PartitionState::kNone &&
            lineage_.FutureRefCount(resident_id.rdd_id, job_id,
                                    /*include_current=*/false) == 0) {
          round_estimator.OverrideState(resident_id.rdd_id, resident_id.partition,
                                        PartitionState::kNone);
        }
      }
      MckpSolution solution;
      std::vector<BlockId> group_ids;
      Stopwatch solve_watch;
      const uint64_t solve_start_us = trace::Enabled() ? ProcessMicros() : 0;
      constexpr int kFixedPointRounds = 2;
      for (int round = 0; round < kFixedPointRounds; ++round) {
        std::vector<MckpGroup> groups;
        groups.reserve(bucket.ids.size());
        group_ids.clear();
        for (const BlockId& id : bucket.ids) {
          const auto info = lineage_.GetPartition(id.rdd_id, id.partition);
          if (!info || info->size_bytes == 0) {
            continue;  // no size estimate yet; leave to admission-time handling
          }
          const BlockCost cost = round_estimator.Estimate(id.rdd_id, id.partition);
          MckpGroup group;
          group.choices.push_back({0.0, static_cast<double>(info->size_bytes)});  // m
          if (options_.use_disk) {
            // Writing to disk costs an extra pass when the copy does not exist yet.
            const double write_factor =
                current_state[id] == PartitionState::kDisk ? 1.0 : 2.0;
            group.choices.push_back({cost.cost_d_ms * write_factor, 0.0});  // d
          }
          group.choices.push_back({cost.cost_r_ms, 0.0});  // u
          groups.push_back(std::move(group));
          group_ids.push_back(id);
        }
        if (groups.empty()) {
          break;
        }
        // Latency-bounded solve: a 0.2% optimality gap and node cap keep each
        // per-job decision round in the low milliseconds (paper's ILP budget).
        solution = SolveMckp(groups, bucket.capacity,
                             /*max_nodes=*/4000, /*relative_gap=*/0.002);
        if (solution.status == MckpStatus::kInfeasible || round + 1 == kFixedPointRounds) {
          break;
        }
        for (size_t g = 0; g < group_ids.size(); ++g) {
          PartitionState planned_state = PartitionState::kNone;
          if (solution.choice[g] == 0) {
            planned_state = PartitionState::kMemory;
          } else if (options_.use_disk && solution.choice[g] == 1) {
            planned_state = PartitionState::kDisk;
          }
          round_estimator.OverrideState(group_ids[g].rdd_id, group_ids[g].partition,
                                        planned_state);
        }
      }
      const double solve_ms = solve_watch.ElapsedMillis();
      uint32_t chose_memory = 0;
      uint32_t chose_disk = 0;
      uint32_t chose_drop = 0;
      if (solution.status != MckpStatus::kInfeasible) {
        for (size_t g = 0; g < group_ids.size(); ++g) {
          if (solution.choice[g] == 0) {
            ++chose_memory;
          } else if (options_.use_disk && solution.choice[g] == 1) {
            ++chose_disk;
          } else {
            ++chose_drop;
          }
        }
      }
      const char* status = solution.status == MckpStatus::kOptimal     ? "optimal"
                           : solution.status == MckpStatus::kNodeLimit ? "node_limit"
                                                                       : "infeasible";
      if (!group_ids.empty()) {
        engine_->audit().IlpSolve(static_cast<uint32_t>(e), job_id,
                                  static_cast<uint32_t>(group_ids.size()), chose_memory,
                                  chose_disk, chose_drop, solve_ms, "MCKP", status,
                                  bucket.tenant);
        if (solve_start_us != 0 && trace::Enabled()) {
          trace::Complete("ilp.solve", "cache", solve_start_us, trace::TArg("job", job_id),
                          trace::TArg("executor", static_cast<uint64_t>(e)),
                          trace::TArg("universe", static_cast<uint64_t>(group_ids.size())),
                          trace::TArg("status", status));
        }
      }
      if (group_ids.empty() || solution.status == MckpStatus::kInfeasible) {
        continue;
      }

      // Decode choices back to states and apply the transitions. Demotions run
      // before promotions so the capacity plan is respected.
      std::vector<std::pair<BlockId, PartitionState>> plan;
      for (size_t g = 0; g < group_ids.size(); ++g) {
        PartitionState state = PartitionState::kNone;
        const int choice = solution.choice[g];
        if (choice == 0) {
          state = PartitionState::kMemory;
        } else if (options_.use_disk && choice == 1) {
          state = PartitionState::kDisk;
        }
        plan.emplace_back(group_ids[g], state);
      }
      std::stable_sort(plan.begin(), plan.end(), [](const auto& a, const auto& b) {
        return (a.second == PartitionState::kMemory) < (b.second == PartitionState::kMemory);
      });

      for (const auto& [id, state] : plan) {
        const PartitionState current = current_state[id];
        if (current == state) {
          continue;
        }
        if (current == PartitionState::kMemory) {
          auto data = bm.memory().Peek(id);
          if (!data) {
            continue;
          }
          MemoryEntry victim;
          victim.id = id;
          victim.data = *data;
          victim.size_bytes = (*data)->SizeBytes();
          EvictBlock(e, victim, /*spill=*/state == PartitionState::kDisk, nullptr,
                     "ilp_demote", /*score=*/0.0, static_cast<uint32_t>(group_ids.size()));
        } else if (current == PartitionState::kDisk) {
          if (state == PartitionState::kNone) {
            bm.RemoveFromDisk(id);
            lineage_.SetState(id.rdd_id, id.partition, PartitionState::kNone);
            engine_->metrics().RecordUnpersist();
            engine_->audit().Unpersist(static_cast<uint32_t>(e), id.rdd_id, id.partition,
                                       /*size_bytes=*/0, "MCKP", "ilp_drop");
          } else if (lineage_.FutureRefCount(id.rdd_id, job_id, /*include_current=*/true) ==
                     0) {
            // Past its last reader: the stage-end refcount_zero unpersist
            // drops it, so a disk read now would only be thrown away.
            continue;
          } else {
            // d -> m prefetch: reload if the dataset is still alive and it
            // fits. Scheduled on the spill worker so the disk read overlaps
            // with the planning round and the job's first tasks; a refused
            // enqueue (full queue) reads here, under the lock.
            auto rdd = engine_->FindRdd(id.rdd_id);
            if (rdd == nullptr) {
              continue;
            }
            auto promote = [this, e, id, rdd](std::optional<std::vector<uint8_t>> bytes,
                                              double /*disk_ms*/) {
              if (!bytes) {
                return;  // lost or corrupt on disk; admission re-plans later
              }
              ByteSource src(*bytes);
              BlockPtr block = rdd->DecodeBlock(src);
              std::lock_guard<std::mutex> lock(*executor_mu_[e]);
              PromoteLocked(e, id, std::move(block));
            };
            if (!bm.FetchAsync(id, promote)) {
              double read_ms = 0.0;
              if (auto bytes = bm.ReadFromDisk(id, &read_ms)) {
                ByteSource src(*bytes);
                PromoteLocked(e, id, rdd->DecodeBlock(src));
              }
            }
          }
        } else {
          // Absent: remember the plan; admission applies it on materialization.
          new_desired[id] = state;
        }
      }
    }
  }

  std::lock_guard<std::mutex> lock(desired_mu_);
  desired_ = std::move(new_desired);
}

void BlazeCoordinator::PromoteLocked(size_t executor, const BlockId& id, BlockPtr block) {
  BlockManager& bm = engine_->block_manager(executor);
  if (!bm.disk().Contains(id) || bm.memory().Contains(id)) {
    return;
  }
  const uint64_t size = block->SizeBytes();
  // Charged like an admission: the dataset owner's ledger, so the block is
  // covered by that tenant's eviction floor.
  const TenantRegistry* tenants = engine_->tenants();
  const uint32_t owner = tenants != nullptr ? tenants->OwnerOf(id.rdd_id) : kNoTenant;
  // TryPut enforces the (possibly shifted) bound atomically.
  if (bm.memory().TryPut(id, std::move(block), size, owner)) {
    bm.RemoveFromDisk(id);
    lineage_.SetState(id.rdd_id, id.partition, PartitionState::kMemory);
    engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                           /*to_disk=*/false, "MCKP", "ilp_promote", owner);
  }
}

}  // namespace blaze
