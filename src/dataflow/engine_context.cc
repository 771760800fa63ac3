#include "src/dataflow/engine_context.h"

#include <algorithm>
#include <cstdlib>
#include <random>
#include <utility>

#include "src/common/block_arena.h"
#include "src/common/logging.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/metrics/exporter.h"
#include "src/metrics/registry.h"

namespace blaze {

namespace {

// Cache-decision audit records retained per executor (flight-recorder ring).
constexpr size_t kAuditRecordsPerExecutor = 4096;

// Default coordinator: caches nothing. Real deployments install the
// annotation-following policy coordinator (src/cache) or Blaze (src/blaze).
class NoopCoordinator : public CacheCoordinator {
 public:
  std::optional<BlockPtr> Lookup(const RddBase&, uint32_t, TaskContext&) override {
    return std::nullopt;
  }
  void BlockComputed(const RddBase&, uint32_t, const BlockPtr&, double, TaskContext&) override {}
  bool IsManaged(const RddBase&) const override { return false; }
  void UnpersistRdd(const RddBase&) override {}
};

std::filesystem::path MakeUniqueDiskRoot() {
  std::random_device rd;
  const auto tag = static_cast<uint64_t>(rd()) << 32 | rd();
  return std::filesystem::temp_directory_path() / ("blaze_engine_" + std::to_string(tag));
}

}  // namespace

EngineContext::EngineContext(const EngineConfig& config)
    : config_(config),
      metrics_(config.num_executors),
      audit_(config.num_executors, kAuditRecordsPerExecutor) {
  BLAZE_CHECK_GT(config.num_executors, 0u);
  if (config.disk_root.empty()) {
    disk_root_ = MakeUniqueDiskRoot();
    owns_disk_root_ = true;
  } else {
    disk_root_ = config.disk_root;
  }
  executors_.reserve(config.num_executors);
  for (size_t e = 0; e < config.num_executors; ++e) {
    BlockManagerConfig bm_config;
    bm_config.memory_capacity_bytes = config.memory_capacity_per_executor;
    bm_config.disk_dir = disk_root_ / ("executor_" + std::to_string(e));
    bm_config.disk_throughput_bytes_per_sec = config.disk_throughput_bytes_per_sec;
    executors_.push_back(
        std::make_unique<Executor>(e, bm_config, &metrics_, config.threads_per_executor));
  }
  // One byte ledger per executor: shuffle buckets charge the arbiter of the
  // executor that wrote them, shrinking that executor's cache bound.
  std::vector<MemoryArbiter*> arbiters;
  arbiters.reserve(executors_.size());
  for (auto& executor : executors_) {
    arbiters.push_back(&executor->block_manager.arbiter());
  }
  shuffle_.AttachArbiters(std::move(arbiters));
  checkpoint_store_ = std::make_unique<DiskStore>(disk_root_ / "checkpoints",
                                                  config.disk_throughput_bytes_per_sec);
  coordinator_ = std::make_unique<NoopCoordinator>();
  if (config_.multi_tenant) {
    tenants_ = std::make_unique<TenantRegistry>(config_.tenants,
                                                config_.memory_capacity_per_executor,
                                                executors_.size());
    // Install the share split into every executor's arbiter ledger: the
    // per-tenant floors victim scans must respect live next to the byte
    // counters they are compared against.
    for (auto& executor : executors_) {
      executor->block_manager.arbiter().ConfigureTenantShares(
          tenants_->ShareBytesPerExecutor());
    }
  }
  scheduler_ = std::make_unique<DagScheduler>(this);

  // Live-state gauges: each callback reads atomics its subsystem already
  // maintains, so the subsystems pay nothing per operation — the exporter (or
  // any Snapshot() caller) samples them. Registered after every subsystem
  // above is alive, unregistered in the destructor before any of them dies.
  MetricsRegistry& reg = MetricsRegistry::Global();
  const auto gauge = [&](const std::string& name, std::function<int64_t()> fn) {
    gauge_tokens_.emplace_back(name, reg.RegisterCallbackGauge(name, std::move(fn)));
  };
  gauge("arbiter.cache_used_bytes", [this] {
    int64_t total = 0;
    for (const auto& executor : executors_) {
      total += static_cast<int64_t>(executor->block_manager.arbiter().cache_used_bytes());
    }
    return total;
  });
  gauge("arbiter.execution_used_bytes", [this] {
    int64_t total = 0;
    for (const auto& executor : executors_) {
      total +=
          static_cast<int64_t>(executor->block_manager.arbiter().execution_used_bytes());
    }
    return total;
  });
  gauge("arbiter.execution_peak_bytes", [this] {
    int64_t peak = 0;
    for (const auto& executor : executors_) {
      peak = std::max(
          peak,
          static_cast<int64_t>(executor->block_manager.arbiter().execution_peak_bytes()));
    }
    return peak;
  });
  gauge("arbiter.overflow_events", [this] {
    int64_t total = 0;
    for (const auto& executor : executors_) {
      total += static_cast<int64_t>(
          executor->block_manager.arbiter().execution_overflow_events());
    }
    return total;
  });
  gauge("spill.queue_depth", [this] {
    int64_t total = 0;
    for (const auto& executor : executors_) {
      total += static_cast<int64_t>(executor->block_manager.SpillQueueDepth());
    }
    return total;
  });
  gauge("spill.pending_bytes", [this] {
    int64_t total = 0;
    for (const auto& executor : executors_) {
      total += static_cast<int64_t>(executor->block_manager.PendingSpillBytes());
    }
    return total;
  });
  gauge("store.memory_used_bytes",
        [this] { return static_cast<int64_t>(TotalMemoryUsed()); });
  gauge("store.pinned_blocks", [this] {
    int64_t total = 0;
    for (const auto& executor : executors_) {
      total += static_cast<int64_t>(executor->block_manager.memory().PinnedBlocks());
    }
    return total;
  });
  gauge("shuffle.bytes_in_flight",
        [this] { return static_cast<int64_t>(shuffle_.approx_bytes()); });
  gauge("arena.live_bytes",
        [] { return static_cast<int64_t>(BlockArena::TotalLiveBytes()); });
  if (tenants_ != nullptr) {
    // tenant.<name>.* service-plane gauges: shares and live usage from the
    // arbiter ledgers, job states from the registry. (The hit/miss pair are
    // plain counters the registry owns; see TenantRegistry's constructor.)
    for (TenantId t = 0; t < tenants_->num_tenants(); ++t) {
      const std::string prefix = "tenant." + tenants_->spec(t).name + ".";
      gauge(prefix + "share_bytes", [this, t] {
        int64_t total = 0;
        for (const auto& executor : executors_) {
          total +=
              static_cast<int64_t>(executor->block_manager.arbiter().TenantShareBytes(t));
        }
        return total;
      });
      gauge(prefix + "used_bytes", [this, t] {
        int64_t total = 0;
        for (const auto& executor : executors_) {
          total +=
              static_cast<int64_t>(executor->block_manager.arbiter().TenantCacheUsed(t));
        }
        return total;
      });
      gauge(prefix + "borrowed_bytes", [this, t] {
        int64_t total = 0;
        for (const auto& executor : executors_) {
          total += static_cast<int64_t>(
              executor->block_manager.arbiter().TenantBorrowedBytes(t));
        }
        return total;
      });
      gauge(prefix + "jobs_running", [this, t] { return tenants_->RunningJobs(t); });
      gauge(prefix + "jobs_queued", [this, t] { return tenants_->QueuedJobs(t); });
      gauge(prefix + "jobs_completed", [this, t] {
        return static_cast<int64_t>(tenants_->Stats(t).jobs_completed);
      });
      gauge(prefix + "jobs_rejected", [this, t] {
        return static_cast<int64_t>(tenants_->Stats(t).jobs_rejected);
      });
    }
  }

  // Telemetry endpoints: off unless configured (or forced by env, which lets
  // any existing binary expose /metrics without a code change).
  ExporterOptions exporter_options;
  exporter_options.port = config_.telemetry_port;
  exporter_options.interval_ms = config_.telemetry_interval_ms;
  exporter_options.jsonl_path = config_.telemetry_jsonl.string();
  if (const char* env_port = std::getenv("BLAZE_TELEMETRY_PORT")) {
    exporter_options.port = std::atoi(env_port);
  }
  if (const char* env_jsonl = std::getenv("BLAZE_TELEMETRY_JSONL")) {
    exporter_options.jsonl_path = env_jsonl;
  }
  if (exporter_options.port >= 0 || !exporter_options.jsonl_path.empty()) {
    exporter_ = std::make_unique<MetricsExporter>(&MetricsRegistry::Global(),
                                                  std::move(exporter_options));
  }
}

EngineContext::~EngineContext() {
  // The exporter goes first (it snapshots the registry, whose callback gauges
  // read live subsystem state), then the gauges themselves come out — after
  // this, nothing samples the subsystems being torn down below. Token-checked:
  // if a newer engine re-registered a name, its callback stays.
  exporter_.reset();
  for (const auto& [name, token] : gauge_tokens_) {
    MetricsRegistry::Global().UnregisterCallbackGauge(name, token);
  }
  // Quiesce the scheduler and coordinator first: the coordinator's dtor joins
  // its async prefetch pool, whose in-flight sweeps read executor state.
  scheduler_.reset();
  // Async fetch callbacks reference the coordinator; they must all have fired
  // before the coordinator dies.
  DrainAllSpills();
  coordinator_.reset();
  // Shuffle buckets still hold arbiter charges; the arbiters die with the
  // executors below, so cut the ledger hookup first.
  shuffle_.DetachArbiters();
  executors_.clear();  // drains pools and removes per-executor disk dirs
  if (owns_disk_root_) {
    std::error_code ec;
    std::filesystem::remove_all(disk_root_, ec);
  }
}

void EngineContext::SetCoordinator(std::unique_ptr<CacheCoordinator> coordinator) {
  BLAZE_CHECK(coordinator != nullptr);
  // In-flight async fetches deliver to the outgoing coordinator's callbacks.
  DrainAllSpills();
  coordinator_ = std::move(coordinator);
}

void EngineContext::DrainAllSpills() {
  for (auto& executor : executors_) {
    executor->block_manager.DrainSpills();
  }
}

void EngineContext::SyncArbiterMetrics() {
  uint64_t overflow = 0;
  for (const auto& executor : executors_) {
    overflow += executor->block_manager.arbiter().execution_overflow_events();
  }
  metrics_.RecordShuffleOverflow(overflow);
}

void EngineContext::RegisterRdd(const std::shared_ptr<RddBase>& rdd) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  registry_[rdd->id()] = rdd;
}

void EngineContext::UnregisterRdd(RddId id) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  registry_.erase(id);
}

std::shared_ptr<RddBase> EngineContext::FindRdd(RddId id) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_.find(id);
  return it == registry_.end() ? nullptr : it->second.lock();
}

void EngineContext::SetJobFanoutBarriers(int job_id,
                                         std::shared_ptr<const FusionBarrierSet> barriers) {
  std::lock_guard<std::mutex> lock(fusion_mu_);
  fanout_barriers_by_job_[job_id] = std::move(barriers);
}

std::shared_ptr<const EngineContext::FusionBarrierSet> EngineContext::job_fanout_barriers(
    int job_id) const {
  std::lock_guard<std::mutex> lock(fusion_mu_);
  auto it = fanout_barriers_by_job_.find(job_id);
  return it == fanout_barriers_by_job_.end() ? nullptr : it->second;
}

void EngineContext::ClearJobFanoutBarriers(int job_id) {
  std::lock_guard<std::mutex> lock(fusion_mu_);
  fanout_barriers_by_job_.erase(job_id);
}

bool EngineContext::WasComputedBefore(const BlockId& id) const {
  std::lock_guard<std::mutex> lock(computed_mu_);
  return computed_.contains(id);
}

void EngineContext::MarkComputed(const BlockId& id) {
  std::lock_guard<std::mutex> lock(computed_mu_);
  computed_.insert(id);
}

std::vector<std::any> EngineContext::RunJob(
    const std::shared_ptr<RddBase>& target,
    const std::function<std::any(const BlockPtr&)>& process, bool raw_blocks) {
  return scheduler_->RunJob(target, process, raw_blocks);
}

JobHandle EngineContext::SubmitJob(const std::shared_ptr<RddBase>& target,
                                   const std::function<std::any(const BlockPtr&)>& process,
                                   bool raw_blocks) {
  return scheduler_->SubmitJob(target, process, raw_blocks);
}

JobHandle EngineContext::SubmitJobAs(TenantId tenant,
                                     const std::shared_ptr<RddBase>& target,
                                     const std::function<std::any(const BlockPtr&)>& process,
                                     bool raw_blocks, std::string* reject_reason) {
  if (tenants_ == nullptr || tenant == kNoTenant) {
    return scheduler_->SubmitJob(target, process, raw_blocks);
  }
  const TenantRegistry::Admission admission = tenants_->AcquireJobSlot(tenant);
  if (!admission.admitted) {
    if (reject_reason != nullptr) {
      *reject_reason = admission.reason;
    }
    return JobHandle();
  }
  return scheduler_->SubmitJob(target, process, raw_blocks, tenant,
                               /*tenant_slot_held=*/true);
}

std::vector<std::any> EngineContext::RunJobAs(
    TenantId tenant, const std::shared_ptr<RddBase>& target,
    const std::function<std::any(const BlockPtr&)>& process, bool raw_blocks,
    std::string* reject_reason) {
  JobHandle handle = SubmitJobAs(tenant, target, process, raw_blocks, reject_reason);
  if (!handle.valid()) {
    return {};
  }
  return handle.Wait();
}

void EngineContext::UnpersistForTenant(const RddBase& rdd, TenantId tenant) {
  if (tenants_ != nullptr && tenant != kNoTenant &&
      !tenants_->ReleaseDataset(tenant, rdd.id())) {
    // Other tenants still reference the dataset: the blocks survive (the
    // shared-dataset refcount is exactly what keeps a cross-tenant-hot block
    // alive past one tenant's release). Audited so the deferral is visible.
    audit_.Unpersist(/*executor=*/0, rdd.id(), /*partition=*/0, /*size_bytes=*/0,
                     "Tenant", "deferred_shared_refcount", tenant);
    return;
  }
  coordinator_->UnpersistRdd(rdd);
}

uint64_t EngineContext::TotalMemoryUsed() const {
  uint64_t total = 0;
  for (const auto& executor : executors_) {
    total += executor->block_manager.memory().used_bytes();
  }
  return total;
}

}  // namespace blaze
