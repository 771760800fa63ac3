// Per-executor unified memory ledger (the arbitration layer the cache tiers
// and the shuffle/execution side share).
//
// Blaze's decisions only make sense if the arbiter sees *all* the bytes
// competing for an executor's memory, not just the explicitly cached blocks:
// shuffle write buffers and in-flight task output squeeze the cache exactly
// like another resident block does. The arbiter keeps one byte ledger with
// two classes:
//
//   * cache bytes      — resident MemoryStore blocks (the store reports its
//                        reservation deltas here; the arbiter is the bound).
//   * execution bytes  — shuffle buckets and other task-side buffers,
//                        reserved by the shuffle service as map outputs land
//                        and released when buckets are replaced or dropped.
//
// The cache's effective capacity is  capacity - min(execution, execution_cap):
// execution pressure shrinks what the cache may hold, up to a fixed split
// (20% of executor memory, set in block_manager.cc), so a shuffle-heavy stage
// forces evictions instead of silently overcommitting the executor. The cap
// keeps a pathological shuffle from starving the cache to zero — beyond the
// cap, execution reservations are still *counted* (overflow diagnostics) but
// no longer charged against the cache bound, mirroring how Spark's unified
// memory manager lets storage keep a guaranteed region.
//
// All counters are relaxed atomics: the ledger is advisory input to admission
// and eviction decisions, never a lock-ordering participant.
#ifndef SRC_STORAGE_MEMORY_ARBITER_H_
#define SRC_STORAGE_MEMORY_ARBITER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

namespace blaze {

// Sentinel tenant for blocks/jobs outside the multi-tenant ledger (the
// single-tenant default). Untenanted bytes are charged to no share and are
// never protected by a tenant's eviction floor.
inline constexpr uint32_t kNoTenant = 0xFFFFFFFFu;

class MemoryArbiter {
 public:
  // `execution_cap_bytes` is the largest execution charge that can displace
  // cache capacity (the capacity split); 0 disables shuffle accounting's
  // effect on the cache bound (bytes are still tracked).
  MemoryArbiter(uint64_t capacity_bytes, uint64_t execution_cap_bytes)
      : capacity_(capacity_bytes),
        execution_cap_(std::min(execution_cap_bytes, capacity_bytes)) {}

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t execution_cap_bytes() const { return execution_cap_; }

  // --- execution side (shuffle buffers, task output) -------------------------------
  void ReserveExecution(uint64_t bytes) {
    const uint64_t now =
        execution_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (now > execution_cap_ && execution_cap_ > 0) {
      execution_overflow_events_.fetch_add(1, std::memory_order_relaxed);
    }
    uint64_t peak = execution_peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !execution_peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }
  void ReleaseExecution(uint64_t bytes) {
    execution_used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // --- cache side (MemoryStore mirrors its reservations here) ----------------------
  void OnCacheDelta(int64_t delta_bytes) {
    cache_used_.fetch_add(static_cast<uint64_t>(delta_bytes), std::memory_order_relaxed);
  }

  // Largest number of bytes the cache may hold right now: total capacity
  // minus the charged (capped) execution footprint.
  uint64_t CacheBoundBytes() const {
    const uint64_t charged =
        std::min(execution_used_.load(std::memory_order_relaxed), execution_cap_);
    return capacity_ - charged;
  }

  uint64_t cache_used_bytes() const { return cache_used_.load(std::memory_order_relaxed); }
  uint64_t execution_used_bytes() const {
    return execution_used_.load(std::memory_order_relaxed);
  }
  uint64_t execution_peak_bytes() const {
    return execution_peak_.load(std::memory_order_relaxed);
  }
  uint64_t execution_overflow_events() const {
    return execution_overflow_events_.load(std::memory_order_relaxed);
  }

  // --- per-tenant shares (multi-tenant mode) ---------------------------------------
  // Soft shares over this executor's capacity, indexed by tenant id. A share
  // is a *floor*, not a cap: a tenant may borrow unused capacity beyond its
  // share (work-conserving), but eviction on behalf of another tenant may
  // only reclaim the borrowed portion — the within-share bytes are
  // untouchable. Configured once while the engine is quiesced (construction).
  void ConfigureTenantShares(const std::vector<uint64_t>& share_bytes) {
    tenant_shares_ = share_bytes;
    tenant_used_ = std::vector<std::atomic<uint64_t>>(share_bytes.size());
  }
  size_t num_tenant_shares() const { return tenant_shares_.size(); }

  // MemoryStore mirrors per-entry reservation deltas here (tagged puts and
  // the matching removes), exactly like OnCacheDelta for the global ledger.
  void OnTenantCacheDelta(uint32_t tenant, int64_t delta_bytes) {
    if (tenant < tenant_used_.size()) {
      tenant_used_[tenant].fetch_add(static_cast<uint64_t>(delta_bytes),
                                     std::memory_order_relaxed);
    }
  }

  uint64_t TenantShareBytes(uint32_t tenant) const {
    return tenant < tenant_shares_.size() ? tenant_shares_[tenant] : 0;
  }
  uint64_t TenantCacheUsed(uint32_t tenant) const {
    return tenant < tenant_used_.size()
               ? tenant_used_[tenant].load(std::memory_order_relaxed)
               : 0;
  }
  // Bytes the tenant holds beyond its share right now — what a victim scan on
  // another tenant's behalf may reclaim from it (0 when within the share).
  uint64_t TenantBorrowedBytes(uint32_t tenant) const {
    const uint64_t used = TenantCacheUsed(tenant);
    const uint64_t share = TenantShareBytes(tenant);
    return used > share ? used - share : 0;
  }

 private:
  uint64_t capacity_;
  uint64_t execution_cap_;
  std::atomic<uint64_t> cache_used_{0};
  std::atomic<uint64_t> execution_used_{0};
  std::atomic<uint64_t> execution_peak_{0};
  std::atomic<uint64_t> execution_overflow_events_{0};
  // Tenant ledger: shares are immutable after ConfigureTenantShares; usage
  // counters are relaxed atomics like the rest of the ledger.
  std::vector<uint64_t> tenant_shares_;
  std::vector<std::atomic<uint64_t>> tenant_used_;
};

}  // namespace blaze

#endif  // SRC_STORAGE_MEMORY_ARBITER_H_
