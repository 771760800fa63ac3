// Eviction policy interface for the annotation-following coordinator.
//
// A policy ranks the blocks resident in one executor's memory store and picks
// the next victim. Dependency-aware policies (LRC, MRD) additionally consume
// the per-job dependency digest maintained by the coordinator.
#ifndef SRC_CACHE_EVICTION_POLICY_H_
#define SRC_CACHE_EVICTION_POLICY_H_

#include <limits>
#include <unordered_map>
#include <vector>

#include "src/dataflow/events.h"
#include "src/storage/memory_store.h"

namespace blaze {

// Dependency digest of the currently running job, rebuilt on every job start.
struct DependencyDigest {
  // LRC: number of dependent datasets inside the current job.
  std::unordered_map<RddId, int> ref_count;
  // MRD: first stage index (within the current job) that consumes the dataset.
  std::unordered_map<RddId, int> next_use_stage;
  int current_stage = 0;

  int RefCount(RddId id) const {
    auto it = ref_count.find(id);
    return it == ref_count.end() ? 0 : it->second;
  }
  // Stages until next use; datasets unused in this job are "infinitely" far.
  int ReferenceDistance(RddId id) const {
    auto it = next_use_stage.find(id);
    if (it == next_use_stage.end() || it->second < current_stage) {
      return std::numeric_limits<int>::max();
    }
    return it->second - current_stage;
  }
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual const char* name() const = 0;

  // Picks the next victim: an index into `candidates` (never empty).
  virtual size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                              const DependencyDigest& digest) = 0;

  // Two-tier reads: may a block just read from disk enter memory? A
  // promotion may only displace blocks the policy ranks below the promoted
  // one, so the answer is yes when those blocks among `candidates` (the
  // blocks an insert could evict) hold at least `needed` bytes. With the room
  // already free (`needed` == 0) the block must still outrank one candidate,
  // unless there is none. `incoming` carries the block's id, size and the
  // recency to rank it by (see PolicyCoordinator::PromoteLocked).
  bool ShouldPromote(const MemoryEntry& incoming, const std::vector<MemoryEntry>& candidates,
                     uint64_t needed, const DependencyDigest& digest) const {
    bool outranks_any = candidates.empty();
    uint64_t outranked = 0;
    for (const MemoryEntry& resident : candidates) {
      if (Outranks(incoming, resident, digest)) {
        outranks_any = true;
        outranked += resident.size_bytes;
      }
    }
    return outranks_any && outranked >= needed;
  }

  // True if the policy would evict `resident` before `incoming`. Must not
  // change policy state. The default is a LIRS-style reuse test on recency:
  // a block re-read within the cache's reach displaces colder ones, while a
  // cyclic scan longer than the cache promotes nothing.
  virtual bool Outranks(const MemoryEntry& incoming, const MemoryEntry& resident,
                        const DependencyDigest& digest) const {
    (void)digest;
    return resident.last_access_seq < incoming.last_access_seq;
  }

  // Called on every cache miss for a cache-managed block. Learning policies
  // (LeCaR) use this to observe regret: a miss on a block one of their
  // experts recently evicted means that expert made a mistake.
  virtual void OnCacheMiss(const BlockId& id) { (void)id; }

  // MRD prefetches disk-resident blocks about to be referenced.
  virtual bool WantsPrefetch() const { return false; }
  // True if the dataset should be prefetched at the current stage.
  virtual bool ShouldPrefetch(RddId id, const DependencyDigest& digest) const {
    (void)id;
    (void)digest;
    return false;
  }
};

}  // namespace blaze

#endif  // SRC_CACHE_EVICTION_POLICY_H_
