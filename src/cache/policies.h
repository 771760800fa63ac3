// Concrete eviction policies.
//
// Classic history-based: LRU, FIFO, LFU. Dependency-aware (the paper's
// strongest baselines, §7): LRC (least reference count, Yu et al. INFOCOM'17)
// and MRD (most reference distance, Perez et al. ICPP'18, with prefetching).
#ifndef SRC_CACHE_POLICIES_H_
#define SRC_CACHE_POLICIES_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/cache/eviction_policy.h"

namespace blaze {

class LruPolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "LRU"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;
};

class FifoPolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "FIFO"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;
};

class LfuPolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "LFU"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;
};

// Evicts the block whose dataset has the fewest remaining references in the
// current job (ties broken LRU). Datasets unreferenced by the job rank first.
// Promotes a disk hit only over blocks ranked below it on the same
// (reference count, recency) key.
class LrcPolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "LRC"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;
  bool Outranks(const MemoryEntry& incoming, const MemoryEntry& resident,
                const DependencyDigest& digest) const override;
};

// Evicts the block whose dataset is referenced farthest in the future (in
// stages); prefetches disk blocks referenced by the imminent stage, and
// promotes a disk hit only over blocks referenced later than it.
class MrdPolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "MRD"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;
  bool Outranks(const MemoryEntry& incoming, const MemoryEntry& resident,
                const DependencyDigest& digest) const override;
  bool WantsPrefetch() const override { return true; }
  bool ShouldPrefetch(RddId id, const DependencyDigest& digest) const override;
};

// LFU with Dynamic Aging (Arlitt et al.): priority = frequency + cache age,
// where the age rises to each evicted block's priority. Old popular blocks
// eventually age out instead of pinning the cache forever.
class LfuDaPolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "LFUDA"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;

 private:
  double cache_age_ = 0.0;
  // Age credit a block received when first seen by this policy.
  std::unordered_map<uint64_t, double> credit_;
};

// GreedyDual-Size (Cao & Irani): priority = age + benefit/size with benefit
// uniform, so large blocks are preferentially evicted — the classic
// size-aware baseline the paper's cost_d term generalizes.
class GreedyDualSizePolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "GDS"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;

 private:
  double cache_age_ = 0.0;
  std::unordered_map<uint64_t, double> credit_;
};

// LeCaR (Vietri et al., HotStorage'18): a regret-minimizing randomized mix of
// LRU and LFU. Each eviction is delegated to one expert chosen by weight;
// evicted ids go to that expert's history. A later miss on a block found in
// an expert's history is regret: the other expert's weight is boosted.
class LeCaRPolicy : public EvictionPolicy {
 public:
  explicit LeCaRPolicy(uint64_t seed = 1318699);

  const char* name() const override { return "LeCaR"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;
  void OnCacheMiss(const BlockId& id) override;

  double lru_weight() const { return w_lru_; }

 private:
  static constexpr size_t kHistoryLimit = 512;
  static constexpr double kLearningRate = 0.45;

  void Remember(std::deque<uint64_t>& history, uint64_t key);

  double w_lru_ = 0.5;
  uint64_t rng_state_;
  std::deque<uint64_t> lru_history_;
  std::deque<uint64_t> lfu_history_;
};

// Factory by name: "lru", "fifo", "lfu", "lfuda", "gds", "lecar", "lrc", "mrd".
std::unique_ptr<EvictionPolicy> MakePolicy(const std::string& name);

}  // namespace blaze

#endif  // SRC_CACHE_POLICIES_H_
