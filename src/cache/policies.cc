#include "src/cache/policies.h"

#include <algorithm>

#include "src/common/logging.h"

namespace blaze {

namespace {

// Shared scan: smallest (primary, last_access_seq) wins.
template <typename KeyFn>
size_t ArgMin(const std::vector<MemoryEntry>& candidates, KeyFn key) {
  BLAZE_CHECK(!candidates.empty());
  size_t best = 0;
  auto best_key = key(candidates[0]);
  for (size_t i = 1; i < candidates.size(); ++i) {
    auto k = key(candidates[i]);
    if (k < best_key) {
      best_key = k;
      best = i;
    }
  }
  return best;
}

auto LrcKey(const DependencyDigest& digest) {
  return [&digest](const MemoryEntry& e) {
    return std::make_pair(digest.RefCount(e.id.rdd_id), e.last_access_seq);
  };
}

// Largest reference distance evicted first => minimize the negated distance.
auto MrdKey(const DependencyDigest& digest) {
  return [&digest](const MemoryEntry& e) {
    return std::make_pair(-static_cast<int64_t>(digest.ReferenceDistance(e.id.rdd_id)),
                          static_cast<int64_t>(e.last_access_seq));
  };
}

}  // namespace

size_t LruPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                               const DependencyDigest&) {
  return ArgMin(candidates, [](const MemoryEntry& e) { return e.last_access_seq; });
}

size_t FifoPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                                const DependencyDigest&) {
  return ArgMin(candidates, [](const MemoryEntry& e) { return e.insert_seq; });
}

size_t LfuPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                               const DependencyDigest&) {
  return ArgMin(candidates, [](const MemoryEntry& e) {
    return std::make_pair(e.access_count, e.last_access_seq);
  });
}

size_t LrcPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                               const DependencyDigest& digest) {
  return ArgMin(candidates, LrcKey(digest));
}

bool LrcPolicy::Outranks(const MemoryEntry& incoming, const MemoryEntry& resident,
                         const DependencyDigest& digest) const {
  const auto key = LrcKey(digest);
  return key(resident) < key(incoming);
}

size_t MrdPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                               const DependencyDigest& digest) {
  return ArgMin(candidates, MrdKey(digest));
}

bool MrdPolicy::Outranks(const MemoryEntry& incoming, const MemoryEntry& resident,
                         const DependencyDigest& digest) const {
  const auto key = MrdKey(digest);
  return key(resident) < key(incoming);
}

bool MrdPolicy::ShouldPrefetch(RddId id, const DependencyDigest& digest) const {
  return digest.ReferenceDistance(id) == 0;
}

namespace {

uint64_t CreditKey(const BlockId& id) {
  return (static_cast<uint64_t>(id.rdd_id) << 32) | id.partition;
}

}  // namespace

size_t LfuDaPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                                 const DependencyDigest&) {
  size_t best = 0;
  double best_priority = 0.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    // First sighting inherits the current cache age as its credit.
    auto [it, inserted] = credit_.try_emplace(CreditKey(candidates[i].id), cache_age_);
    const double priority = static_cast<double>(candidates[i].access_count) + it->second;
    if (i == 0 || priority < best_priority) {
      best_priority = priority;
      best = i;
    }
  }
  cache_age_ = best_priority;  // dynamic aging: the age chases evicted priorities
  credit_.erase(CreditKey(candidates[best].id));
  return best;
}

size_t GreedyDualSizePolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                                          const DependencyDigest&) {
  size_t best = 0;
  double best_priority = 0.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    auto [it, inserted] = credit_.try_emplace(CreditKey(candidates[i].id), cache_age_);
    // Uniform benefit 1 per block: priority = age + 1/size, so the biggest
    // blocks go first among equals.
    const double priority =
        it->second + 1.0 / std::max<double>(1.0, static_cast<double>(candidates[i].size_bytes));
    if (i == 0 || priority < best_priority) {
      best_priority = priority;
      best = i;
    }
  }
  cache_age_ = best_priority;
  credit_.erase(CreditKey(candidates[best].id));
  return best;
}

LeCaRPolicy::LeCaRPolicy(uint64_t seed) : rng_state_(seed | 1) {}

void LeCaRPolicy::Remember(std::deque<uint64_t>& history, uint64_t key) {
  history.push_back(key);
  if (history.size() > kHistoryLimit) {
    history.pop_front();
  }
}

size_t LeCaRPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                                 const DependencyDigest&) {
  // Deterministic xorshift coin weighted by the experts' current credit.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  const double coin = static_cast<double>(rng_state_ >> 11) * 0x1.0p-53;
  const bool use_lru = coin < w_lru_;

  size_t victim = 0;
  if (use_lru) {
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (candidates[i].last_access_seq < candidates[victim].last_access_seq) {
        victim = i;
      }
    }
    Remember(lru_history_, CreditKey(candidates[victim].id));
  } else {
    for (size_t i = 1; i < candidates.size(); ++i) {
      const auto key = std::make_pair(candidates[i].access_count,
                                      candidates[i].last_access_seq);
      const auto best = std::make_pair(candidates[victim].access_count,
                                       candidates[victim].last_access_seq);
      if (key < best) {
        victim = i;
      }
    }
    Remember(lfu_history_, CreditKey(candidates[victim].id));
  }
  return victim;
}

void LeCaRPolicy::OnCacheMiss(const BlockId& id) {
  const uint64_t key = CreditKey(id);
  const auto in = [key](const std::deque<uint64_t>& history) {
    return std::find(history.begin(), history.end(), key) != history.end();
  };
  // Regret: the expert that evicted this block loses weight (multiplicative
  // update, as in the original LeCaR formulation).
  if (in(lru_history_)) {
    w_lru_ *= 1.0 - kLearningRate;
  } else if (in(lfu_history_)) {
    const double w_lfu = (1.0 - w_lru_) * (1.0 - kLearningRate);
    w_lru_ = 1.0 - w_lfu;
  } else {
    return;
  }
  // Renormalize into (0.01, 0.99) to keep both experts alive.
  w_lru_ = std::min(0.99, std::max(0.01, w_lru_));
}

std::unique_ptr<EvictionPolicy> MakePolicy(const std::string& name) {
  if (name == "lru") {
    return std::make_unique<LruPolicy>();
  }
  if (name == "fifo") {
    return std::make_unique<FifoPolicy>();
  }
  if (name == "lfu") {
    return std::make_unique<LfuPolicy>();
  }
  if (name == "lfuda") {
    return std::make_unique<LfuDaPolicy>();
  }
  if (name == "gds") {
    return std::make_unique<GreedyDualSizePolicy>();
  }
  if (name == "lecar") {
    return std::make_unique<LeCaRPolicy>();
  }
  if (name == "lrc") {
    return std::make_unique<LrcPolicy>();
  }
  if (name == "mrd") {
    return std::make_unique<MrdPolicy>();
  }
  BLAZE_LOG(kFatal) << "unknown eviction policy: " << name;
  return nullptr;
}

}  // namespace blaze
