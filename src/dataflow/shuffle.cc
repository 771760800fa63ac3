#include "src/dataflow/shuffle.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/trace.h"

namespace blaze {

void ShuffleService::AttachArbiters(std::vector<MemoryArbiter*> arbiters) {
  arbiters_ = std::move(arbiters);
}

void ShuffleService::DetachArbiters() { arbiters_.clear(); }

void ShuffleService::PutBucket(int shuffle_id, uint32_t map_part, uint32_t reduce_part,
                               BlockPtr bucket) {
  TRACE_SCOPE("shuffle.put", "shuffle", trace::TArg("shuffle", shuffle_id),
              trace::TArg("map", map_part), trace::TArg("reduce", reduce_part),
              trace::TArg("bytes", bucket->SizeBytes()));
  MemoryArbiter* arbiter = ArbiterFor(map_part);
  Shard& shard = ShardFor(shuffle_id, reduce_part);
  std::lock_guard<SpinLock> lock(shard.mu);
  const Key key{shuffle_id, map_part, reduce_part};
  auto it = shard.buckets.find(key);
  if (it != shard.buckets.end()) {
    const uint64_t old_bytes = it->second->SizeBytes();
    approx_bytes_.fetch_sub(old_bytes, std::memory_order_relaxed);
    it->second = std::move(bucket);
    const uint64_t new_bytes = it->second->SizeBytes();
    approx_bytes_.fetch_add(new_bytes, std::memory_order_relaxed);
    if (arbiter != nullptr) {
      arbiter->ReleaseExecution(old_bytes);
      arbiter->ReserveExecution(new_bytes);
    }
    return;
  }
  const uint64_t bytes = bucket->SizeBytes();
  approx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (arbiter != nullptr) {
    arbiter->ReserveExecution(bytes);
  }
  shard.buckets.emplace(key, std::move(bucket));
  ++shard.bucket_counts[shuffle_id];
}

BlockPtr ShuffleService::GetBucket(int shuffle_id, uint32_t map_part,
                                   uint32_t reduce_part) const {
  const Shard& shard = ShardFor(shuffle_id, reduce_part);
  std::lock_guard<SpinLock> lock(shard.mu);
  auto it = shard.buckets.find(Key{shuffle_id, map_part, reduce_part});
  return it == shard.buckets.end() ? nullptr : it->second;
}

size_t ShuffleService::CountBuckets(int shuffle_id) const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<SpinLock> lock(shard.mu);
    auto it = shard.bucket_counts.find(shuffle_id);
    if (it != shard.bucket_counts.end()) {
      total += it->second;
    }
  }
  return total;
}

bool ShuffleService::HasAllOutputs(int shuffle_id, size_t num_map, size_t num_reduce) const {
  return CountBuckets(shuffle_id) == num_map * num_reduce;
}

ShuffleService::WriteClaim ShuffleService::ClaimWrite(int shuffle_id, size_t num_map,
                                                      size_t num_reduce,
                                                      std::function<void()> on_complete) {
  std::lock_guard<std::mutex> lock(control_mu_);
  Entry& entry = entries_[shuffle_id];
  switch (entry.state) {
    case State::kComplete:
      return WriteClaim::kAlreadyComplete;
    case State::kComputing:
      entry.waiters.push_back(std::move(on_complete));
      return WriteClaim::kPending;
    case State::kAbsent:
      break;
  }
  // Lazily rebuilt (ReadOrRebuildShuffleBuckets) or prepopulated outputs may
  // already be whole without anyone having claimed the write: promote.
  if (num_map > 0 && num_reduce > 0 && CountBuckets(shuffle_id) == num_map * num_reduce) {
    entry.state = State::kComplete;
    return WriteClaim::kAlreadyComplete;
  }
  entry.state = State::kComputing;
  return WriteClaim::kOwner;
}

void ShuffleService::FinishWrite(int shuffle_id) {
  std::vector<std::function<void()>> waiters;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    Entry& entry = entries_[shuffle_id];
    entry.state = State::kComplete;
    waiters.swap(entry.waiters);
    control_cv_.notify_all();
  }
  // Waiters run outside the service lock: they may launch stages (and claim
  // further shuffles) without any lock-order constraint.
  for (auto& waiter : waiters) {
    waiter();
  }
}

bool ShuffleService::IsComplete(int shuffle_id) const {
  std::lock_guard<std::mutex> lock(control_mu_);
  auto it = entries_.find(shuffle_id);
  return it != entries_.end() && it->second.state == State::kComplete;
}

void ShuffleService::WaitComplete(int shuffle_id) {
  std::unique_lock<std::mutex> lock(control_mu_);
  control_cv_.wait(lock, [&] {
    auto it = entries_.find(shuffle_id);
    return it != entries_.end() && it->second.state == State::kComplete;
  });
}

void ShuffleService::Pin(int shuffle_id) {
  std::lock_guard<std::mutex> lock(control_mu_);
  ++entries_[shuffle_id].pins;
}

void ShuffleService::Unpin(int shuffle_id) {
  std::lock_guard<std::mutex> lock(control_mu_);
  auto it = entries_.find(shuffle_id);
  if (it != entries_.end() && it->second.pins > 0) {
    --it->second.pins;
  }
}

void ShuffleService::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<SpinLock> lock(shard.mu);
    for (const auto& [key, bucket] : shard.buckets) {
      approx_bytes_.fetch_sub(bucket->SizeBytes(), std::memory_order_relaxed);
      if (MemoryArbiter* arbiter = ArbiterFor(key.map_part)) {
        arbiter->ReleaseExecution(bucket->SizeBytes());
      }
    }
    shard.buckets.clear();
    shard.bucket_counts.clear();
  }
  std::lock_guard<std::mutex> lock(control_mu_);
  entries_.clear();
}

void ShuffleService::ClearShuffleInShards(int shuffle_id) {
  for (Shard& shard : shards_) {
    std::lock_guard<SpinLock> lock(shard.mu);
    for (auto it = shard.buckets.begin(); it != shard.buckets.end();) {
      if (it->first.shuffle_id == shuffle_id) {
        approx_bytes_.fetch_sub(it->second->SizeBytes(), std::memory_order_relaxed);
        if (MemoryArbiter* arbiter = ArbiterFor(it->first.map_part)) {
          arbiter->ReleaseExecution(it->second->SizeBytes());
        }
        it = shard.buckets.erase(it);
      } else {
        ++it;
      }
    }
    shard.bucket_counts.erase(shuffle_id);
  }
}

void ShuffleService::ClearShuffle(int shuffle_id) {
  ClearShuffleInShards(shuffle_id);
  std::lock_guard<std::mutex> lock(control_mu_);
  entries_.erase(shuffle_id);
}

void ShuffleService::MarkUsed(int shuffle_id, int job_id) {
  std::lock_guard<std::mutex> lock(control_mu_);
  Entry& entry = entries_[shuffle_id];
  entry.last_used_job = std::max(entry.last_used_job, job_id);
}

void ShuffleService::DropStale(int current_job, int retention_jobs) {
  std::vector<int> stale;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    for (const auto& [shuffle_id, entry] : entries_) {
      // Never reap a shuffle a live job holds (pinned) or is writing.
      if (entry.pins > 0 || entry.state == State::kComputing) {
        continue;
      }
      if (entry.last_used_job <= current_job - retention_jobs) {
        stale.push_back(shuffle_id);
      }
    }
    for (int shuffle_id : stale) {
      entries_.erase(shuffle_id);
    }
  }
  for (int shuffle_id : stale) {
    ClearShuffleInShards(shuffle_id);
  }
}

}  // namespace blaze
