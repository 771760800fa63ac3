// Eviction policy unit tests and PolicyCoordinator behaviour tests
// (annotation-following caching, LRU eviction, MEM_ONLY vs MEM_AND_DISK
// recovery, Alluxio-style serialized caching).
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>

#include "src/cache/alluxio_coordinator.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"

namespace blaze {
namespace {

MemoryEntry Entry(RddId rdd, uint32_t part, uint64_t insert, uint64_t access,
                  uint64_t count = 0) {
  MemoryEntry e;
  e.id = BlockId{rdd, part};
  e.size_bytes = 100;
  e.insert_seq = insert;
  e.last_access_seq = access;
  e.access_count = count;
  return e;
}

TEST(PolicyTest, LruPicksLeastRecentlyUsed) {
  LruPolicy policy;
  std::vector<MemoryEntry> entries{Entry(1, 0, 1, 9), Entry(1, 1, 2, 3), Entry(2, 0, 3, 7)};
  EXPECT_EQ(policy.SelectVictim(entries, {}), 1u);
}

TEST(PolicyTest, FifoPicksOldestInsertion) {
  FifoPolicy policy;
  std::vector<MemoryEntry> entries{Entry(1, 0, 5, 9), Entry(1, 1, 2, 30), Entry(2, 0, 9, 1)};
  EXPECT_EQ(policy.SelectVictim(entries, {}), 1u);
}

TEST(PolicyTest, LfuPicksLeastFrequentlyUsed) {
  LfuPolicy policy;
  std::vector<MemoryEntry> entries{Entry(1, 0, 1, 9, 5), Entry(1, 1, 2, 3, 1),
                                   Entry(2, 0, 3, 7, 3)};
  EXPECT_EQ(policy.SelectVictim(entries, {}), 1u);
}

TEST(PolicyTest, LrcPrefersLowestReferenceCount) {
  LrcPolicy policy;
  DependencyDigest digest;
  digest.ref_count[1] = 3;
  digest.ref_count[2] = 0;
  std::vector<MemoryEntry> entries{Entry(1, 0, 1, 9), Entry(2, 0, 2, 99)};
  EXPECT_EQ(policy.SelectVictim(entries, digest), 1u);
}

TEST(PolicyTest, MrdEvictsFarthestReference) {
  MrdPolicy policy;
  DependencyDigest digest;
  digest.current_stage = 1;
  digest.next_use_stage[1] = 1;  // distance 0
  digest.next_use_stage[2] = 5;  // distance 4
  std::vector<MemoryEntry> entries{Entry(1, 0, 1, 9), Entry(2, 0, 2, 99)};
  EXPECT_EQ(policy.SelectVictim(entries, digest), 1u);
  EXPECT_TRUE(policy.ShouldPrefetch(1, digest));
  EXPECT_FALSE(policy.ShouldPrefetch(2, digest));
}

TEST(PolicyTest, DigestDistanceInfinityForUnknown) {
  DependencyDigest digest;
  digest.current_stage = 2;
  digest.next_use_stage[1] = 0;  // already passed
  EXPECT_EQ(digest.ReferenceDistance(1), std::numeric_limits<int>::max());
  EXPECT_EQ(digest.ReferenceDistance(42), std::numeric_limits<int>::max());
}

TEST(PolicyTest, LfuDaAgesOutOldPopularBlocks) {
  LfuDaPolicy policy;
  // Block A is very popular (freq 10); B..E are one-hit wonders. With pure
  // LFU, A would never be evicted. Under dynamic aging, after enough
  // evictions raise the cache age past A's frequency, A becomes the victim.
  std::vector<MemoryEntry> entries{Entry(1, 0, 1, 1, 10), Entry(2, 0, 2, 2, 1),
                                   Entry(3, 0, 3, 3, 2), Entry(4, 0, 4, 4, 3)};
  // First eviction: the one-hit block (priority 1 + age 0).
  size_t victim = policy.SelectVictim(entries, {});
  EXPECT_EQ(entries[victim].id.rdd_id, 2u);
  entries.erase(entries.begin() + victim);
  // Keep evicting; the age climbs with each eviction's priority.
  victim = policy.SelectVictim(entries, {});
  EXPECT_EQ(entries[victim].id.rdd_id, 3u);
  entries.erase(entries.begin() + victim);
  victim = policy.SelectVictim(entries, {});
  EXPECT_EQ(entries[victim].id.rdd_id, 4u);
  entries.erase(entries.begin() + victim);
  // Only the popular block remains; new blocks seen now carry high age credit,
  // so a fresh one-hit block can outrank stale popularity.
  entries.push_back(Entry(5, 0, 5, 5, 1));
  victim = policy.SelectVictim(entries, {});
  // A's priority = 10 + 0 (old credit); E's = 1 + age(>=3). A 10 vs E ~4: E
  // still evicted; after more aging rounds A eventually goes. Evict twice.
  EXPECT_EQ(entries[victim].id.rdd_id, 5u);
}

TEST(PolicyTest, GreedyDualSizeEvictsLargestAmongEquals) {
  GreedyDualSizePolicy policy;
  std::vector<MemoryEntry> entries{Entry(1, 0, 1, 1), Entry(2, 0, 2, 2), Entry(3, 0, 3, 3)};
  entries[0].size_bytes = 100;
  entries[1].size_bytes = 10000;  // biggest: smallest 1/size priority
  entries[2].size_bytes = 1000;
  EXPECT_EQ(policy.SelectVictim(entries, {}), 1u);
}

TEST(PolicyTest, GreedyDualSizeAgesCredits) {
  GreedyDualSizePolicy policy;
  std::vector<MemoryEntry> entries{Entry(1, 0, 1, 1), Entry(2, 0, 2, 2)};
  entries[0].size_bytes = 1000;
  entries[1].size_bytes = 100;
  const size_t first = policy.SelectVictim(entries, {});
  EXPECT_EQ(entries[first].id.rdd_id, 1u);  // bigger goes first
  entries.erase(entries.begin() + first);
  // A newcomer seen after the eviction inherits the raised age, so it ranks
  // above (not below) the survivor despite equal size.
  entries.push_back(Entry(3, 0, 3, 3));
  entries.back().size_bytes = 100;
  const size_t second = policy.SelectVictim(entries, {});
  EXPECT_EQ(entries[second].id.rdd_id, 2u);
}

TEST(PolicyTest, LeCaRDelegatesToAnExpertAndRecordsHistory) {
  LeCaRPolicy policy;
  std::vector<MemoryEntry> entries{Entry(1, 0, 1, 5, 9), Entry(2, 0, 2, 1, 1)};
  // Whatever expert is chosen, entry (2,0) is both LRU- and LFU-minimal.
  EXPECT_EQ(policy.SelectVictim(entries, {}), 1u);
}

TEST(PolicyTest, LeCaRRegretShiftsWeights) {
  LeCaRPolicy policy;
  const double initial = policy.lru_weight();
  // Force many evictions where LRU and LFU disagree, then report misses on
  // blocks the LRU expert evicted: the LRU weight must drop.
  for (uint32_t round = 0; round < 40; ++round) {
    std::vector<MemoryEntry> entries{
        Entry(100 + round, 0, 1, /*access=*/1, /*count=*/9),  // LRU victim
        Entry(200 + round, 0, 2, /*access=*/9, /*count=*/1),  // LFU victim
    };
    const size_t victim = policy.SelectVictim(entries, {});
    // Report a miss on whichever block went into the LRU history.
    if (entries[victim].id.rdd_id >= 100 && entries[victim].id.rdd_id < 200) {
      policy.OnCacheMiss(entries[victim].id);
    }
  }
  EXPECT_LT(policy.lru_weight(), initial);
}

TEST(PolicyTest, LeCaRMissOnUnknownBlockIsNeutral) {
  LeCaRPolicy policy;
  const double initial = policy.lru_weight();
  policy.OnCacheMiss(BlockId{999, 0});
  EXPECT_DOUBLE_EQ(policy.lru_weight(), initial);
}

TEST(PolicyCoordinatorTest, LeCaRWorksEndToEnd) {
  EngineConfig lecar_config;
  lecar_config.num_executors = 1;
  lecar_config.threads_per_executor = 1;
  lecar_config.memory_capacity_per_executor = KiB(48);
  EngineContext engine(lecar_config);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lecar"),
                                                            EvictionMode::kMemAndDisk));
  auto first = Generate<int>(&engine, "lc1", 2,
                             [](uint32_t p) { return std::vector<int>(4000, (int)p); });
  auto second = Generate<int>(&engine, "lc2", 2,
                              [](uint32_t p) { return std::vector<int>(4000, (int)p); });
  first->Cache();
  second->Cache();
  EXPECT_EQ(first->Count(), 8000u);
  EXPECT_EQ(second->Count(), 8000u);
  EXPECT_EQ(first->Count(), 8000u);
  EXPECT_EQ(second->Count(), 8000u);
  EXPECT_GT(engine.metrics().Snapshot().evictions_to_disk, 0u);
}

TEST(PolicyTest, FactoryKnowsAllNames) {
  for (const char* name : {"lru", "fifo", "lfu", "lfuda", "gds", "lecar", "lrc", "mrd"}) {
    EXPECT_NE(MakePolicy(name), nullptr) << name;
  }
}

// The promotion gate: a disk hit may displace only blocks the policy ranks
// below it, and they must hold the bytes the promotion needs.
TEST(PolicyTest, LruPromotesOnlyOverColderBlocks) {
  LruPolicy policy;
  const std::vector<MemoryEntry> resident{Entry(1, 0, 1, 10), Entry(2, 0, 2, 30)};
  const MemoryEntry incoming = Entry(3, 0, 0, 20);
  EXPECT_TRUE(policy.ShouldPromote(incoming, resident, 100, {}));
  EXPECT_FALSE(policy.ShouldPromote(incoming, resident, 101, {}));  // only block 1 is colder
  EXPECT_FALSE(policy.ShouldPromote(Entry(3, 0, 0, 5), resident, 1, {}));
  // Free room still needs one colder block, unless nothing is resident.
  EXPECT_TRUE(policy.ShouldPromote(incoming, resident, 0, {}));
  EXPECT_FALSE(policy.ShouldPromote(Entry(3, 0, 0, 5), resident, 0, {}));
  EXPECT_TRUE(policy.ShouldPromote(Entry(3, 0, 0, 5), {}, 0, {}));
}

TEST(PolicyTest, LrcPromotesByReferenceCount) {
  LrcPolicy policy;
  DependencyDigest digest;
  digest.ref_count[1] = 1;
  digest.ref_count[2] = 3;
  digest.ref_count[3] = 2;
  const std::vector<MemoryEntry> resident{Entry(1, 0, 1, 90), Entry(2, 0, 2, 95)};
  // Referenced more often than dataset 1, though last used long before it.
  EXPECT_TRUE(policy.ShouldPromote(Entry(3, 0, 0, 5), resident, 100, digest));
  EXPECT_FALSE(policy.ShouldPromote(Entry(3, 0, 0, 5), resident, 200, digest));
  // Unreferenced by the job: never displaces anything, however recent.
  EXPECT_FALSE(policy.ShouldPromote(Entry(4, 0, 0, 99), resident, 1, digest));
  // Equal counts fall back to recency, the victim order's tie-break.
  EXPECT_TRUE(policy.ShouldPromote(Entry(5, 0, 0, 91), {Entry(1, 0, 1, 90)}, 1, [] {
    DependencyDigest d;
    d.ref_count[1] = 1;
    d.ref_count[5] = 1;
    return d;
  }()));
}

TEST(PolicyTest, MrdPromotesByReferenceDistance) {
  MrdPolicy policy;
  DependencyDigest digest;
  digest.current_stage = 2;
  digest.next_use_stage[1] = 6;  // distance 4
  digest.next_use_stage[2] = 3;  // distance 1
  digest.next_use_stage[3] = 2;  // distance 0: read right now
  const std::vector<MemoryEntry> resident{Entry(1, 0, 1, 90), Entry(2, 0, 2, 95)};
  EXPECT_TRUE(policy.ShouldPromote(Entry(3, 0, 0, 5), resident, 200, digest));
  // Dataset 4 is not referenced again in this job: infinitely far.
  EXPECT_FALSE(policy.ShouldPromote(Entry(4, 0, 0, 99), resident, 1, digest));
  // Distance 1 beats dataset 1 (distance 4) but not dataset 2 (distance 1, newer).
  digest.next_use_stage[5] = 3;
  EXPECT_TRUE(policy.ShouldPromote(Entry(5, 0, 0, 5), resident, 100, digest));
  EXPECT_FALSE(policy.ShouldPromote(Entry(5, 0, 0, 5), resident, 101, digest));
}

// --- coordinator behaviour ------------------------------------------------------------

EngineConfig TinyConfig(uint64_t capacity) {
  EngineConfig config;
  config.num_executors = 1;  // single executor keeps eviction order deterministic
  config.threads_per_executor = 1;
  config.memory_capacity_per_executor = capacity;
  return config;
}

// Two cached datasets that together exceed memory force evictions (blocks of
// the dataset being written are never victims, mirroring Spark's same-RDD
// eviction guard, so the pressure must come from a second dataset). MEM_ONLY
// must then recompute the evicted blocks on re-access.
TEST(PolicyCoordinatorTest, MemOnlyRecomputesEvictedBlocks) {
  EngineContext engine(TinyConfig(KiB(48)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemOnly));
  auto generations = std::make_shared<std::atomic<int>>(0);
  auto first = Generate<int>(&engine, "first", 2, [generations](uint32_t p) {
    generations->fetch_add(1);
    return std::vector<int>(4000, static_cast<int>(p));  // ~16 KiB per partition
  });
  auto second = Generate<int>(&engine, "second", 2, [](uint32_t p) {
    return std::vector<int>(4000, static_cast<int>(p));
  });
  first->Cache();
  second->Cache();
  EXPECT_EQ(first->Count(), 2u * 4000u);
  const int first_round = generations->load();
  EXPECT_EQ(second->Count(), 2u * 4000u);  // admitting these evicts `first`
  EXPECT_EQ(first->Count(), 2u * 4000u);   // re-access => recomputation
  EXPECT_GT(generations->load(), first_round);
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.evictions_discard, 0u);
  EXPECT_EQ(snap.evictions_to_disk, 0u);
  EXPECT_GT(snap.cache_misses, 0u);
}

TEST(PolicyCoordinatorTest, MemAndDiskServesEvictionsFromDisk) {
  EngineContext engine(TinyConfig(KiB(48)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto generations = std::make_shared<std::atomic<int>>(0);
  auto rdd = Generate<int>(&engine, "big", 8, [generations](uint32_t p) {
    generations->fetch_add(1);
    return std::vector<int>(4000, static_cast<int>(p));
  });
  rdd->Cache();
  EXPECT_EQ(rdd->Count(), 8u * 4000u);
  EXPECT_EQ(generations->load(), 8);
  // Disk writes go through the spill worker; commit them so the re-read is
  // served from disk rather than from an in-flight write-claim.
  engine.DrainAllSpills();
  EXPECT_EQ(rdd->Count(), 8u * 4000u);
  EXPECT_EQ(generations->load(), 8);  // recovered from disk, never recomputed
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.evictions_to_disk, 0u);
  EXPECT_GT(snap.cache_hits_disk, 0u);
  EXPECT_GT(snap.total_task.cache_disk_ms, 0.0);
}

TEST(PolicyCoordinatorTest, UnannotatedDataNeverCached) {
  EngineContext engine(TinyConfig(MiB(4)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto rdd = Parallelize<int>(&engine, "ints", std::vector<int>(1000, 1), 4);
  EXPECT_EQ(rdd->Count(), 1000u);
  EXPECT_EQ(engine.TotalMemoryUsed(), 0u);
}

TEST(PolicyCoordinatorTest, UnpersistDropsAllTiers) {
  EngineContext engine(TinyConfig(KiB(48)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto rdd = Generate<int>(&engine, "big", 8, [](uint32_t p) {
    return std::vector<int>(4000, static_cast<int>(p));
  });
  rdd->Cache();
  rdd->Count();
  EXPECT_GT(engine.TotalMemoryUsed() + engine.block_manager(0).disk().used_bytes(), 0u);
  rdd->Unpersist();
  EXPECT_EQ(engine.TotalMemoryUsed(), 0u);
  // A write the unpersist caught mid-flight deletes its file once it commits.
  engine.DrainAllSpills();
  EXPECT_EQ(engine.block_manager(0).disk().used_bytes(), 0u);
}

// A throttled disk keeps a straight-to-disk admission in flight long enough
// to observe it: the block's 40 KB take ~300 ms at 128 KiB/s.
EngineConfig SlowDiskConfig(uint64_t capacity) {
  EngineConfig config = TinyConfig(capacity);
  config.disk_throughput_bytes_per_sec = KiB(128);
  return config;
}

// The admission goes through the spill queue like an eviction: the task pays
// no disk time, and the block stays readable until (and after) the commit.
TEST(PolicyCoordinatorTest, OversizedBlockGoesStraightToDisk) {
  EngineContext engine(SlowDiskConfig(KiB(4)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto generations = std::make_shared<std::atomic<int>>(0);
  auto rdd = Generate<int>(&engine, "huge", 1, [generations](uint32_t) {
    generations->fetch_add(1);
    return std::vector<int>(10000, 1);
  });
  rdd->Cache();
  EXPECT_EQ(rdd->Count(), 10000u);
  // The task handed the write to the spill worker and paid none of it.
  EXPECT_EQ(engine.metrics().Snapshot().total_task.cache_disk_bytes_written, 0u);
  BlockManager& bm = engine.block_manager(0);
  const BlockId id{rdd->id(), 0};
  ASSERT_TRUE(bm.InFlightSpill(id).has_value());
  EXPECT_EQ(rdd->Count(), 10000u);  // served from the write-claim before commit
  engine.DrainAllSpills();
  EXPECT_EQ(engine.TotalMemoryUsed(), 0u);
  EXPECT_FALSE(bm.InFlightSpill(id).has_value());
  EXPECT_TRUE(bm.disk().Contains(id));
  EXPECT_EQ(rdd->Count(), 10000u);  // and from disk after it
  EXPECT_EQ(generations->load(), 1);
  const auto snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.cache_hits_memory, 1u);
  EXPECT_EQ(snap.cache_hits_disk, 1u);
}

TEST(PolicyCoordinatorTest, UnpersistBeforeWriteCommitLeavesNoDiskCopy) {
  EngineContext engine(SlowDiskConfig(KiB(4)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto rdd = Generate<int>(&engine, "huge", 1,
                           [](uint32_t) { return std::vector<int>(10000, 1); });
  rdd->Cache();
  rdd->Count();
  ASSERT_TRUE(engine.block_manager(0).InFlightSpill(BlockId{rdd->id(), 0}).has_value());
  rdd->Unpersist();
  engine.DrainAllSpills();
  EXPECT_EQ(engine.block_manager(0).disk().used_bytes(), 0u);
}

// Blocks of the dataset being admitted are never victims, so when the other
// datasets' bytes cannot make room the admission is refused up front: nothing
// is evicted, and the block goes to disk for lack of evictable room (not for
// exceeding the executor's capacity).
TEST(PolicyCoordinatorTest, InfeasibleAdmissionEvictsNothing) {
  EngineContext engine(TinyConfig(KiB(48)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  // ~8 KB resident plus two ~28 KB partitions: either partition fits next to
  // the resident block, but the second one cannot fit even if it is evicted.
  auto resident = Generate<int>(&engine, "resident", 1,
                                [](uint32_t) { return std::vector<int>(2000, 1); });
  auto incoming = Generate<int>(&engine, "incoming", 2,
                                [](uint32_t) { return std::vector<int>(7000, 2); });
  resident->Cache();
  incoming->Cache();
  resident->Count();
  incoming->Count();
  engine.DrainAllSpills();
  BlockManager& bm = engine.block_manager(0);
  EXPECT_TRUE(bm.memory().Contains(BlockId{resident->id(), 0}));
  const bool first_in_memory = bm.memory().Contains(BlockId{incoming->id(), 0});
  EXPECT_NE(first_in_memory, bm.memory().Contains(BlockId{incoming->id(), 1}));
  EXPECT_TRUE(bm.disk().Contains(BlockId{incoming->id(), first_in_memory ? 1u : 0u}));
  bool saw_disk_admit = false;
  for (const AuditRecord& record : engine.audit().Snapshot()) {
    EXPECT_NE(record.kind, AuditKind::kEvict);
    if (record.kind == AuditKind::kAdmit && record.to_disk) {
      EXPECT_STREQ(record.reason, "no_evictable_room");
      saw_disk_admit = true;
    }
  }
  EXPECT_TRUE(saw_disk_admit);
}

// --- two-tier reads (disk-hit promotion) ------------------------------------------

size_t CountAuditAdmits(EngineContext& engine, const char* reason) {
  size_t n = 0;
  for (const AuditRecord& record : engine.audit().Snapshot()) {
    if (record.kind == AuditKind::kAdmit && std::string(record.reason) == reason) {
      ++n;
    }
  }
  return n;
}

RddPtr<int> CachedInts(EngineContext& engine, const std::string& name, uint32_t parts,
                       size_t rows) {
  auto rdd = Generate<int>(&engine, name, parts, [rows](uint32_t p) {
    return std::vector<int>(rows, static_cast<int>(p));
  });
  rdd->Cache();
  return rdd;
}

// A block re-read soon after its last disk hit is hotter than blocks that sat
// idle meanwhile: the second disk hit promotes it over them. Its disk copy is
// kept, so evicting it again later writes nothing.
TEST(PolicyCoordinatorTest, HotBlockPromotedOnSecondDiskHitEvictsForFree) {
  EngineContext engine(TinyConfig(KiB(52)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  BlockManager& bm = engine.block_manager(0);
  auto hot = CachedInts(engine, "hot", 1, 3000);        // ~12 KB
  auto filler = CachedInts(engine, "filler", 2, 4000);  // 2 x ~16 KB
  auto warm = CachedInts(engine, "warm", 1, 4000);      // ~16 KB
  const BlockId hot_id{hot->id(), 0};
  hot->Count();
  filler->Count();
  warm->Count();  // evicts `hot`, the least recently used, to disk
  engine.DrainAllSpills();  // the write-back commits off the task path
  ASSERT_FALSE(bm.memory().Contains(hot_id));
  ASSERT_TRUE(bm.disk().Contains(hot_id));
  for (int i = 0; i < 10; ++i) {
    warm->Count();  // `filler` sits idle
  }
  hot->Count();  // first disk hit: `hot` was colder than everything resident
  EXPECT_FALSE(bm.memory().Contains(hot_id));
  EXPECT_EQ(CountAuditAdmits(engine, "disk_hit_promote"), 0u);
  hot->Count();  // second disk hit, right after the first: promoted
  EXPECT_TRUE(bm.memory().Contains(hot_id));
  EXPECT_EQ(CountAuditAdmits(engine, "disk_hit_promote"), 1u);
  EXPECT_EQ(bm.memory().PinCount(hot_id), 0);  // the reading task has ended

  // Touch everything else, then admit a block that needs exactly the room
  // `hot` holds: `hot` is the victim, and its disk copy makes that free.
  filler->Count();
  warm->Count();
  engine.DrainAllSpills();
  const auto before = engine.metrics().Snapshot();
  const uint64_t disk_before = bm.disk().used_bytes();
  auto pusher = CachedInts(engine, "pusher", 1, 3000);
  pusher->Count();
  engine.DrainAllSpills();  // any write-back the eviction queued has landed
  EXPECT_FALSE(bm.memory().Contains(hot_id));
  EXPECT_TRUE(bm.memory().Contains(BlockId{pusher->id(), 0}));
  const auto after = engine.metrics().Snapshot();
  // Nothing went to the spill worker and nothing was written inline.
  EXPECT_EQ(after.async_spills, before.async_spills);
  EXPECT_EQ(after.total_task.cache_disk_bytes_written,
            before.total_task.cache_disk_bytes_written);
  EXPECT_EQ(bm.disk().used_bytes(), disk_before);
  EXPECT_EQ(hot->Count(), 3000u);  // still served from the kept disk copy
}

// A cyclic scan longer than the cache re-reads each block only once per
// pass, after everything resident was used more recently: no disk hit may
// displace anything (the pattern that makes promote-every-hit churn).
TEST(PolicyCoordinatorTest, CyclicScanMakesNoEvictingPromotion) {
  EngineContext engine(TinyConfig(KiB(64)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto first = CachedInts(engine, "scan_a", 4, 4000);   // 4 x ~16 KB: the whole cache
  auto second = CachedInts(engine, "scan_b", 4, 4000);
  for (int pass = 0; pass < 4; ++pass) {
    EXPECT_EQ(first->Count(), 4u * 4000u);
    EXPECT_EQ(second->Count(), 4u * 4000u);
    engine.DrainAllSpills();
  }
  const auto snap = engine.metrics().Snapshot();
  ASSERT_GT(snap.cache_hits_disk, 0u);
  // A promotion that had to make room is audited right after its evictions
  // (one executor thread: decisions are strictly sequential).
  const std::vector<AuditRecord> records = engine.audit().Snapshot();
  size_t evicting_promotions = 0;
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].kind == AuditKind::kAdmit &&
        std::string(records[i].reason) == "disk_hit_promote" &&
        records[i - 1].kind == AuditKind::kEvict) {
      ++evicting_promotions;
    }
  }
  EXPECT_EQ(evicting_promotions, 0u);
}

// Puts `rdd`'s single block on disk and leaves memory empty, so its next
// disk hit is promoted into free room.
void LeaveOnlyOnDisk(EngineContext& engine, const RddPtr<int>& rdd) {
  rdd->Count();
  auto displacer = CachedInts(engine, "displacer", 1, 4000);
  displacer->Count();  // evicts `rdd` to disk
  engine.DrainAllSpills();
  displacer->Unpersist();
  ASSERT_FALSE(engine.block_manager(0).memory().Contains(BlockId{rdd->id(), 0}));
  ASSERT_TRUE(engine.block_manager(0).disk().Contains(BlockId{rdd->id(), 0}));
  ASSERT_EQ(engine.TotalMemoryUsed(), 0u);
}

// An unpersist landing while a task reads the block from disk must win: the
// promotion re-checks residency under the executor lock, so the block does
// not come back to memory (or disk) after the user dropped it.
TEST(PolicyCoordinatorTest, UnpersistRacingPromotionLeavesNothing) {
  for (int attempt = 0; attempt < 6; ++attempt) {
    // A 12 KB block takes ~90 ms to read from this disk.
    EngineContext engine(SlowDiskConfig(KiB(24)));
    engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                              EvictionMode::kMemAndDisk));
    auto rdd = CachedInts(engine, "raced", 1, 3000);
    LeaveOnlyOnDisk(engine, rdd);
    std::thread reader([&] { EXPECT_EQ(rdd->Count(), 3000u); });
    // Spread the unpersist across the read: before, during and after it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20 * attempt));
    rdd->Unpersist();
    reader.join();
    engine.DrainAllSpills();
    EXPECT_EQ(engine.TotalMemoryUsed(), 0u) << "attempt " << attempt;
    EXPECT_EQ(engine.block_manager(0).disk().used_bytes(), 0u) << "attempt " << attempt;
  }
}

// The reading task holds the promoted payload, so the block stays pinned
// (and charged to the arbiter) until the task ends.
TEST(PolicyCoordinatorTest, PromotedBlockStaysPinnedUntilTaskEnds) {
  EngineContext engine(TinyConfig(KiB(24)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto rdd = CachedInts(engine, "pinned", 1, 3000);
  LeaveOnlyOnDisk(engine, rdd);
  const BlockId id{rdd->id(), 0};
  MemoryStore& memory = engine.block_manager(0).memory();
  auto pins_seen = std::make_shared<std::atomic<int>>(-1);
  auto probe = rdd->Map([pins_seen, &memory, id](const int& v) {
    if (pins_seen->load() < 0) {
      pins_seen->store(memory.PinCount(id));
    }
    return v;
  });
  EXPECT_EQ(probe->Count(), 3000u);
  EXPECT_EQ(CountAuditAdmits(engine, "disk_hit_promote"), 1u);
  EXPECT_EQ(pins_seen->load(), 1);
  EXPECT_TRUE(memory.Contains(id));
  EXPECT_EQ(memory.PinCount(id), 0);
  EXPECT_EQ(memory.PinnedBlocks(), 0u);
}

TEST(AlluxioCoordinatorTest, ServesSerializedHitsAndCountsDeserTime) {
  EngineContext engine(TinyConfig(MiB(1)));
  engine.SetCoordinator(std::make_unique<AlluxioCoordinator>(&engine));
  auto generations = std::make_shared<std::atomic<int>>(0);
  auto rdd = Generate<int>(&engine, "data", 4, [generations](uint32_t p) {
    generations->fetch_add(1);
    return std::vector<int>(1000, static_cast<int>(p));
  });
  rdd->Cache();
  EXPECT_EQ(rdd->Count(), 4000u);
  EXPECT_EQ(rdd->Count(), 4000u);
  EXPECT_EQ(generations->load(), 4);  // hits from the serialized tier
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.cache_hits_memory, 0u);
  // Even memory hits pay (de)serialization in the Alluxio model.
  EXPECT_GT(snap.total_task.cache_disk_ms, 0.0);
}

TEST(AlluxioCoordinatorTest, EvictsSerializedVictimsToDisk) {
  EngineContext engine(TinyConfig(KiB(16)));
  engine.SetCoordinator(std::make_unique<AlluxioCoordinator>(&engine));
  auto rdd = Generate<int>(&engine, "data", 8, [](uint32_t p) {
    return std::vector<int>(2000, static_cast<int>(p));  // ~8 KiB serialized
  });
  rdd->Cache();
  EXPECT_EQ(rdd->Count(), 16000u);
  // Evictions hand their disk writes to the spill worker; quiesce it before
  // asserting on committed disk bytes.
  engine.DrainAllSpills();
  EXPECT_GT(engine.block_manager(0).disk().used_bytes(), 0u);
  EXPECT_EQ(rdd->Count(), 16000u);  // recoverable from the disk tier
}

TEST(AlluxioCoordinatorTest, OversizedBlockWritesOffTheTaskThread) {
  EngineContext engine(TinyConfig(KiB(4)));
  engine.SetCoordinator(std::make_unique<AlluxioCoordinator>(&engine));
  auto generations = std::make_shared<std::atomic<int>>(0);
  auto rdd = Generate<int>(&engine, "huge", 1, [generations](uint32_t) {
    generations->fetch_add(1);
    return std::vector<int>(10000, 1);  // ~40 KB serialized: exceeds the tier
  });
  rdd->Cache();
  EXPECT_EQ(rdd->Count(), 10000u);
  EXPECT_EQ(engine.metrics().Snapshot().total_task.cache_disk_bytes_written, 0u);
  engine.DrainAllSpills();
  EXPECT_GT(engine.block_manager(0).disk().used_bytes(), 0u);
  EXPECT_EQ(rdd->Count(), 10000u);
  EXPECT_EQ(generations->load(), 1);  // read back from the disk tier
}

}  // namespace
}  // namespace blaze
