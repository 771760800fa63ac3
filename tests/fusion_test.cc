// Pipelined narrow-stage execution (operator fusion) tests: fused chains
// allocate no intermediate blocks, and every fusion barrier — user Cache()
// annotations, coordinator caching candidates, multi-consumer fan-out —
// still materializes through the BlockManager so caching, eviction, and
// lineage recomputation behave exactly as before.
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <atomic>
#include <numeric>

#include "src/blaze/blaze_coordinator.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/dataflow/rdd.h"
#include "src/dataflow/rdd_ops.h"
#include "src/metrics/audit_log.h"

namespace blaze {
namespace {

EngineConfig SmallConfig(uint64_t capacity = MiB(8)) {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = capacity;
  return config;
}

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

bool AnyPartitionComputed(EngineContext& engine, const RddBase& rdd) {
  for (uint32_t p = 0; p < rdd.num_partitions(); ++p) {
    if (engine.WasComputedBefore(BlockId{rdd.id(), p})) {
      return true;
    }
  }
  return false;
}

bool AllPartitionsComputed(EngineContext& engine, const RddBase& rdd) {
  for (uint32_t p = 0; p < rdd.num_partitions(); ++p) {
    if (!engine.WasComputedBefore(BlockId{rdd.id(), p})) {
      return false;
    }
  }
  return true;
}

TEST(FusionTest, FusedChainElidesIntermediateBlocks) {
  EngineContext engine(SmallConfig());
  auto base = Parallelize<int>(&engine, "ints", Iota(100), 4);
  auto m1 = base->Map([](const int& x) { return x * 2; }, "m1");
  auto f = m1->Filter([](const int& x) { return x % 4 == 0; }, "f");
  auto m2 = f->Map([](const int& x) { return x + 1; }, "m2");

  std::vector<int> expect;
  for (int x : Iota(100)) {
    if ((x * 2) % 4 == 0) {
      expect.push_back(x * 2 + 1);
    }
  }
  EXPECT_EQ(m2->Collect(), expect);

  // Only the source and the job target materialized; m1 and f streamed.
  const auto snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.total_task.blocks_computed, 8u);  // (base + m2) x 4 partitions
  EXPECT_EQ(snap.total_task.fused_ops, 8u);        // (m1 + f) x 4 partitions
  EXPECT_FALSE(AnyPartitionComputed(engine, *m1));
  EXPECT_FALSE(AnyPartitionComputed(engine, *f));
  EXPECT_TRUE(AllPartitionsComputed(engine, *base));
  EXPECT_TRUE(AllPartitionsComputed(engine, *m2));
}

TEST(FusionTest, CachedIntermediateMaterializesAndIsHitOnReuse) {
  EngineContext engine(SmallConfig());
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto base = Parallelize<int>(&engine, "ints", Iota(100), 4);
  auto m1 = base->Map([](const int& x) { return x * 2; }, "m1");
  m1->Cache();
  auto f = m1->Filter([](const int& x) { return x > 10; }, "f");
  auto m2 = f->Map([](const int& x) { return x + 1; }, "m2");
  EXPECT_EQ(m2->Count(), 94u);

  // The Cache() annotation is a fusion barrier: m1 materialized and was
  // admitted (audit trail), while f still fused into m2's chain.
  EXPECT_TRUE(AllPartitionsComputed(engine, *m1));
  EXPECT_FALSE(AnyPartitionComputed(engine, *f));
  EXPECT_GT(engine.TotalMemoryUsed(), 0u);
  bool m1_admitted = false;
  bool f_admitted = false;
  for (const AuditRecord& record : engine.audit().Snapshot()) {
    if (record.kind == AuditKind::kAdmit) {
      m1_admitted |= record.rdd_id == m1->id();
      f_admitted |= record.rdd_id == f->id();
    }
  }
  EXPECT_TRUE(m1_admitted);
  EXPECT_FALSE(f_admitted);

  // Reuse: a second consumer of m1 reads the cached blocks.
  const auto before = engine.metrics().Snapshot();
  auto m3 = m1->Map([](const int& x) { return x - 1; }, "m3");
  EXPECT_EQ(m3->Count(), 100u);
  const auto after = engine.metrics().Snapshot();
  EXPECT_GE(after.cache_hits_memory, before.cache_hits_memory + 4);
  // Only m3 itself materialized in the second job.
  EXPECT_EQ(after.total_task.blocks_computed - before.total_task.blocks_computed, 4u);

  // Unpersist removes the barrier: the next consumer fuses straight through m1.
  m1->Unpersist();
  auto m4 = m1->Map([](const int& x) { return x + 5; }, "m4");
  EXPECT_EQ(m4->Count(), 100u);
  const auto last = engine.metrics().Snapshot();
  EXPECT_EQ(last.total_task.fused_ops - after.total_task.fused_ops, 4u);  // m1 fused
  // base + m4 materialized; m1 no longer did.
  EXPECT_EQ(last.total_task.blocks_computed - after.total_task.blocks_computed, 8u);
}

TEST(FusionTest, MultiConsumerFanOutNodeIsNeverFusedAway) {
  EngineContext engine(SmallConfig());
  auto base = Parallelize<int>(&engine, "ints", Iota(80), 4);
  auto shared = base->Map([](const int& x) { return x + 100; }, "shared");
  auto a = shared->Map([](const int& x) { return x * 2; }, "a");
  auto b = shared->Filter([](const int&) { return true; }, "b");
  auto zipped = Zip(a, b);

  auto rows = zipped->Collect();
  ASSERT_EQ(rows.size(), 80u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int s = static_cast<int>(i) + 100;
    EXPECT_EQ(rows[i], std::make_pair(s * 2, s));
  }
  // `shared` has two dependents in the job, so it materialized as a block;
  // the single-consumer links a and b fused into zip's compute.
  EXPECT_TRUE(AllPartitionsComputed(engine, *shared));
  EXPECT_FALSE(AnyPartitionComputed(engine, *a));
  EXPECT_FALSE(AnyPartitionComputed(engine, *b));
  const auto snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.total_task.fused_ops, 8u);  // (a + b) x 4 partitions
}

TEST(FusionTest, EvictedBlockRecomputesThroughFusedChain) {
  EngineConfig tiny;
  tiny.num_executors = 1;  // single executor keeps eviction order deterministic
  tiny.threads_per_executor = 1;
  tiny.memory_capacity_per_executor = KiB(48);
  EngineContext engine(tiny);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemOnly));
  auto generations = std::make_shared<std::atomic<int>>(0);
  auto source = Generate<int>(&engine, "src", 2, [generations](uint32_t p) {
    generations->fetch_add(1);
    return std::vector<int>(4000, static_cast<int>(p));  // ~16 KiB per partition
  });
  auto m1 = source->Map([](const int& x) { return x + 1; }, "m1");
  auto m2 = m1->Map([](const int& x) { return x * 3; }, "m2");
  m2->Cache();
  auto evictor = Generate<int>(&engine, "evictor", 2, [](uint32_t p) {
    return std::vector<int>(4000, static_cast<int>(p));
  });
  evictor->Cache();

  const auto first = m2->Collect();
  const int generations_first = generations->load();
  EXPECT_EQ(evictor->Count(), 8000u);  // admitting these evicts m2 (MEM_ONLY: discard)
  const auto again = m2->Collect();    // re-access => lineage recomputation

  // The recovery re-ran the fused source -> m1 -> m2 chain and produced
  // identical rows; m1 still never became a block.
  EXPECT_EQ(again, first);
  EXPECT_GT(generations->load(), generations_first);
  EXPECT_FALSE(AnyPartitionComputed(engine, *m1));
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.evictions_discard, 0u);
  EXPECT_GT(snap.cache_misses, 0u);
  EXPECT_GT(snap.total_task.recompute_ms, 0.0);
}

TEST(FusionTest, BlazeAutoCacheCandidatesBreakFusion) {
  EngineContext engine(SmallConfig(MiB(16)));
  engine.SetCoordinator(std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full()));
  auto base = Generate<int>(&engine, "chain.base", 4,
                            [](uint32_t p) { return std::vector<int>(2000, (int)p); });
  base->Count();
  // Iterative reuse with a transient inner operator per step: Blaze must keep
  // auto-caching the reused iterates while the inner maps fuse away.
  std::vector<RddPtr<int>> inners;
  auto current = base;
  for (int i = 0; i < 6; ++i) {
    auto inner = current->Map([](const int& x) { return x + 1; }, "chain.inner");
    auto outer = inner->Map([](const int& x) { return x * 1; }, "chain.outer");
    outer->Count();
    inners.push_back(inner);
    current = outer;
  }
  // Auto-caching still works under fusion: the reused iterate is resident.
  EXPECT_GT(engine.TotalMemoryUsed(), 0u);
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.total_task.fused_ops, 0u);
  for (const auto& inner : inners) {
    EXPECT_FALSE(AnyPartitionComputed(engine, *inner)) << inner->name();
  }
}

// A Cache()d parent is a fusion barrier, so the second run samples a
// materialized block: the per-operator path must draw the same rows as the
// fused Map+Sample chain.
TEST(FusionTest, SampleIsDeterministicAcrossFusionModes) {
  auto run = [](bool fused) {
    EngineContext engine(SmallConfig());
    auto base = Parallelize<int>(&engine, "ints", Iota(500), 4);
    auto mapped = base->Map([](const int& x) { return x * 7; }, "m");
    if (!fused) {
      mapped->Cache();
    }
    auto sampled = mapped->Sample(0.3, /*seed=*/42, "s");
    auto rows = sampled->Collect();
    EXPECT_EQ(AllPartitionsComputed(engine, *mapped), !fused);
    return rows;
  };
  const auto fused = run(true);
  const auto unfused = run(false);
  EXPECT_FALSE(fused.empty());
  EXPECT_EQ(fused, unfused);
}

}  // namespace
}  // namespace blaze
