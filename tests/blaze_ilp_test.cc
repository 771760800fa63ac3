// ILP plan behaviour: state transitions applied at job start (spill, drop,
// prefetch), desired-state application on admission, and the fixed-point
// cost re-estimation overlay.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <atomic>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <string>
#include <thread>

#include "src/common/units.h"

#include "src/blaze/blaze_coordinator.h"
#include "src/blaze/cost_model.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"

namespace blaze {
namespace {

EngineConfig TinyConfig(uint64_t capacity) {
  EngineConfig config;
  config.num_executors = 1;
  config.threads_per_executor = 1;
  config.memory_capacity_per_executor = capacity;
  config.disk_throughput_bytes_per_sec = MiB(64);
  return config;
}

TEST(CostEstimatorOverlayTest, OverrideChangesChainCost) {
  EngineConfig config = TinyConfig(MiB(8));
  EngineContext engine(config);
  CostLineage lineage;
  auto a = Parallelize<int>(&engine, "a", std::vector<int>(10, 1), 1);
  auto b = a->Map([](const int& x) { return x; }, "b");
  auto c = b->Map([](const int& x) { return x; }, "c");
  lineage.ObserveJobStart(engine.scheduler().AnalyzeJob(c, 0));
  lineage.ObserveBlockComputed(a->id(), 0, 1000, 5.0);
  lineage.ObserveBlockComputed(b->id(), 0, 1000, 10.0);
  lineage.ObserveBlockComputed(c->id(), 0, 1000, 20.0);
  lineage.SetState(b->id(), 0, PartitionState::kMemory);

  CostEstimator estimator(&lineage, 1e6, true);
  EXPECT_NEAR(estimator.Estimate(c->id(), 0).cost_r_ms, 20.0, 1e-9);  // b in memory
  // Hypothetically drop b: the chain through b and a reappears.
  estimator.OverrideState(b->id(), 0, PartitionState::kNone);
  EXPECT_NEAR(estimator.Estimate(c->id(), 0).cost_r_ms, 35.0, 1e-9);
  // Hypothetically promote b again.
  estimator.OverrideState(b->id(), 0, PartitionState::kMemory);
  EXPECT_NEAR(estimator.Estimate(c->id(), 0).cost_r_ms, 20.0, 1e-9);
}

// An iterative chain under a capacity where only part of the working set
// fits: the ILP plan must produce a mix of states, and every planned state
// must be reflected in the stores or the lineage.
TEST(BlazeIlpTest, PlanStatesAreConsistentWithStores) {
  EngineContext engine(TinyConfig(KiB(96)));
  auto coordinator = std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full());
  BlazeCoordinator* blaze = coordinator.get();
  engine.SetCoordinator(std::move(coordinator));

  auto base = Generate<int>(&engine, "ilp.base", 4, [](uint32_t p) {
    return std::vector<int>(8000, static_cast<int>(p));  // ~32 KiB per block
  });
  base->Count();
  auto current = base;
  for (int iter = 0; iter < 5; ++iter) {
    auto next = current->Map([](const int& x) { return x + 1; }, "ilp.iter");
    next->Count();
    current = next;
  }

  BlockManager& bm = engine.block_manager(0);
  // Whatever is resident in memory must be marked kMemory in the lineage and
  // vice versa for disk.
  for (const MemoryEntry& entry : bm.memory().Entries()) {
    EXPECT_EQ(blaze->lineage().GetState(entry.id.rdd_id, entry.id.partition),
              PartitionState::kMemory);
  }
  for (const BlockId& id : bm.disk().Blocks()) {
    EXPECT_EQ(blaze->lineage().GetState(id.rdd_id, id.partition), PartitionState::kDisk);
  }
  // Memory accounting holds.
  EXPECT_LE(bm.memory().used_bytes(), bm.memory().capacity_bytes());
}

TEST(BlazeIlpTest, SolverRunsOncePerJobAndStaysFast) {
  EngineContext engine(TinyConfig(KiB(96)));
  engine.SetCoordinator(std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full()));
  auto base = Generate<int>(&engine, "fast.base", 4,
                            [](uint32_t p) { return std::vector<int>(4000, (int)p); });
  base->Count();
  auto current = base;
  for (int iter = 0; iter < 6; ++iter) {
    auto next = current->Map([](const int& x) { return x + 1; }, "fast.iter");
    next->Count();
    current = next;
  }
  const auto snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.solver_invocations, 7u);
  // Well under the paper's 5-second ILP budget per solve.
  EXPECT_LT(snap.solver_ms / static_cast<double>(snap.solver_invocations), 100.0);
}

TEST(BlazeIlpTest, DiskPlacementsAreReloadedNotRecomputed) {
  // Make recomputation expensive (deep chain) and disk fast: the plan should
  // park cold-but-reused data on disk and reload it.
  // Capacity fits one iterate (both partitions) but not two.
  EngineContext engine(TinyConfig(KiB(128)));
  engine.SetCoordinator(std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full()));

  // Genuinely expensive generator: several milliseconds per block, well above
  // the disk round trip for 48 KiB, so the cost model must prefer the disk
  // tier over regeneration.
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto base = Generate<int>(&engine, "disk.base", 2, [counter](uint32_t p) {
    counter->fetch_add(1);
    std::vector<int> rows(12000);
    double acc = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
      for (int k = 0; k < 60; ++k) {
        acc += std::sin(static_cast<double>(i + k + p));
      }
      rows[i] = static_cast<int>(acc);
    }
    return rows;
  });
  base->Count();
  auto current = base;
  for (int iter = 0; iter < 4; ++iter) {
    auto next = current->Map([](const int& x) { return x + 1; }, "disk.iter");
    next->Count();
    current = next;
  }
  // Without any caching the chain would regenerate the source in every job
  // (2 partitions x 5 jobs = 10+ calls); Blaze must do far better even though
  // it learns the reuse pattern on the fly here (no profiling run).
  EXPECT_LE(counter->load(), 6) << "source regenerated too often";
}

TEST(BlazeIlpTest, WindowExcludesSingleUseTransients) {
  // A pipeline with a huge single-use intermediate: the ILP must not reserve
  // memory for it (it has no future references).
  EngineContext engine(TinyConfig(KiB(128)));
  auto coordinator = std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full());
  BlazeCoordinator* blaze = coordinator.get();
  engine.SetCoordinator(std::move(coordinator));

  auto base = Generate<int>(&engine, "win.base", 2,
                            [](uint32_t p) { return std::vector<int>(2000, (int)p); });
  base->Count();
  auto current = base;
  for (int iter = 0; iter < 4; ++iter) {
    auto huge = current->FlatMap(
        [](const int& x) {
          return std::vector<int>{x, x + 1, x + 2, x + 3};
        },
        "win.huge");
    auto next = huge->MapPartitions(
        [](uint32_t, const std::vector<int>& rows) {
          return std::vector<int>{static_cast<int>(rows.size())};
        },
        "win.next");
    next->Count();
    current = base;  // next iteration reads base again
    // The huge transient must never be cached anywhere.
    for (uint32_t p = 0; p < 2; ++p) {
      EXPECT_EQ(blaze->lineage().GetState(huge->id(), p), PartitionState::kNone);
      EXPECT_FALSE(
          engine.block_manager(0).memory().Contains(BlockId{huge->id(), p}));
    }
  }
}


// A dataset produced by `producer_job` and read again by each job up to
// `last_job`.
struct Reads {
  const RddBase* rdd;
  int producer_job;
  int last_job;
};

// Seeds the lineage with the reference schedule a profiling run would find.
void SeedReads(BlazeCoordinator* blaze, std::initializer_list<Reads> datasets) {
  LineageProfile profile;
  for (const Reads& reads : datasets) {
    LineageNode node;
    node.role = reads.rdd->id();
    node.name = reads.rdd->name();
    node.num_partitions = reads.rdd->num_partitions();
    node.producer_job = reads.producer_job;
    node.class_id = reads.rdd->id();
    profile.nodes.push_back(node);
    for (int job = reads.producer_job + 1; job <= reads.last_job; ++job) {
      profile.class_ref_offsets[node.role].insert(job - reads.producer_job);
    }
    profile.num_jobs = std::max(profile.num_jobs, reads.last_job + 1);
  }
  blaze->SeedProfile(profile);
}

// Moves a memory-resident block to the disk tier, as a spilling eviction
// would, so the next job's plan promotes it back.
void MoveToDisk(EngineContext& engine, BlazeCoordinator* blaze, const BlockId& id) {
  BlockManager& bm = engine.block_manager(0);
  auto block = bm.memory().Peek(id);
  ASSERT_TRUE(block.has_value());
  bm.SpillToDisk(id, **block);
  bm.RemoveFromMemory(id);
  blaze->lineage().SetState(id.rdd_id, id.partition, PartitionState::kDisk);
}

RddPtr<int> Ints(EngineContext& engine, const std::string& name, int rows) {
  return Generate<int>(&engine, name, 1,
                       [rows](uint32_t p) { return std::vector<int>(rows, (int)p); });
}

// A planned disk->memory promotion lands on the dataset owner's ledger, like
// an admission, so the owner's eviction floor covers the promoted block.
TEST(BlazeIlpTest, PlannedPromotionIsChargedToTheOwner) {
  EngineConfig config = TinyConfig(KiB(96));
  for (const char* name : {"a", "b"}) {
    TenantSpec spec;
    spec.name = name;
    spec.memory_share = 0.5;
    config.tenants.push_back(spec);
  }
  config.multi_tenant = true;
  EngineContext engine(config);
  auto coordinator = std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full());
  BlazeCoordinator* blaze = coordinator.get();
  engine.SetCoordinator(std::move(coordinator));
  const TenantId owner = *engine.tenants()->FindByName("b");
  const auto count_as_owner = [&](const RddPtr<int>& rdd) {
    size_t rows = 0;
    for (std::any& result : engine.RunJobAs(
             owner, rdd, [](const BlockPtr& block) -> std::any { return block->NumRows(); },
             /*raw_blocks=*/true)) {
      rows += std::any_cast<size_t>(result);
    }
    return rows;
  };

  auto base = Ints(engine, "promote.base", 2000);
  SeedReads(blaze, {{base.get(), /*producer_job=*/0, /*last_job=*/3}});
  ASSERT_EQ(count_as_owner(base), 2000u);
  const BlockId id{base->id(), 0};
  MoveToDisk(engine, blaze, id);
  ASSERT_EQ(count_as_owner(base), 2000u);  // its plan promotes the block
  engine.DrainAllSpills();

  BlockManager& bm = engine.block_manager(0);
  ASSERT_TRUE(bm.memory().Contains(id));
  EXPECT_FALSE(bm.disk().Contains(id));
  EXPECT_EQ(blaze->lineage().GetState(id.rdd_id, id.partition), PartitionState::kMemory);
  for (const MemoryEntry& entry : bm.memory().Entries()) {
    if (entry.id == id) {
      EXPECT_EQ(entry.tenant, owner);
      EXPECT_GE(bm.arbiter().TenantCacheUsed(owner), entry.size_bytes);
    }
  }
}

// A disk-resident block past its last reader is not promoted: the stage-end
// refcount_zero unpersist would throw the disk read away.
TEST(BlazeIlpTest, DeadBlockOnDiskIsNotPromoted) {
  EngineContext engine(TinyConfig(KiB(96)));
  auto coordinator = std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full());
  BlazeCoordinator* blaze = coordinator.get();
  engine.SetCoordinator(std::move(coordinator));

  auto base = Ints(engine, "dead.base", 2000);      // ~8 KiB, read by jobs 0-1
  auto filler = Ints(engine, "dead.filler", 2000);  // produced by job 2
  SeedReads(blaze, {{base.get(), 0, 1}, {filler.get(), 2, 3}});
  ASSERT_EQ(base->Count(), 2000u);
  ASSERT_EQ(base->Count(), 2000u);
  const BlockId id{base->id(), 0};
  MoveToDisk(engine, blaze, id);
  const uint64_t fetches_before = engine.metrics().Snapshot().async_fetches;

  ASSERT_EQ(filler->Count(), 2000u);  // job 2: plans with the dead block on disk
  engine.DrainAllSpills();

  EXPECT_EQ(engine.metrics().Snapshot().async_fetches, fetches_before);
  for (const AuditRecord& record : engine.audit().Snapshot()) {
    EXPECT_NE(std::string(record.reason), "ilp_promote")
        << "rdd " << record.rdd_id << " partition " << record.partition;
  }
  BlockManager& bm = engine.block_manager(0);
  EXPECT_FALSE(bm.memory().Contains(id));
  EXPECT_FALSE(bm.disk().Contains(id));
  EXPECT_EQ(blaze->lineage().GetState(id.rdd_id, id.partition), PartitionState::kNone);
}

// The promotion's disk read runs on the spill worker while a second job's
// admission evicts and its stage end auto-unpersists the block. In every
// order the three can land in, memory, disk and lineage agree afterwards, and
// the block, read by no later job, is in neither tier.
TEST(BlazeIlpTest, PromotionRacingEvictionAndUnpersistStaysConsistent) {
  for (int attempt = 0; attempt < 6; ++attempt) {
    EngineConfig config = TinyConfig(KiB(40));
    config.disk_throughput_bytes_per_sec = KiB(128);  // an 8 KiB block reads in ~60 ms
    EngineContext engine(config);
    auto coordinator = std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full());
    BlazeCoordinator* blaze = coordinator.get();
    engine.SetCoordinator(std::move(coordinator));

    auto base = Ints(engine, "race.base", 2000);       // ~8 KiB, read by jobs 0-1
    auto filler = Ints(engine, "race.filler", 8000);   // ~32 KiB, produced by job 2
    SeedReads(blaze, {{base.get(), 0, 1}, {filler.get(), 2, 3}});
    ASSERT_EQ(base->Count(), 2000u);
    const BlockId id{base->id(), 0};
    MoveToDisk(engine, blaze, id);

    std::thread reader([&] { EXPECT_EQ(base->Count(), 2000u); });  // plans the promotion
    while (blaze->lineage().current_job() < 1) {
      std::this_thread::yield();
    }
    // Spread the second job across the read: before, during and after it.
    std::this_thread::sleep_for(std::chrono::milliseconds(15 * attempt));
    EXPECT_EQ(filler->Count(), 8000u);
    reader.join();
    engine.DrainAllSpills();

    BlockManager& bm = engine.block_manager(0);
    for (const MemoryEntry& entry : bm.memory().Entries()) {
      EXPECT_EQ(blaze->lineage().GetState(entry.id.rdd_id, entry.id.partition),
                PartitionState::kMemory)
          << "attempt " << attempt;
    }
    for (const BlockId& on_disk : bm.disk().Blocks()) {
      EXPECT_EQ(blaze->lineage().GetState(on_disk.rdd_id, on_disk.partition),
                PartitionState::kDisk)
          << "attempt " << attempt;
    }
    EXPECT_FALSE(bm.memory().Contains(id)) << "attempt " << attempt;
    EXPECT_FALSE(bm.disk().Contains(id)) << "attempt " << attempt;
    EXPECT_EQ(blaze->lineage().GetState(id.rdd_id, id.partition), PartitionState::kNone)
        << "attempt " << attempt;
  }
}

}  // namespace
}  // namespace blaze
