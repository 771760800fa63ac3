// Vectorized (batch-at-a-time) execution tests: the columnar kernel path and
// the row-at-a-time RowSink path must be result-identical for every fusable
// chain shape (maps, selective filters, seeded samples, pair value maps), and
// both must match a plain loop over the input. The row path is reached
// structurally: a kernel-less identity MapPartitions at the head of the chain
// makes every downstream link decline its batch kernel. The
// vectorized_batches/rows_vectorized/materializations_avoided counters must
// publish only when the vectorized path actually ran, hybrid chains with a
// kernel-less tail must fall back without corrupting results, the arbiter
// ledger must return to zero after a mixed row/columnar vectorized job, and
// four concurrent drivers must share the columnar path cleanly (TSan build).
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/rng.h"
#include "src/dataflow/engine_context.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/storage/block_manager.h"
#include "src/storage/memory_arbiter.h"
#include "src/storage/memory_store.h"
#include "src/workloads/element_types.h"

namespace blaze {
namespace {

using Pair = std::pair<uint32_t, double>;

constexpr uint32_t kSourcePartitions = 4;

EngineConfig BaseConfig() {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = MiB(16);
  return config;
}

std::vector<Pair> MakePairs(size_t n) {
  std::vector<Pair> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(static_cast<uint32_t>(i), 0.25 * static_cast<double>(i % 97));
  }
  return out;
}

// A link vectorizes only when its whole upstream chain does, so a kernel-less
// identity MapPartitions at the head sends every downstream link down its
// row path.
template <typename T>
RddPtr<T> RowPathHead(const RddPtr<T>& src) {
  return src->MapPartitions([](uint32_t, const std::vector<T>& rows) { return rows; },
                            "row.head");
}

enum class Path { kVectorized, kRow };

// Runs one chain shape on a fresh engine and returns the collected result.
// `chain` receives the chain input and builds the job target. The source is
// cached first, so both paths read the cached columnar blocks production
// reads (eligible types columnarize at admission); the row path recomposes
// rows from them at the identity head.
template <typename T, typename BuildFn>
auto RunChain(Path path, std::vector<T> data, BuildFn chain) {
  EngineContext engine(BaseConfig());
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto source = Parallelize<T>(&engine, "vec.src", std::move(data), kSourcePartitions);
  source->Cache();
  source->Count();  // admit
  auto target = chain(path == Path::kRow ? RowPathHead<T>(source) : source);
  auto out = target->Collect();
  const uint64_t batches = engine.metrics().Snapshot().total_task.vectorized_batches;
  if (path == Path::kRow) {
    EXPECT_EQ(batches, 0u) << "the row reference ran a batch kernel";
  } else {
    EXPECT_GT(batches, 0u) << "the vectorized run never reached a batch kernel";
  }
  return out;
}

// --- path equivalence --------------------------------------------------------------

TEST(VectorizedEquivalenceTest, DenseMapChain) {
  auto build = [](RddPtr<Pair> src) {
    auto m1 = src->Map([](const Pair& p) { return std::make_pair(p.first, p.second * 2.0); },
                       "m1");
    return m1->Map([](const Pair& p) { return std::make_pair(p.first + 1, p.second + 0.5); },
                   "m2");
  };
  std::vector<Pair> want;
  for (const Pair& p : MakePairs(5000)) {
    want.emplace_back(p.first + 1, p.second * 2.0 + 0.5);
  }
  EXPECT_EQ(RunChain(Path::kRow, MakePairs(5000), build), want);
  EXPECT_EQ(RunChain(Path::kVectorized, MakePairs(5000), build), want);
}

TEST(VectorizedEquivalenceTest, SelectionVectorChains) {
  // Filter first (kernels downstream see a selection vector), filter last
  // (selection built over a densified map output), and back-to-back filters
  // (selection refinement of a selection).
  auto build = [](RddPtr<Pair> src) {
    auto f1 = src->Filter([](const Pair& p) { return p.first % 3 != 0; }, "f1");
    auto m = f1->Map([](const Pair& p) { return std::make_pair(p.first * 2, p.second - 1.0); },
                     "m");
    auto f2 = m->Filter([](const Pair& p) { return p.second > 0.0; }, "f2");
    return f2->Filter([](const Pair& p) { return p.first % 4 == 2; }, "f3");
  };
  std::vector<Pair> want;
  for (const Pair& p : MakePairs(5000)) {
    const Pair q{p.first * 2, p.second - 1.0};
    if (p.first % 3 != 0 && q.second > 0.0 && q.first % 4 == 2) {
      want.push_back(q);
    }
  }
  EXPECT_EQ(RunChain(Path::kRow, MakePairs(5000), build), want);
  EXPECT_EQ(RunChain(Path::kVectorized, MakePairs(5000), build), want);
}

TEST(VectorizedEquivalenceTest, SeededSampleMatchesRowPath) {
  // Sample draws one Rng bool per surviving row in row order; the vectorized
  // kernel must consume the stream in exactly the same order (batch by batch,
  // selection order within a batch) or the two paths diverge.
  const size_t n = 4000;
  for (uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    auto build = [seed](RddPtr<Pair> src) {
      auto f = src->Filter([](const Pair& p) { return p.first % 2 == 0; }, "f");
      auto s = f->Sample(0.4, seed, "s");
      return s->Map([](const Pair& p) { return std::make_pair(p.first, p.second * 3.0); },
                    "m");
    };
    // Sample seeds one generator per partition; Parallelize splits evenly.
    const std::vector<Pair> input = MakePairs(n);
    std::vector<Pair> want;
    for (uint32_t part = 0; part < kSourcePartitions; ++part) {
      Rng rng(seed * 0x100000001B3ULL + part);
      for (size_t i = n * part / kSourcePartitions; i < n * (part + 1) / kSourcePartitions;
           ++i) {
        if (input[i].first % 2 == 0 && rng.NextBool(0.4)) {
          want.emplace_back(input[i].first, input[i].second * 3.0);
        }
      }
    }
    EXPECT_EQ(RunChain(Path::kRow, MakePairs(n), build), want) << "seed=" << seed;
    EXPECT_EQ(RunChain(Path::kVectorized, MakePairs(n), build), want) << "seed=" << seed;
  }
}

TEST(VectorizedEquivalenceTest, MapValuesOverPairs) {
  auto build = [](RddPtr<Pair> src) {
    auto mv = MapValues(src, [](const double& v) { return v * v + 1.0; }, "mv");
    return mv->Filter([](const Pair& p) { return p.second < 100.0; }, "f");
  };
  std::vector<Pair> want;
  for (const Pair& p : MakePairs(5000)) {
    const double v = p.second * p.second + 1.0;
    if (v < 100.0) {
      want.emplace_back(p.first, v);
    }
  }
  EXPECT_EQ(RunChain(Path::kRow, MakePairs(5000), build), want);
  EXPECT_EQ(RunChain(Path::kVectorized, MakePairs(5000), build), want);
}

TEST(VectorizedEquivalenceTest, HybridChainWithKernellessTail) {
  // Map-to-string has no columnar kernel (var-len output): the vectorizable
  // prefix streams batches through the row bridge, the tail runs row-at-a-time.
  auto build = [](RddPtr<Pair> src) {
    auto f = src->Filter([](const Pair& p) { return p.first % 5 != 0; }, "f");
    return f->Map([](const Pair& p) { return std::to_string(p.first); }, "str");
  };
  std::vector<std::string> want;
  for (const Pair& p : MakePairs(3000)) {
    if (p.first % 5 != 0) {
      want.push_back(std::to_string(p.first));
    }
  }
  EXPECT_EQ(RunChain(Path::kRow, MakePairs(3000), build), want);
  EXPECT_EQ(RunChain(Path::kVectorized, MakePairs(3000), build), want);
}

TEST(VectorizedEquivalenceTest, VarLenRowsStayEquivalent) {
  // LogEvent columnarizes but has no Map kernel (var-len members): source
  // batches gather from the columns, the operator falls back to rows.
  std::vector<LogEvent> events(2000);
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].timestamp = i;
    events[i].severity = static_cast<uint32_t>(i % 7);
    events[i].message = std::string(i % 23, 'x');
  }
  auto build = [](RddPtr<LogEvent> src) {
    auto f = src->Filter([](const LogEvent& e) { return e.severity >= 2; }, "sev");
    return f->Map([](const LogEvent& e) { return e.timestamp * 10 + e.message.size(); },
                  "key");
  };
  std::vector<uint64_t> want;
  for (const LogEvent& e : events) {
    if (e.severity >= 2) {
      want.push_back(e.timestamp * 10 + e.message.size());
    }
  }
  EXPECT_EQ(RunChain(Path::kRow, std::vector<LogEvent>(events), build), want);
  EXPECT_EQ(RunChain(Path::kVectorized, std::vector<LogEvent>(events), build), want);
}

// --- counters ----------------------------------------------------------------------

TEST(VectorizedCounterTest, BatchesAndRowsPublishOnVectorizedPath) {
  EngineContext engine(BaseConfig());
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  const size_t n = 5000;
  auto source = Parallelize<Pair>(&engine, "cnt.src", MakePairs(n), 4);
  source->Cache();
  source->Count();
  auto doubled =
      source->Map([](const Pair& p) { return std::make_pair(p.first, p.second * 2.0); }, "dbl");
  EXPECT_EQ(doubled->Count(), n);

  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.total_task.vectorized_batches, 0u);
  // The second job pushed every source row through the vectorized chain.
  EXPECT_GE(snap.total_task.rows_vectorized, n);
  // Cached pairs are columnar; serving them to the vectorized reader skipped
  // the row recompose.
  EXPECT_GT(snap.total_task.materializations_avoided, 0u);
}

TEST(VectorizedCounterTest, FusionAccountingMatchesRowPath) {
  // The vectorized path must report the same fusion as the row path:
  // vectorization changes how a fused chain executes, not what fuses. The
  // row run's identity head is one more fused link per partition.
  auto run = [](Path path) {
    EngineContext engine(BaseConfig());
    RddPtr<Pair> base = Parallelize<Pair>(&engine, "fuse.src", MakePairs(2000), 4);
    if (path == Path::kRow) {
      base = RowPathHead(base);
    }
    auto m1 =
        base->Map([](const Pair& p) { return std::make_pair(p.first, p.second * 2.0); }, "m1");
    auto f = m1->Filter([](const Pair& p) { return p.first % 2 == 0; }, "f");
    auto m2 = f->Map([](const Pair& p) { return std::make_pair(p.first, p.second + 1.0); }, "m2");
    m2->Count();
    const auto snap = engine.metrics().Snapshot();
    EXPECT_EQ(snap.total_task.vectorized_batches > 0, path == Path::kVectorized);
    return std::make_pair(snap.total_task.fused_ops, snap.total_task.blocks_computed);
  };
  const auto vectorized = run(Path::kVectorized);
  const auto row = run(Path::kRow);
  EXPECT_EQ(row.first, vectorized.first + 4);
  EXPECT_EQ(row.second, vectorized.second);
}

// --- ledger invariants -------------------------------------------------------------

TEST(VectorizedLedgerTest, ArbiterReturnsToZeroAfterMixedRepresentationJob) {
  EngineConfig config = BaseConfig();
  EngineContext engine(config);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  // Columnar-cached pairs, columnar-cached var-len events, and row-cached ints
  // (no BlazeColumns) in one engine: the mixed-representation case the byte
  // ledger has to balance across.
  auto pairs = Parallelize<std::pair<uint32_t, double>>(&engine, "mix.pairs", MakePairs(6000), 4);
  std::vector<LogEvent> raw_events(1500);
  for (size_t i = 0; i < raw_events.size(); ++i) {
    raw_events[i].timestamp = i;
    raw_events[i].severity = static_cast<uint32_t>(i % 4);
    raw_events[i].message = std::string(i % 31, 'e');
  }
  auto events = Parallelize<LogEvent>(&engine, "mix.events", std::move(raw_events), 4);
  std::vector<int> ints(3000);
  for (size_t i = 0; i < ints.size(); ++i) {
    ints[i] = static_cast<int>(i);
  }
  auto plain = Parallelize<int>(&engine, "mix.ints", std::move(ints), 4);
  pairs->Cache();
  events->Cache();
  plain->Cache();

  // Vectorized chain over the columnar pairs, plus reads of the other two.
  auto m = pairs->Map(
      [](const std::pair<uint32_t, double>& p) { return std::make_pair(p.first, p.second * 4.0); },
      "mix.m");
  EXPECT_EQ(m->Count(), 6000u);
  EXPECT_EQ(events->Count(), 1500u);
  EXPECT_EQ(plain->Count(), 3000u);
  EXPECT_EQ(m->Count(), 6000u);  // second pass hits the columnar cache

  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.total_task.vectorized_batches, 0u);
  EXPECT_GT(snap.columnar_blocks, 0u);

  pairs->Unpersist();
  events->Unpersist();
  plain->Unpersist();
  engine.DrainAllSpills();
  for (size_t e = 0; e < engine.num_executors(); ++e) {
    BlockManager& bm = engine.block_manager(e);
    EXPECT_EQ(bm.arbiter().cache_used_bytes(), 0u) << "executor " << e;
    EXPECT_EQ(bm.memory().used_bytes(), 0u) << "executor " << e;
  }
}

// --- concurrency -------------------------------------------------------------------

TEST(VectorizedStressTest, FourConcurrentDriversShareColumnarPath) {
  EngineConfig config = BaseConfig();
  config.num_executors = 2;
  config.threads_per_executor = 4;
  EngineContext engine(config);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  const size_t n = 4000;
  auto source = Parallelize<std::pair<uint32_t, double>>(&engine, "stress.src", MakePairs(n), 8);
  source->Cache();
  source->Count();

  // Reference sum, computed single-threaded on the same data.
  double want = 0.0;
  for (const auto& p : MakePairs(n)) {
    if (p.first % 2 == 0) {
      want += p.second * 2.0;
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&engine, &source, &failures, want, d]() {
      for (int round = 0; round < 3; ++round) {
        auto m = source->Map(
            [](const std::pair<uint32_t, double>& p) {
              return std::make_pair(p.first, p.second * 2.0);
            },
            "stress.m." + std::to_string(d));
        auto f = m->Filter([](const std::pair<uint32_t, double>& p) { return p.first % 2 == 0; },
                           "stress.f." + std::to_string(d));
        const auto got = f->Aggregate<double>(
            0.0,
            [](double& acc, const std::pair<uint32_t, double>& p) { acc += p.second; },
            [](double& acc, const double& other) { acc += other; });
        if (std::abs(got - want) > 1e-9) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : drivers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.total_task.vectorized_batches, 0u);
  EXPECT_GT(snap.total_task.materializations_avoided, 0u);
}

}  // namespace
}  // namespace blaze
