// Micro-benchmarks for pipelined narrow-stage execution: operator chains run
// fused (one pipelined compute per partition, no intermediate blocks), the
// vectorized path over a columnar-cached pair source, and copy-vs-view for
// the zero-copy Union/Coalesce block paths.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/units.h"
#include "src/dataflow/rdd.h"
#include "src/dataflow/rdd_ops.h"

namespace blaze {
namespace {

constexpr int kRowsPerPartition = 256 * 1024;
constexpr uint32_t kPartitions = 8;

EngineConfig BenchConfig() {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = MiB(512);
  return config;
}

// Sources are cached so the measured loops pay for the chain, not for
// regenerating the input every iteration.
void InstallCache(EngineContext* engine) {
  engine->SetCoordinator(std::make_unique<PolicyCoordinator>(engine, MakePolicy("lru"),
                                                             EvictionMode::kMemAndDisk));
}

RddPtr<int> IntSource(EngineContext* engine) {
  return Generate<int>(engine, "ints", kPartitions, [](uint32_t p) {
    std::vector<int> rows(kRowsPerPartition);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<int>(p * rows.size() + i);
    }
    return rows;
  });
}

RddPtr<std::string> StringSource(EngineContext* engine) {
  return Generate<std::string>(engine, "strs", kPartitions, [](uint32_t p) {
    std::vector<std::string> rows;
    rows.reserve(kRowsPerPartition / 8);
    for (int i = 0; i < kRowsPerPartition / 8; ++i) {
      rows.push_back("row-" + std::to_string(p) + "-" + std::to_string(i) +
                     "-abcdefghijklmnopqrstuvwxyz");
    }
    return rows;
  });
}

RddPtr<int> PodChain3(RddPtr<int> base) {
  return base->Map([](const int& x) { return x * 2; })
      ->Filter([](const int& x) { return (x & 3) != 0; })
      ->Map([](const int& x) { return x + 1; });
}

RddPtr<int> PodChain6(RddPtr<int> base) {
  return PodChain3(PodChain3(base));
}

RddPtr<std::string> StringChain3(RddPtr<std::string> base) {
  return base->Map([](const std::string& s) { return s + "!"; })
      ->Filter([](const std::string& s) { return s.size() > 10; })
      ->Map([](const std::string& s) { return s.substr(0, s.size() - 1); });
}

void RunPodChain(benchmark::State& state, bool deep) {
  EngineContext engine(BenchConfig());
  InstallCache(&engine);
  auto base = IntSource(&engine);
  base->Cache();
  base->Count();  // warm the cached source
  for (auto _ : state) {
    auto tail = deep ? PodChain6(base) : PodChain3(base);
    benchmark::DoNotOptimize(tail->Count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRowsPerPartition *
                          kPartitions);
}

void BM_PodChain3_Fused(benchmark::State& state) { RunPodChain(state, false); }
void BM_PodChain6_Fused(benchmark::State& state) { RunPodChain(state, true); }
BENCHMARK(BM_PodChain3_Fused)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PodChain6_Fused)->Unit(benchmark::kMillisecond);

// --- vectorized fused execution -----------------------------------------------------
//
// Fused 3-op chain over a columnar-cached pair source: ColumnBatch kernels
// and a selection-vector filter, one virtual call per 1024-row batch.

using PairRow = std::pair<uint32_t, double>;

RddPtr<PairRow> PairSource(EngineContext* engine) {
  return Generate<PairRow>(engine, "pairs", kPartitions, [](uint32_t p) {
    std::vector<PairRow> rows(kRowsPerPartition);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = {static_cast<uint32_t>(p * rows.size() + i),
                 0.5 * static_cast<double>(i)};
    }
    return rows;
  });
}

RddPtr<PairRow> PairChain3(RddPtr<PairRow> base) {
  return base->Map([](const PairRow& r) { return PairRow{r.first, r.second * 2.0}; })
      ->Filter([](const PairRow& r) { return (r.first & 3) != 0; })
      ->Map([](const PairRow& r) { return PairRow{r.first + 1, r.second + 1.0}; });
}

void BM_PairChain3_Vectorized(benchmark::State& state) {
  EngineContext engine(BenchConfig());
  InstallCache(&engine);
  auto base = PairSource(&engine);
  base->Cache();
  base->Count();  // admit: pairs cache columnar
  for (auto _ : state) {
    benchmark::DoNotOptimize(PairChain3(base)->Count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRowsPerPartition *
                          kPartitions);
}
BENCHMARK(BM_PairChain3_Vectorized)->Unit(benchmark::kMillisecond);

void BM_StringChain3_Fused(benchmark::State& state) {
  EngineContext engine(BenchConfig());
  InstallCache(&engine);
  auto base = StringSource(&engine);
  base->Cache();
  base->Count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(StringChain3(base)->Count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * (kRowsPerPartition / 8) *
                          kPartitions);
}

BENCHMARK(BM_StringChain3_Fused)->Unit(benchmark::kMillisecond);

// Union/Coalesce zero-copy block path, measured directly: the pre-change
// per-partition compute deep-copied the parent's rows into a fresh block
// (replicated here), while the shared-rows path wraps the same vector in a
// view. This is the cost the engine now avoids for every pass-through
// partition of Union, Coalesce, and single-reducer shuffles.
void BM_PassThroughBlock_DeepCopy(benchmark::State& state) {
  const auto parent = MakeBlock(std::vector<int>(kRowsPerPartition, 7));
  for (auto _ : state) {
    std::vector<int> copy(RowsOf<int>(parent));
    benchmark::DoNotOptimize(MakeBlock(std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRowsPerPartition);
}
BENCHMARK(BM_PassThroughBlock_DeepCopy);

void BM_PassThroughBlock_View(benchmark::State& state) {
  const auto parent = MakeBlock(std::vector<int>(kRowsPerPartition, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeBlockView(SharedRowsOf<int>(parent)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRowsPerPartition);
}
BENCHMARK(BM_PassThroughBlock_View);

void BM_PassThroughBlock_DeepCopyStrings(benchmark::State& state) {
  std::vector<std::string> rows;
  for (int i = 0; i < kRowsPerPartition / 8; ++i) {
    rows.push_back("row-" + std::to_string(i) + "-abcdefghijklmnopqrstuvwxyz");
  }
  const auto parent = MakeBlock(std::move(rows));
  for (auto _ : state) {
    std::vector<std::string> copy(RowsOf<std::string>(parent));
    benchmark::DoNotOptimize(MakeBlock(std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * (kRowsPerPartition / 8));
}
BENCHMARK(BM_PassThroughBlock_DeepCopyStrings);

void BM_PassThroughBlock_ViewStrings(benchmark::State& state) {
  std::vector<std::string> rows;
  for (int i = 0; i < kRowsPerPartition / 8; ++i) {
    rows.push_back("row-" + std::to_string(i) + "-abcdefghijklmnopqrstuvwxyz");
  }
  const auto parent = MakeBlock(std::move(rows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeBlockView(SharedRowsOf<std::string>(parent)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * (kRowsPerPartition / 8));
}
BENCHMARK(BM_PassThroughBlock_ViewStrings);

}  // namespace
}  // namespace blaze

BENCHMARK_MAIN();
