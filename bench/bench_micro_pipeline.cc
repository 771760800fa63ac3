// Micro-benchmarks for pipelined narrow-stage execution: operator chains run
// fused (one pipelined compute per partition, no intermediate blocks), plus
// copy-vs-view for the zero-copy Union/Coalesce block paths, plus
// vectorized-vs-row execution of the same fused chains over columnar-cached
// pair sources. The headline comparison: the vectorized path beats the fused
// row path on POD pair chains.
//
// CI floor (enforced after the google-benchmark run, exit 1 on miss):
//   BLAZE_MICRO_PIPELINE_MIN_VEC_SPEEDUP  vectorized vs row-at-a-time fused
//                                         execution of the 4-map+filter pair chain
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/dataflow/rdd.h"
#include "src/dataflow/rdd_ops.h"

namespace blaze {
namespace {

constexpr int kRowsPerPartition = 256 * 1024;
constexpr uint32_t kPartitions = 8;

EngineConfig BenchConfig(bool vectorized = true) {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = MiB(512);
  config.enable_vectorized = vectorized;
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

// --- vectorized vs row-at-a-time fused execution -----------------------------------
//
// Same fused 3-op chain over a cached pair source, with the vectorized path
// on (columnar-cached source, ColumnBatch kernels, selection-vector filter)
// and off (object-row cache, one virtual RowSink::Push + three std::function
// hops per row). The per-row dispatch is the cost vectorization amortizes to
// one virtual call per 1024-row batch.

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

// Floor chain: four maps then a 1/16-selective filter over scalar POD rows.
// Map-heavy is the regime batching targets — the row path pays one virtual
// Push per row per link (5 links x 2M rows), while the vectorized path pays
// one virtual call per 1024-row batch and runs each kernel as a tight loop
// the compiler can SIMD-vectorize (scalar rows sit in a dense array, so the
// source pushes zero-copy windows — no gather). The trailing filter shrinks
// the output block 16x so the (path-independent) cost of materializing the
// result doesn't dilute the per-row comparison.
RddPtr<uint64_t> U64Source(EngineContext* engine) {
  return Generate<uint64_t>(engine, "u64s", kPartitions, [](uint32_t p) {
    std::vector<uint64_t> rows(kRowsPerPartition);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = p * rows.size() + i;
    }
    return rows;
  });
}

RddPtr<uint64_t> U64ChainWide(RddPtr<uint64_t> base) {
  return base->Map([](const uint64_t& x) { return x * 3; })
      ->Map([](const uint64_t& x) { return x + 7; })
      ->Map([](const uint64_t& x) { return x ^ (x >> 13); })
      ->Map([](const uint64_t& x) { return x * uint64_t{2654435761}; })
      ->Filter([](const uint64_t& x) { return (x & 15) == 0; });
}

void RunPairChain(benchmark::State& state, bool vectorized) {
  EngineContext engine(BenchConfig(vectorized));
  InstallCache(&engine);
  auto base = PairSource(&engine);
  base->Cache();
  base->Count();  // admit: columnar when vectorized, object rows when not
  for (auto _ : state) {
    benchmark::DoNotOptimize(PairChain3(base)->Count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRowsPerPartition *
                          kPartitions);
}

void BM_PairChain3_Vectorized(benchmark::State& state) { RunPairChain(state, true); }
void BM_PairChain3_RowFused(benchmark::State& state) { RunPairChain(state, false); }
BENCHMARK(BM_PairChain3_Vectorized)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PairChain3_RowFused)->Unit(benchmark::kMillisecond);

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

// --- CI floor ----------------------------------------------------------------------

// The vectorized pair chain must beat the fused row path by the configured
// factor. Both engines run the identical fused 5-op chain over the identically
// cached source; only the execution path (and with it the cache
// representation) differs.
int CheckVectorizedFloor(double min_speedup) {
  const auto time_path = [](bool vectorized) {
    EngineContext engine(BenchConfig(vectorized));
    InstallCache(&engine);
    auto base = U64Source(&engine);
    base->Cache();
    base->Count();
    double best = 1e300;
    for (int r = 0; r < 7; ++r) {
      Stopwatch sw;
      benchmark::DoNotOptimize(U64ChainWide(base)->Count());
      best = std::min(best, sw.ElapsedMillis());
    }
    return best;
  };
  // Discarded warmup: the first engine in the process pays the allocator's
  // page faults for the 2M-row working set; every later engine reuses the
  // grown heap. Without this the first-timed path loses ~40% unfairly.
  (void)time_path(false);
  const double row_ms = time_path(false);
  const double vec_ms = time_path(true);
  const double speedup = row_ms / vec_ms;
  std::printf("vectorized chain floor (uint64 4-map+filter): row %.3f ms, "
              "vectorized %.3f ms, speedup %.2fx (floor %.2fx)\n",
              row_ms, vec_ms, speedup, min_speedup);
  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAILED: vectorized chain speedup %.2fx below floor %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

int RunFloors() {
  int rc = 0;
  if (const char* env = std::getenv("BLAZE_MICRO_PIPELINE_MIN_VEC_SPEEDUP")) {
    rc |= CheckVectorizedFloor(std::atof(env));
  }
  return rc;
}

}  // namespace
}  // namespace blaze

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return blaze::RunFloors();
}
