// Micro-benchmarks for the event-driven stage-graph scheduler.
//
//  * BM_TwoParentJoinGraph: wall-clock of a join whose two shuffle parents
//    are independent sibling map stages, with map tasks that mix compute and
//    blocking I/O-style waits. The stage graph launches both siblings at
//    submission so they overlap on the executor threads (2 executors x 2
//    threads, one task per executor per stage).
//  * BM_JobsPerSecond/threads:N: N driver threads submitting small narrow
//    jobs against ONE shared engine — scheduler submission overhead and
//    driver-side scalability now that RunJob no longer serializes jobs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/dataflow/typed_block.h"

namespace blaze {
namespace {

// A stand-in for one map task's work: a slice of arithmetic plus a blocking
// wait emulating shuffle/disk I/O. The blocking part is what sibling-stage
// overlap hides: the stage graph keeps both siblings' waits in flight
// together, which holds even where pure compute cannot overlap.
uint64_t TaskWork(uint64_t seed) {
  uint64_t h = seed | 1;
  for (int i = 0; i < 1'000'000; ++i) {
    h = h * 1315423911ULL + static_cast<uint64_t>(i);
    h ^= h >> 17;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return h;
}

// Fresh RDD chains every iteration (fresh shuffle ids), so stage skipping
// never turns later iterations into result-stage-only runs.
void RunTwoParentJoin(EngineContext* engine, int round) {
  const std::string tag = std::to_string(round);
  auto make_side = [&](const char* side) {
    auto base = Parallelize<std::pair<uint32_t, int>>(
        engine, std::string("sched.") + side + tag, {{0, 1}, {1, 2}}, 2);
    auto heavy = base->Map([](const std::pair<uint32_t, int>& row) {
      return std::make_pair(row.first,
                            row.second + static_cast<int>(TaskWork(row.first) & 1));
    });
    return ReduceByKey<uint32_t, int>(
        heavy, [](const int& a, const int& b) { return a + b; }, 2);
  };
  auto joined = JoinCoPartitioned(make_side("l"), make_side("r"));
  benchmark::DoNotOptimize(joined->Collect());
}

void BM_TwoParentJoinGraph(benchmark::State& state) {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = MiB(32);
  EngineContext engine(config);
  int round = 0;
  for (auto _ : state) {
    RunTwoParentJoin(&engine, round++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoParentJoinGraph)->Unit(benchmark::kMillisecond)->UseRealTime();

// Shared engine for the whole process (magic static): benchmark worker
// threads act as concurrent drivers, so per-run setup would race.
EngineContext& SharedEngine() {
  static EngineConfig config = [] {
    EngineConfig c;
    c.num_executors = 4;
    c.threads_per_executor = 2;
    c.memory_capacity_per_executor = MiB(32);
    return c;
  }();
  static EngineContext engine(config);
  return engine;
}

void BM_JobsPerSecond(benchmark::State& state) {
  EngineContext& engine = SharedEngine();
  // One narrow chain per driver thread, reused across iterations: the job
  // itself is tiny, so iterations measure submission + completion overhead.
  auto base = Parallelize<int>(&engine,
                               "sched.jps" + std::to_string(state.thread_index()),
                               {1, 2, 3, 4, 5, 6, 7, 8}, 4);
  auto mapped = base->Map([](const int& x) { return x + 1; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapped->Count());
  }
  state.SetItemsProcessed(state.iterations());  // items/sec == jobs/sec/driver
}
BENCHMARK(BM_JobsPerSecond)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace blaze

BENCHMARK_MAIN();
