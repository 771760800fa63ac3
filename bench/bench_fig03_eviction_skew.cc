// Paper Fig. 3: dataset-granularity caching causes uneven eviction volume
// across executor machines (PageRank, MEM+DISK Spark, 10 executors). The
// power-law in-degree distribution concentrates some adjacency/contribution
// partitions on a few executors, whose stores then thrash.
#include <iostream>

#include "bench/harness.h"
#include <memory>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/units.h"
#include "src/metrics/report.h"
#include "src/workloads/pagerank.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  EngineConfig config;
  config.num_executors = 10;  // the paper's ten executor machines
  config.threads_per_executor = 1;
  config.memory_capacity_per_executor = KiB(920);  // same aggregate as the Fig. 9 PR runs
  config.disk_throughput_bytes_per_sec = 32ULL << 20;
  EngineContext engine(config);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  PageRankWorkload workload;
  WorkloadParams params = workload.DefaultParams();
  params.partitions = 20;  // 2 partitions per executor, as 2 executors/machine
  workload.MakeDriver(params)(engine);

  const auto snap = engine.metrics().Snapshot();
  TextTable table;
  table.AddRow({"executor", "evicted data"});
  uint64_t min_bytes = ~0ull;
  uint64_t max_bytes = 0;
  for (size_t e = 0; e < snap.evicted_bytes_per_executor.size(); ++e) {
    const uint64_t bytes = snap.evicted_bytes_per_executor[e];
    table.AddRow({std::to_string(e + 1), FormatBytes(bytes)});
    min_bytes = std::min(min_bytes, bytes);
    max_bytes = std::max(max_bytes, bytes);
  }
  std::cout << table.Render("Fig. 3: evicted data per executor (PR, MEM+DISK, LRU)");
  std::cout << "max/min eviction skew across executors: "
            << Fmt(static_cast<double>(max_bytes) / std::max<uint64_t>(1, min_bytes), 2)
            << "x\n";
  return 0;
}
