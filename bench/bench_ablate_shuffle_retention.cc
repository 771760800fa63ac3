// Design-choice ablation: shuffle-output retention.
//
// Our engine (like Spark while a shuffle dependency stays reachable) retains
// shuffle outputs for the whole run, which caps recomputation of shuffled
// datasets at a re-aggregation. This ablation runs PageRank on MEM_ONLY Spark
// with aggressive retention (outputs dropped N jobs after last use): lost map
// outputs must be rebuilt through the lineage inside the recovering task, and
// recomputation explodes — the regime closest to the paper's most expensive
// recovery chains.
#include <iostream>

#include "bench/harness.h"
#include <memory>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/metrics/report.h"
#include "src/workloads/pagerank.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  TextTable table;
  table.AddRow({"shuffle retention", "ACT (ms)", "recompute (ms)", "task total (ms)"});
  for (int retention : {0, 2, 1}) {
    EngineConfig config;
    config.num_executors = 4;
    config.threads_per_executor = 2;
    config.memory_capacity_per_executor = MiB(1) + KiB(256);
    config.shuffle_retention_jobs = retention;
    EngineContext engine(config);
    engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                              EvictionMode::kMemOnly));
    WorkloadParams params;
    params.partitions = 16;
    params.iterations = 10;
    params.scale = 0.5;
    Stopwatch act;
    RunPageRank(engine, params);
    const auto snap = engine.metrics().Snapshot();
    table.AddRow({retention == 0 ? "keep all (default)"
                                 : ("drop after " + std::to_string(retention) + " jobs"),
                  Fmt(act.ElapsedMillis(), 1), Fmt(snap.total_task.recompute_ms, 1),
                  Fmt(snap.total_task.compute_ms + snap.total_task.cache_disk_ms, 1)});
  }
  std::cout << table.Render(
      "Ablation: shuffle retention vs recomputation cost (PR, MEM_ONLY LRU)");
  return 0;
}
