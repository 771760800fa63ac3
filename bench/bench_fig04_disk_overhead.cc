// Paper Fig. 4: accumulated task execution time on MEM+DISK Spark, split into
// disk I/O for caching (incl. (de)serialization) vs computation+shuffle, for
// all six applications. The graph workloads should show the largest disk
// share (paper: PR > 70%).
#include <iostream>

#include "bench/harness.h"
#include "src/metrics/report.h"
#include "src/workloads/workload.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  TextTable table;
  table.AddRow({"workload", "disk I/O (ms)", "compute+shuffle (ms)", "disk share"});
  for (const std::string& workload : AllWorkloadNames()) {
    const BenchResult result = RunBench({workload, "spark-memdisk"});
    const TaskMetrics& t = result.metrics.total_task;
    const double total = t.compute_ms + t.cache_disk_ms;
    table.AddRow({workload, Fmt(t.cache_disk_ms, 1), Fmt(t.compute_ms, 1),
                  Fmt(100.0 * t.cache_disk_ms / total, 1) + "%"});
  }
  std::cout << table.Render(
      "Fig. 4: accumulated task time breakdown on MEM+DISK Spark (LRU)");
  return 0;
}
