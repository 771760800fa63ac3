// Paper Fig. 12: memory-only comparison (no disk tier anywhere): number of
// evictions and accumulated recomputation time of evicted data for MEM_ONLY
// Spark, LRC, MRD, and Blaze(MEM) on PR, CC, LR, and SVD++.
#include <iostream>

#include "bench/harness.h"
#include "src/metrics/report.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  const std::vector<std::string> workloads{"pr", "cc", "lr", "svdpp"};
  const std::vector<std::string> systems{"spark-mem", "lrc-mem", "mrd-mem", "blaze-mem"};

  TextTable evictions;
  TextTable recompute;
  std::vector<std::string> header{"workload"};
  for (const auto& system : systems) {
    header.push_back(SystemLabel(system));
  }
  evictions.AddRow(header);
  recompute.AddRow(header);

  for (const auto& workload : workloads) {
    std::vector<std::string> ev_row{workload};
    std::vector<std::string> rc_row{workload};
    for (const auto& system : systems) {
      const BenchResult result = RunBench({workload, system});
      ev_row.push_back(std::to_string(result.metrics.evictions_discard +
                                      result.metrics.evictions_to_disk));
      rc_row.push_back(Fmt(result.metrics.total_task.recompute_ms, 1));
    }
    evictions.AddRow(ev_row);
    recompute.AddRow(rc_row);
    std::cout << "." << std::flush;
  }
  std::cout << "\n"
            << evictions.Render("Fig. 12a: number of evictions (memory-only systems)")
            << "\n"
            << recompute.Render(
                   "Fig. 12b: accumulated recomputation time of evicted data (ms)");
  return 0;
}
