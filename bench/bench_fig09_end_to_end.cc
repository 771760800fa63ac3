// Paper Fig. 9: end-to-end application completion time (ACT) for the six
// workloads under Spark (MEM), Spark (MEM+DISK), Spark+Alluxio, LRC, MRD,
// and Blaze. Prints one row per workload with the ACT per system and the
// speedup of Blaze over the MEM_ONLY and MEM+DISK baselines (the paper's
// headline 2.02-2.52x and 1.08-2.86x ranges).
//
// BLAZE_BENCH_WORKLOADS / BLAZE_BENCH_SYSTEMS (comma-separated) restrict the
// sweep; the speedup columns appear only when their baselines are included.
#include <iostream>

#include "bench/harness.h"
#include "src/metrics/report.h"
#include "src/workloads/workload.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  const auto systems = FilterFromEnv(HeadlineSystems(), "BLAZE_BENCH_SYSTEMS");
  const auto workloads = FilterFromEnv(AllWorkloadNames(), "BLAZE_BENCH_WORKLOADS");
  const auto has = [&](const char* s) {
    for (const auto& system : systems) {
      if (system == s) {
        return true;
      }
    }
    return false;
  };
  const bool speedups = has("blaze") && has("spark-mem") && has("spark-memdisk");

  TextTable table;
  std::vector<std::string> header{"workload"};
  for (const auto& system : systems) {
    header.push_back(SystemLabel(system) + " (ms)");
  }
  if (speedups) {
    header.push_back("Blaze vs MEM");
    header.push_back("Blaze vs MEM+DISK");
  }
  table.AddRow(header);

  for (const std::string& workload : workloads) {
    std::vector<std::string> row{workload};
    double mem_ms = 0.0;
    double memdisk_ms = 0.0;
    double blaze_ms = 0.0;
    for (const auto& system : systems) {
      const BenchResult result = RunBench({workload, system});
      row.push_back(Fmt(result.act_ms, 1));
      if (system == "spark-mem") {
        mem_ms = result.act_ms;
      } else if (system == "spark-memdisk") {
        memdisk_ms = result.act_ms;
      } else if (system == "blaze") {
        blaze_ms = result.act_ms;
      }
    }
    if (speedups) {
      row.push_back(Fmt(mem_ms / blaze_ms, 2) + "x");
      row.push_back(Fmt(memdisk_ms / blaze_ms, 2) + "x");
    }
    table.AddRow(row);
    std::cout << "." << std::flush;
  }
  std::cout << "\n"
            << table.Render("Fig. 9: end-to-end ACT per system (lower is better)");
  return 0;
}
