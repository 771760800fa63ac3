// Paper Fig. 5: total recomputation time per iteration of PageRank on
// MEM_ONLY Spark. Later iterations recompute longer lineages (the narrow
// rank-update chain), so per-iteration recomputation time grows.
#include <algorithm>
#include <iostream>
#include <map>

#include "bench/harness.h"
#include "src/metrics/report.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  const BenchResult result = RunBench({"pr", "spark-mem"});
  TextTable table;
  table.AddRow({"iteration", "total recomputation time (ms)"});
  // PR jobs: job 0 materializes links+ranks0, jobs 1..N are the iterations,
  // the final job (the rank aggregate) folds into the last iteration.
  std::map<int, double> per_iteration;
  for (const auto& [job, ms] : result.metrics.recompute_ms_per_job) {
    if (job == 0) {
      continue;
    }
    per_iteration[std::min(job, 10)] += ms;
  }
  double early = 0.0;
  double late = 0.0;
  for (const auto& [iteration, ms] : per_iteration) {
    table.AddRow({std::to_string(iteration), Fmt(ms, 1)});
    (iteration <= 5 ? early : late) += ms;
  }
  std::cout << table.Render("Fig. 5: PR recomputation time per iteration (MEM_ONLY Spark)");
  std::cout << "first-half total: " << Fmt(early, 1) << " ms, second-half total: "
            << Fmt(late, 1) << " ms (ratio " << Fmt(late / std::max(1.0, early), 2) << "x)\n";
  return 0;
}
