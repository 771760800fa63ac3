// Design-choice ablation: the ILP's job window (paper §5.5 bounds the set J
// to the current and next job to keep solves punctual). Sweeps the window
// size on PageRank under full Blaze.
#include <iostream>

#include "bench/harness.h"

#include "src/blaze/blaze_runner.h"
#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/metrics/report.h"
#include "src/workloads/pagerank.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  TextTable table;
  table.AddRow({"window (jobs)", "ACT (ms)", "solver total (ms)", "recompute (ms)",
                "evictions"});
  for (int window : {1, 2, 3, 4}) {
    EngineConfig config;
    config.num_executors = 4;
    config.threads_per_executor = 2;
    config.memory_capacity_per_executor = MiB(1) + KiB(768);
    config.disk_throughput_bytes_per_sec = 32ULL << 20;
    EngineContext engine(config);

    WorkloadParams params;
    params.partitions = 16;
    params.iterations = 8;
    params.scale = 0.5;

    BlazeRunConfig run_config;
    run_config.options = BlazeOptions::Full();
    run_config.options.window_jobs = window;
    const WorkloadParams profiling_params = params.ForProfiling();
    run_config.profiling_driver = [profiling_params](EngineContext& e) {
      RunPageRank(e, profiling_params);
    };
    Stopwatch act;
    RunWithBlaze(engine, run_config,
                 [&params](EngineContext& e) { RunPageRank(e, params); });
    const auto snap = engine.metrics().Snapshot();
    table.AddRow({std::to_string(window), Fmt(act.ElapsedMillis(), 1),
                  Fmt(snap.solver_ms, 1), Fmt(snap.total_task.recompute_ms, 1),
                  std::to_string(snap.evictions_to_disk + snap.evictions_discard)});
  }
  std::cout << table.Render("Ablation: ILP window size (PR, full Blaze)");
  return 0;
}
