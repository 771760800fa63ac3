// Storage-layer micro-benchmark for the asynchronous spill pipeline.
//
// Models one executor task slot under cache pressure: every task computes a
// block (fixed simulated compute), then admits it to a small MemoryStore,
// evicting an LRU victim to a throttled disk each time. With
// sync_spill=true the evicting task pays the throttled write inline (the
// pre-PR5 behaviour); with the async pipeline the write moves to the spill
// worker and the task only pays the enqueue. The headline number is the p50
// per-task latency ratio between the two modes.
//
// Invoked by tools/ci.sh with BLAZE_MICRO_STORAGE_MIN_SPEEDUP=1.3: the run
// fails (exit 1) if async does not beat sync by at least that factor.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/dataflow/typed_block.h"
#include "src/metrics/run_metrics.h"
#include "src/storage/block_manager.h"

namespace blaze {
namespace {

constexpr size_t kTasks = 48;
constexpr size_t kBlockInts = 64 * 1024;        // ~256 KiB payload per block
constexpr uint64_t kMemoryCapacity = MiB(2);    // ~8 resident blocks
constexpr uint64_t kDiskThroughput = MiB(32);   // ~8 ms per spilled block
constexpr auto kComputePerTask = std::chrono::milliseconds(10);

struct ModeResult {
  double p50_task_ms = 0.0;
  double total_ms = 0.0;
  uint64_t async_spills = 0;
  uint64_t rejects = 0;
};

// One task-slot's admission path: make room (LRU victim to disk), insert.
// Mirrors PolicyCoordinator::EnsureSpace + BlockComputed without the
// coordinator scaffolding.
void AdmitWithEviction(BlockManager& bm, const BlockId& id, BlockPtr block) {
  const uint64_t size = block->SizeBytes();
  while (bm.memory().free_bytes() < size) {
    auto entries = bm.memory().Entries();
    if (entries.empty()) {
      break;
    }
    size_t victim = 0;
    for (size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].last_access_seq < entries[victim].last_access_seq) {
        victim = i;
      }
    }
    const MemoryEntry& v = entries[victim];
    bm.WriteBack(v.id, v.data, /*charge=*/nullptr);  // inline when full or sync_spill
    if (bm.memory().RemoveIfUnpinned(v.id) == 0) {
      bm.CancelSpill(v.id);
      break;
    }
  }
  (void)bm.memory().TryPut(id, std::move(block), size);
}

ModeResult RunMode(bool sync_spill, const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  RunMetrics metrics(1);
  BlockManagerConfig config;
  config.memory_capacity_bytes = kMemoryCapacity;
  config.disk_dir = dir;
  config.disk_throughput_bytes_per_sec = kDiskThroughput;
  config.sync_spill = sync_spill;
  ModeResult result;
  std::vector<double> task_ms;
  task_ms.reserve(kTasks);
  {
    BlockManager bm(0, config, &metrics);
    Stopwatch total;
    for (size_t t = 0; t < kTasks; ++t) {
      Stopwatch task;
      // Simulated compute: the work the task would do anyway; gives the
      // spill worker its window to drain off-path writes.
      std::this_thread::sleep_for(kComputePerTask);
      BlockPtr block = MakeBlock(std::vector<int>(kBlockInts, static_cast<int>(t)));
      AdmitWithEviction(bm, BlockId{1, static_cast<uint32_t>(t)}, std::move(block));
      task_ms.push_back(task.ElapsedMillis());
    }
    bm.DrainSpills();
    result.total_ms = total.ElapsedMillis();
  }
  std::sort(task_ms.begin(), task_ms.end());
  result.p50_task_ms = task_ms[task_ms.size() / 2];
  const auto snap = metrics.Snapshot();
  result.async_spills = snap.async_spills;
  result.rejects = snap.spill_queue_rejects;
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace
}  // namespace blaze

int main() {
  const auto base = std::filesystem::temp_directory_path() / "blaze_micro_storage";
  const blaze::ModeResult sync_mode = blaze::RunMode(/*sync_spill=*/true, base / "sync");
  const blaze::ModeResult async_mode = blaze::RunMode(/*sync_spill=*/false, base / "async");

  std::printf("micro_storage sync  p50_task_ms=%.2f total_ms=%.1f\n", sync_mode.p50_task_ms,
              sync_mode.total_ms);
  std::printf("micro_storage async p50_task_ms=%.2f total_ms=%.1f async_spills=%llu "
              "queue_rejects=%llu\n",
              async_mode.p50_task_ms, async_mode.total_ms,
              static_cast<unsigned long long>(async_mode.async_spills),
              static_cast<unsigned long long>(async_mode.rejects));
  const double speedup =
      async_mode.p50_task_ms > 0.0 ? sync_mode.p50_task_ms / async_mode.p50_task_ms : 0.0;
  std::printf("micro_storage speedup=%.2fx\n", speedup);

  if (const char* min_env = std::getenv("BLAZE_MICRO_STORAGE_MIN_SPEEDUP")) {
    const double min_speedup = std::atof(min_env);
    if (speedup < min_speedup) {
      std::fprintf(stderr,
                   "micro_storage FAILED: async spill p50 speedup %.2fx < required %.2fx\n",
                   speedup, min_speedup);
      return 1;
    }
  }
  return 0;
}
