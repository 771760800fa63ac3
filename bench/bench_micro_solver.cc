// Micro-benchmark for the MCKP branch-and-bound at cache-decision instance
// sizes, with the production call's node cap and optimality gap. The paper
// bounds each ILP round to seconds; this shows our rounds are
// microseconds-to-milliseconds.
#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/solver/mckp.h"

namespace blaze {
namespace {

std::vector<MckpGroup> CacheInstance(size_t groups, uint64_t seed) {
  Rng rng(seed);
  std::vector<MckpGroup> out;
  out.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    MckpGroup group;
    group.choices.push_back({0.0, static_cast<double>(1 + rng.NextU64(4 << 20))});  // memory
    group.choices.push_back({rng.NextDouble(0.5, 40.0), 0.0});                      // disk
    group.choices.push_back({rng.NextDouble(0.5, 400.0), 0.0});                     // drop
    out.push_back(std::move(group));
  }
  return out;
}

void BM_MckpCacheInstance(benchmark::State& state) {
  const auto groups = CacheInstance(static_cast<size_t>(state.range(0)), 42);
  double total = 0.0;
  for (const auto& group : groups) {
    total += group.choices[0].weight;
  }
  for (auto _ : state) {
    const MckpSolution sol = SolveMckp(groups, total / 3.0, 4000, 0.002);
    benchmark::DoNotOptimize(sol.cost);
  }
}
BENCHMARK(BM_MckpCacheInstance)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace
}  // namespace blaze

BENCHMARK_MAIN();
