// The four benchmark workloads. Each keeps its own copy of the engine
// settings it runs under (executors, capacities, disk throttle), so edits to
// other benches cannot change what this benchmark measures.
#include <algorithm>
#include <any>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "benchmark/bench.h"
#include "src/blaze/blaze_coordinator.h"
#include "src/blaze/profiler.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/workloads/datagen.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/pagerank.h"

namespace blaze::bench {
namespace {

constexpr size_t kExecutors = 4;
constexpr size_t kThreadsPerExecutor = 2;

EngineConfig BaseConfig(uint64_t capacity_per_executor, uint64_t disk_bytes_per_sec) {
  EngineConfig config;
  config.num_executors = kExecutors;
  config.threads_per_executor = kThreadsPerExecutor;
  config.memory_capacity_per_executor = capacity_per_executor;
  config.disk_throughput_bytes_per_sec = disk_bytes_per_sec;
  return config;
}

std::unique_ptr<CacheCoordinator> MakeLru(EngineContext* engine) {
  return std::make_unique<PolicyCoordinator>(engine, MakePolicy("lru"),
                                             EvictionMode::kMemAndDisk);
}

// --- iterative applications -------------------------------------------------------

// An application's output as raw doubles, compared bit for bit: caching
// decisions must never change results.
using Output = std::vector<double>;
using AppFn = std::function<Output(EngineContext&, const WorkloadParams&)>;

bool SameBits(const Output& a, const Output& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Output PageRankOutput(EngineContext& engine, const WorkloadParams& params) {
  const PageRankResult result = RunPageRank(engine, params);
  return {result.rank_sum, static_cast<double>(result.num_vertices)};
}

Output KMeansOutput(EngineContext& engine, const WorkloadParams& params) {
  const KMeansResult result = RunKMeans(engine, params);
  Output out{result.inertia};
  for (const std::vector<double>& centroid : result.centroids) {
    out.insert(out.end(), centroid.begin(), centroid.end());
  }
  return out;
}

// One unit of work is one whole application run, timed as the paper times
// ACT: for Blaze it includes the dependency-extraction (profiling) run.
// A seed stands for one or more inputs (variants); rounds cycle over them.
class IterativeWorkload : public Workload {
 public:
  // Seed of variant `v`'s input, as passed in WorkloadParams::seed.
  using InputSeedFn = std::function<uint64_t(size_t v)>;

  IterativeWorkload(AppFn app, WorkloadParams params, uint64_t capacity_per_executor,
                    bool blaze, size_t variants, InputSeedFn input_seed)
      : app_(std::move(app)),
        params_(params),
        capacity_(static_cast<uint64_t>(static_cast<double>(capacity_per_executor) *
                                        params.scale)),
        blaze_(blaze),
        input_seed_(std::move(input_seed)),
        input_seeds_(variants),
        references_(variants) {}

  size_t variants() const override { return input_seeds_.size(); }

  void PrepareReference() override {
    // Everything fits at 1 GiB per executor, so nothing is evicted or
    // recomputed: the plain answer every cached configuration must match.
    for (size_t v = 0; v < variants(); ++v) {
      EngineContext engine(BaseConfig(GiB(1), kDiskThroughput));
      engine.SetCoordinator(MakeLru(&engine));
      references_[v] = app_(engine, Params(v));
    }
  }

  RoundResult RunRound(size_t variant, Probe* probe) override {
    const WorkloadParams params = Params(variant);
    RoundResult round;
    Stopwatch setup;
    auto engine = std::make_unique<EngineContext>(BaseConfig(capacity_, kDiskThroughput));
    BlazeCoordinator* blaze = nullptr;
    if (blaze_) {
      auto coordinator = std::make_unique<BlazeCoordinator>(engine.get(), BlazeOptions::Full());
      blaze = coordinator.get();
      engine->SetCoordinator(std::move(coordinator));
    } else {
      engine->SetCoordinator(MakeLru(engine.get()));
    }
    round.setup_ms = setup.ElapsedMillis();

    Stopwatch work;
    if (blaze != nullptr) {
      // Re-done here instead of through RunWithBlaze so that profiling is a
      // phase of its own in the traced run.
      Mark(probe, Phase::kProfile);
      const WorkloadParams sample = params.ForProfiling();
      const ProfilingResult profiling = ExtractDependencies(
          [&](EngineContext& scratch) { app_(scratch, sample); }, engine->num_executors());
      blaze->SeedProfile(profiling.profile);
    }
    Mark(probe, Phase::kRun);
    const Output out = app_(*engine, params);
    round.unit_ms.push_back(work.ElapsedMillis());
    Mark(probe, Phase::kEnd);
    engine.reset();
    round.work_ms = work.ElapsedMillis();
    if (references_[variant].has_value() && !SameBits(out, *references_[variant])) {
      round.failed = 1;
    }
    return round;
  }

  const char* unit_name() const override { return "application"; }
  // A run holds a few dozen applications: the upper quartile.
  double tail_quantile() const override { return 0.75; }

 private:
  static constexpr uint64_t kDiskThroughput = 32ULL << 20;  // gp2-class MB/s

  WorkloadParams Params(size_t variant) {
    if (!input_seeds_[variant].has_value()) {
      input_seeds_[variant] = input_seed_(variant);
    }
    WorkloadParams params = params_;
    params.seed = *input_seeds_[variant];
    return params;
  }

  AppFn app_;
  WorkloadParams params_;
  uint64_t capacity_;
  bool blaze_;
  InputSeedFn input_seed_;
  std::vector<std::optional<uint64_t>> input_seeds_;
  std::vector<std::optional<Output>> references_;
};

WorkloadParams IterativeParams(uint64_t seed, bool smoke) {
  WorkloadParams params;
  params.partitions = 16;
  params.iterations = 8;
  params.scale = smoke ? 0.1 : 1.0;
  params.seed = seed;
  return params;
}

// PageRank's generator gives each vertex a Zipf out-degree by a hashed rank,
// so how many vertices land on the top few ranks (each holding up to a fifth
// of all edges) is left to chance: between seeds the edge count moves by
// +-30%, and ACT with it. Variant `v` of a seed is therefore the first graph,
// in a sequence derived from (seed, v), whose edge count is within 2% of the
// nominal vertices x 15, and one seed stands for several such graphs.
uint64_t PageRankGraphSeed(const WorkloadParams& params, size_t variant) {
  // Mirrors RunPageRank's generator arguments (src/workloads/pagerank.cc).
  const auto vertices = static_cast<uint32_t>(std::max(64.0, 60000.0 * params.scale));
  constexpr uint32_t kExtraDegree = 14;
  constexpr double kAlpha = 1.55;
  const double nominal = static_cast<double>(vertices) * (1 + kExtraDegree);
  constexpr double kTolerance = 0.02;

  Rng candidates(params.seed * 1000003 + variant);
  uint64_t best = 0;
  double best_error = std::numeric_limits<double>::infinity();
  // At ~1 in 10 candidates accepted, 200 tries always find one.
  for (int tries = 0; tries < 200 && best_error > kTolerance; ++tries) {
    const uint64_t candidate = candidates.NextU64() >> 16;
    size_t edges = 0;
    for (uint32_t p = 0; p < params.partitions && edges <= nominal * (1 + kTolerance); ++p) {
      edges += GeneratePowerLawEdges(p, params.partitions, vertices, kExtraDegree, kAlpha,
                                     candidate)
                   .size();
    }
    const double error = std::abs(static_cast<double>(edges) / nominal - 1.0);
    if (error < best_error) {
      best = candidate;
      best_error = error;
    }
  }
  return best;
}

// --- serving mix --------------------------------------------------------------------

// Closed-loop job serving against a pool of pre-cached pair datasets: the
// shape of a long-running job server. One unit of work is one job.
class ServeMix : public Workload {
 public:
  using Row = std::pair<uint32_t, uint64_t>;

  ServeMix(uint64_t seed, bool smoke)
      : seed_(seed), jobs_(smoke ? 400 : 4000), traced_jobs_(smoke ? 400 : 1000) {
    // The pool and each job's expected answer are fixed per seed, so every
    // job's count can be checked.
    Rng gen(seed);
    for (int d = 0; d < kDatasets; ++d) {
      std::vector<Row> rows;
      rows.reserve(kRowsPerDataset);
      std::unordered_set<uint32_t> keys;
      for (size_t i = 0; i < kRowsPerDataset; ++i) {
        rows.emplace_back(static_cast<uint32_t>(gen.NextU64(kKeys)), gen.NextU64());
        keys.insert(rows.back().first);
      }
      distinct_keys_.push_back(keys.size());
      rows_.push_back(std::move(rows));
    }
  }

  void PrepareReference() override {}

  RoundResult RunRound(size_t /*variant*/, Probe* probe) override {
    RoundResult round;
    Stopwatch setup;
    EngineConfig config =
        BaseConfig(kRowsPerDataset * sizeof(Row) * kDatasets * 6 / 10 / kExecutors,
                   kDiskThroughput);
    // Shuffle outputs of finished jobs are dropped after four jobs, so the
    // 15% ReduceByKey jobs keep the shuffle pool cycling.
    config.shuffle_retention_jobs = 4;
    auto engine = std::make_unique<EngineContext>(config);
    engine->SetCoordinator(MakeLru(engine.get()));
    std::vector<RddPtr<Row>> pool;
    for (int d = 0; d < kDatasets; ++d) {
      auto ds = Parallelize<Row>(engine.get(), "serve.ds" + std::to_string(d), rows_[d],
                                 kPartitions);
      ds->Cache();
      if (ds->Count() != kRowsPerDataset) {
        ++round.failed;
      }
      pool.push_back(std::move(ds));
    }
    // The pool is built once the evictions it caused are on disk.
    engine->DrainAllSpills();
    round.setup_ms = setup.ElapsedMillis();

    Mark(probe, Phase::kRun);
    Stopwatch work;
    const int jobs_per_client = (probe != nullptr ? traced_jobs_ : jobs_) / kClients;
    std::vector<std::vector<double>> latencies(kClients);
    std::vector<uint64_t> failed(kClients, 0);
    std::vector<std::thread> clients;
    for (int d = 0; d < kClients; ++d) {
      clients.emplace_back([&, d] {
        Rng rng(seed_ * 1000 + static_cast<uint64_t>(d) + 1);
        latencies[d].reserve(jobs_per_client);
        for (int j = 0; j < jobs_per_client; ++j) {
          Stopwatch job;
          const size_t ds = rng.NextPowerLaw(kDatasets, kAlpha);
          const bool shuffle = rng.NextDouble() < kShuffleFraction;
          std::shared_ptr<RddBase> target;
          if (shuffle) {
            target = ReduceByKey<uint32_t, uint64_t>(
                pool[ds], [](const uint64_t& a, const uint64_t& b) { return a + b; },
                kPartitions);
          } else {
            target = pool[ds]->Map(
                [](const Row& row) { return row.first ^ static_cast<uint32_t>(row.second); },
                "serve.scan");
          }
          uint64_t rows = 0;
          for (const std::any& part : engine->RunJob(
                   target, [](const BlockPtr& block) -> std::any { return block->NumRows(); },
                   /*raw_blocks=*/true)) {
            rows += std::any_cast<size_t>(part);
          }
          latencies[d].push_back(job.ElapsedMillis());
          if (rows != (shuffle ? distinct_keys_[ds] : kRowsPerDataset)) {
            ++failed[d];
          }
        }
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
    Mark(probe, Phase::kEnd);
    pool.clear();
    engine.reset();
    round.work_ms = work.ElapsedMillis();
    for (int d = 0; d < kClients; ++d) {
      round.unit_ms.insert(round.unit_ms.end(), latencies[d].begin(), latencies[d].end());
      round.failed += failed[d];
    }
    return round;
  }

  const char* unit_name() const override { return "job"; }
  // Thousands of jobs per run: p99 has hundreds of samples beyond it.
  double tail_quantile() const override { return 0.99; }

 private:
  static constexpr int kDatasets = 12;
  static constexpr size_t kRowsPerDataset = 8192;
  static constexpr size_t kPartitions = 8;
  static constexpr uint64_t kKeys = 1024;
  static constexpr double kAlpha = 1.1;  // Zipf skew of dataset popularity
  static constexpr double kShuffleFraction = 0.15;
  static constexpr int kClients = 2;  // closed-loop clients, fewer than cores
  static constexpr uint64_t kDiskThroughput = 64ULL << 20;

  uint64_t seed_;
  int jobs_;
  int traced_jobs_;
  std::vector<std::vector<Row>> rows_;
  std::vector<size_t> distinct_keys_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"pr-blaze", "pr-lru", "kmeans-blaze", "serve-mix"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool smoke) {
  // Capacities per executor: PageRank's reused working set is 2-4x the
  // aggregate store, KMeans' training set fits and its per-iteration
  // intermediates are dropped by auto-unpersist.
  const uint64_t pr_capacity = MiB(1) + KiB(768);
  const uint64_t kmeans_capacity = MiB(3);
  const WorkloadParams params = IterativeParams(seed, smoke);
  // Eight graphs per seed keep the seed-to-seed spread of ACT near 5%.
  const size_t pr_graphs = smoke ? 1 : 8;
  const auto pr_graph = [params](size_t v) { return PageRankGraphSeed(params, v); };
  if (name == "pr-blaze" || name == "pr-lru") {
    return std::make_unique<IterativeWorkload>(PageRankOutput, params, pr_capacity,
                                               /*blaze=*/name == "pr-blaze", pr_graphs,
                                               pr_graph);
  }
  if (name == "kmeans-blaze") {
    // Uniform clusters: the seed moves the points, not the cost.
    return std::make_unique<IterativeWorkload>(KMeansOutput, params, kmeans_capacity,
                                               /*blaze=*/true, 1,
                                               [seed](size_t) { return seed; });
  }
  if (name == "serve-mix") {
    return std::make_unique<ServeMix>(seed, smoke);
  }
  return nullptr;
}

}  // namespace blaze::bench
