// Tail-latency SLO traffic harness: replays a stream of small concurrent
// jobs — N closed-loop simulated drivers issuing scans and shuffles against a
// shared pool of cached datasets with Zipfian popularity skew — and reports
// p50/p95/p99 job latency, jobs/sec, and rows/sec *from the live telemetry
// registry* (sched.job_latency_ms et al.), the production-shaped complement
// to the paper-figure ACT benches.
//
// The run doubles as an end-to-end check of the telemetry plane: the engine
// serves /metrics and /stats on an ephemeral loopback port for the whole run,
// and before teardown the harness fetches both, validates /stats with the
// in-tree JSON parser, cross-checks its counters against the registry, and
// exits nonzero on any malformation — so the CI smoke (tools/ci.sh) fails if
// the endpoints ever serve garbage under real concurrency.
//
// Two arrival models:
//   closed (default) — N driver threads issue the next job only after the
//     previous one returns. Throughput adapts to the system; latency hides
//     queueing (coordinated omission).
//   open — jobs arrive on a Poisson process at a fixed offered rate and are
//     submitted asynchronously (DagScheduler::SubmitJob) regardless of how
//     many are still in flight, so a slow system builds a real queue and the
//     reported percentiles include the queueing delay a fixed-rate client
//     would actually see. Arrival times are absolute (pre-scheduled against
//     the run start), so a late submission doesn't shift later arrivals.
//
// Env knobs (all optional):
//   BLAZE_SLO_MODE=closed|open  arrival model                  (default closed)
//   BLAZE_SLO_RATE=F         open-loop offered rate, jobs/sec  (default 100)
//   BLAZE_SLO_DRIVERS=N      closed-loop driver threads        (default 4)
//   BLAZE_SLO_JOBS=N         total measured jobs              (default 240)
//   BLAZE_SLO_DATASETS=N     cached datasets in the pool      (default 12)
//   BLAZE_SLO_ALPHA=F        Zipf skew of dataset popularity  (default 1.1)
//   BLAZE_SLO_SHUFFLE_FRAC=F fraction of jobs that shuffle    (default 0.15)
//   BLAZE_SLO_MAX_P99_MS=F   exit 1 if p99 exceeds this       (default off)
//   BLAZE_SLO_TENANTS=spec   multi-tenant SLO classes (closed mode only):
//                            comma list of name:drivers[:max_p99_ms], e.g.
//                            "gold:2,bronze:6" or "gold:2:50,bronze:6:500".
//                            The engine runs multi-tenant (equal shares, no
//                            admission caps), every class driver submits via
//                            RunJobAs, and the report adds one line per class
//                            with its own p50/p95/p99 and hit rate. A class
//                            with a max_p99_ms bound fails the run (exit 1)
//                            when exceeded.
//   BLAZE_TRACE=PATH         record the measured phase with the flight
//                            recorder and export Chrome trace + audit JSONL
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/http.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"
#include "src/common/units.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/metrics/exporter.h"
#include "src/metrics/registry.h"

namespace blaze {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? static_cast<uint64_t>(std::atoll(v)) : fallback;
}

struct SloClass {
  std::string name;
  int drivers = 1;
  double max_p99_ms = 0.0;  // 0 = report only, no bound
  TenantId tenant = 0;
};

// "gold:2:50,bronze:6" -> classes. Empty vector on a malformed spec.
std::vector<SloClass> ParseSloClasses(const std::string& spec) {
  std::vector<SloClass> classes;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      continue;
    }
    SloClass cls;
    const size_t c1 = entry.find(':');
    cls.name = entry.substr(0, c1);
    if (cls.name.empty()) {
      return {};
    }
    if (c1 != std::string::npos) {
      const size_t c2 = entry.find(':', c1 + 1);
      cls.drivers = std::atoi(entry.substr(c1 + 1, c2 - c1 - 1).c_str());
      if (c2 != std::string::npos) {
        cls.max_p99_ms = std::atof(entry.substr(c2 + 1).c_str());
      }
    }
    if (cls.drivers <= 0) {
      return {};
    }
    classes.push_back(std::move(cls));
  }
  return classes;
}

// Exact percentile over the per-class sample set (nearest-rank). The global
// report keeps using the registry histogram; per-class samples are collected
// driver-side because the histogram has no tenant dimension.
double SamplePercentile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

struct SloParams {
  int drivers = 4;
  int jobs = 240;          // measured jobs, split across drivers
  int datasets = 12;
  double alpha = 1.1;      // Zipf skew: rank r drawn ~ (r+1)^-alpha
  double shuffle_frac = 0.15;
  size_t partitions = 8;
  size_t rows_per_dataset = 8192;  // ~96 KiB of pair<uint32_t,uint64_t> rows
};

// Validates the live endpoints while the engine is still up. Returns false
// (with a message on stderr) on any malformation — this is the CI contract.
bool ValidateTelemetry(uint16_t port, uint64_t min_jobs_completed) {
  std::string error;
  const auto stats = HttpGetLocal(port, "/stats", &error);
  if (!stats.has_value()) {
    std::fprintf(stderr, "traffic_slo: GET /stats failed: %s\n", error.c_str());
    return false;
  }
  const auto parsed = json::Parse(*stats, &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "traffic_slo: /stats is not valid JSON: %s\n", error.c_str());
    return false;
  }
  const json::Value* counters = parsed->Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    std::fprintf(stderr, "traffic_slo: /stats lacks a counters object\n");
    return false;
  }
  const json::Value* completed = counters->Find("sched.jobs_completed");
  if (completed == nullptr || !completed->is_number() ||
      static_cast<uint64_t>(completed->as_number()) < min_jobs_completed) {
    std::fprintf(stderr,
                 "traffic_slo: /stats sched.jobs_completed missing or below %llu\n",
                 static_cast<unsigned long long>(min_jobs_completed));
    return false;
  }
  // The /stats snapshot and a direct registry snapshot must tell one story
  // (both are fed by the same chokepoints; allow in-flight-free equality
  // since all jobs are joined by now).
  const RegistrySnapshot reg = MetricsRegistry::Global().Snapshot();
  const uint64_t* reg_completed = reg.FindCounter("sched.jobs_completed");
  if (reg_completed == nullptr ||
      static_cast<uint64_t>(completed->as_number()) != *reg_completed) {
    std::fprintf(stderr, "traffic_slo: /stats (%llu) and registry (%llu) disagree on "
                 "sched.jobs_completed\n",
                 static_cast<unsigned long long>(completed->as_number()),
                 static_cast<unsigned long long>(reg_completed ? *reg_completed : 0));
    return false;
  }
  const auto metrics = HttpGetLocal(port, "/metrics", &error);
  if (!metrics.has_value()) {
    std::fprintf(stderr, "traffic_slo: GET /metrics failed: %s\n", error.c_str());
    return false;
  }
  if (metrics->find("# TYPE blaze_sched_jobs_completed counter") == std::string::npos ||
      metrics->find("blaze_sched_job_latency_ms_count") == std::string::npos) {
    std::fprintf(stderr, "traffic_slo: /metrics lacks expected blaze_sched_* series\n");
    return false;
  }
  return true;
}

int Run() {
  SloParams params;
  params.drivers = static_cast<int>(EnvU64("BLAZE_SLO_DRIVERS", params.drivers));
  params.jobs = static_cast<int>(EnvU64("BLAZE_SLO_JOBS", params.jobs));
  params.datasets = static_cast<int>(EnvU64("BLAZE_SLO_DATASETS", params.datasets));
  params.alpha = EnvDouble("BLAZE_SLO_ALPHA", params.alpha);
  params.shuffle_frac = EnvDouble("BLAZE_SLO_SHUFFLE_FRAC", params.shuffle_frac);
  const double max_p99_ms = EnvDouble("BLAZE_SLO_MAX_P99_MS", 0.0);
  const char* trace_path = std::getenv("BLAZE_TRACE");

  // Multi-tenant SLO classes: each class gets its own tenant identity, its own
  // closed-loop driver pool, and its own percentile report.
  std::vector<SloClass> classes;
  if (const char* spec = std::getenv("BLAZE_SLO_TENANTS");
      spec != nullptr && *spec != '\0') {
    classes = ParseSloClasses(spec);
    if (classes.empty()) {
      std::fprintf(stderr,
                   "traffic_slo: malformed BLAZE_SLO_TENANTS (want "
                   "name:drivers[:max_p99_ms],...)\n");
      return 2;
    }
    params.drivers = 0;
    for (const SloClass& cls : classes) {
      params.drivers += cls.drivers;
    }
  }

  const uint64_t dataset_bytes =
      params.rows_per_dataset * sizeof(std::pair<uint32_t, uint64_t>);
  EngineConfig config;
  config.num_executors = 4;
  config.threads_per_executor = 2;
  // ~60% of the pool fits: the blocks evicted while the pool is warmed are
  // served from disk afterwards (disk hits are not re-admitted), so the
  // measured phase evicts nothing and the pressure is on the disk read path.
  config.memory_capacity_per_executor =
      dataset_bytes * static_cast<uint64_t>(params.datasets) * 6 / 10 / config.num_executors;
  config.disk_throughput_bytes_per_sec = 64ULL << 20;
  config.shuffle_retention_jobs = 4;
  config.telemetry_port = 0;  // ephemeral: the whole run serves /metrics + /stats
  if (!classes.empty()) {
    config.multi_tenant = true;
    for (const SloClass& cls : classes) {
      TenantSpec spec;
      spec.name = cls.name;  // equal shares, no admission caps: SLO classes
      config.tenants.push_back(std::move(spec));
    }
  }
  EngineContext engine(config);
  for (size_t c = 0; c < classes.size(); ++c) {
    const auto tenant = engine.tenants()->FindByName(classes[c].name);
    if (!tenant.has_value()) {
      std::fprintf(stderr, "traffic_slo: duplicate class name %s\n",
                   classes[c].name.c_str());
      return 2;
    }
    classes[c].tenant = *tenant;
  }
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  if (engine.exporter() == nullptr || !engine.exporter()->ok()) {
    std::fprintf(stderr, "traffic_slo: telemetry exporter failed to start\n");
    return 1;
  }
  const uint16_t port = engine.exporter()->port();

  // The shared dataset pool, each cached and pre-warmed so the measured phase
  // sees steady-state cache behavior (memory and disk hits), not first-touch
  // materialization.
  std::vector<RddPtr<std::pair<uint32_t, uint64_t>>> pool;
  pool.reserve(params.datasets);
  Rng gen_rng(42);
  for (int d = 0; d < params.datasets; ++d) {
    std::vector<std::pair<uint32_t, uint64_t>> rows;
    rows.reserve(params.rows_per_dataset);
    for (size_t i = 0; i < params.rows_per_dataset; ++i) {
      rows.emplace_back(static_cast<uint32_t>(gen_rng.NextU64(1024)), gen_rng.NextU64());
    }
    auto ds = Parallelize<std::pair<uint32_t, uint64_t>>(
        &engine, "slo_ds" + std::to_string(d), std::move(rows), params.partitions);
    ds->Cache();
    ds->Count();  // warm
    pool.push_back(std::move(ds));
  }

  // Per-phase deltas: everything before this line (warmup, dataset builds) is
  // excluded from the reported percentiles. Callback gauges are live views
  // and unaffected.
  MetricsRegistry::Global().Reset();
  if (trace_path != nullptr && *trace_path != '\0') {
    trace::Start();
  }

  const char* mode_env = std::getenv("BLAZE_SLO_MODE");
  const std::string mode = mode_env != nullptr && *mode_env != '\0' ? mode_env : "closed";
  if (mode != "closed" && mode != "open") {
    std::fprintf(stderr, "traffic_slo: BLAZE_SLO_MODE must be closed or open\n");
    return 2;
  }
  if (!classes.empty() && mode != "closed") {
    std::fprintf(stderr, "traffic_slo: BLAZE_SLO_TENANTS requires closed mode\n");
    return 2;
  }
  const double rate = EnvDouble("BLAZE_SLO_RATE", 100.0);

  std::atomic<uint64_t> rows_counted{0};
  std::vector<std::vector<double>> class_lat(classes.size());
  const int jobs_per_driver = params.jobs / params.drivers;
  const int expected_jobs = mode == "open" ? params.jobs : jobs_per_driver * params.drivers;
  Stopwatch wall;
  if (mode == "open") {
    // Open loop: arrivals are pre-scheduled against the run start on a Poisson
    // process at the offered rate; each arrival is submitted asynchronously
    // and the handles are only joined after the last arrival, so in-flight
    // jobs never gate the next submission.
    Rng rng(0xB1A2E5ULL);
    std::vector<JobHandle> handles;
    handles.reserve(params.jobs);
    const auto count_rows = [](const BlockPtr& block) -> std::any {
      return block->NumRows();
    };
    const auto start = std::chrono::steady_clock::now();
    double arrival_s = 0.0;
    for (int j = 0; j < params.jobs; ++j) {
      arrival_s += -std::log(1.0 - rng.NextDouble()) / rate;
      std::this_thread::sleep_until(start + std::chrono::duration<double>(arrival_s));
      auto& ds = pool[rng.NextPowerLaw(pool.size(), params.alpha)];
      if (rng.NextDouble() < params.shuffle_frac) {
        auto reduced = ReduceByKey<uint32_t, uint64_t>(
            ds, [](const uint64_t& a, const uint64_t& b) { return a + b; },
            params.partitions);
        handles.push_back(
            engine.scheduler().SubmitJob(reduced, count_rows, /*raw_blocks=*/true));
      } else {
        auto mapped = ds->Map(
            [](const std::pair<uint32_t, uint64_t>& row) {
              return row.first ^ static_cast<uint32_t>(row.second);
            },
            "slo_scan");
        handles.push_back(
            engine.scheduler().SubmitJob(mapped, count_rows, /*raw_blocks=*/true));
      }
    }
    for (JobHandle& handle : handles) {
      uint64_t rows = 0;
      for (std::any& result : handle.Wait()) {
        rows += std::any_cast<size_t>(result);
      }
      rows_counted.fetch_add(rows, std::memory_order_relaxed);
    }
  } else {
    // Per-driver class assignment: class 0's drivers first, then class 1's,
    // etc. Single-tenant runs leave every slot unassigned (-1).
    std::vector<int> driver_class(params.drivers, -1);
    if (!classes.empty()) {
      int slot = 0;
      for (size_t c = 0; c < classes.size(); ++c) {
        for (int d = 0; d < classes[c].drivers; ++d) {
          driver_class[slot++] = static_cast<int>(c);
        }
      }
    }
    // Per-driver latency samples, merged per class after the join (the
    // registry job histogram has no tenant dimension).
    std::vector<std::vector<double>> driver_lat(params.drivers);
    std::vector<std::thread> drivers;
    drivers.reserve(params.drivers);
    for (int d = 0; d < params.drivers; ++d) {
      drivers.emplace_back([&, d] {
        Rng rng(0xB1A2E5ULL + static_cast<uint64_t>(d));
        const int cls = driver_class[d];
        const auto count_rows = [](const BlockPtr& block) -> std::any {
          return block->NumRows();
        };
        // Tenant-attributed action: RunJobAs routes through admission and the
        // per-tenant hit/miss chokepoint; plain Count() otherwise.
        const auto run = [&](const std::shared_ptr<RddBase>& target) {
          Stopwatch job_watch;
          uint64_t rows = 0;
          if (cls >= 0) {
            for (std::any& result :
                 engine.RunJobAs(classes[cls].tenant, target, count_rows,
                                 /*raw_blocks=*/true)) {
              rows += std::any_cast<size_t>(result);
            }
            driver_lat[d].push_back(job_watch.ElapsedMillis());
          } else {
            for (std::any& result :
                 engine.RunJob(target, count_rows, /*raw_blocks=*/true)) {
              rows += std::any_cast<size_t>(result);
            }
          }
          rows_counted.fetch_add(rows, std::memory_order_relaxed);
        };
        for (int j = 0; j < jobs_per_driver; ++j) {
          auto& ds = pool[rng.NextPowerLaw(pool.size(), params.alpha)];
          if (rng.NextDouble() < params.shuffle_frac) {
            // Shuffle job: aggregate the dataset by key (map stage + result
            // stage; retention_jobs=4 keeps the shuffle pool cycling).
            run(ReduceByKey<uint32_t, uint64_t>(
                ds, [](const uint64_t& a, const uint64_t& b) { return a + b; },
                params.partitions));
          } else {
            // Scan job: one narrow pass over the cached rows.
            run(ds->Map(
                [](const std::pair<uint32_t, uint64_t>& row) {
                  return row.first ^ static_cast<uint32_t>(row.second);
                },
                "slo_scan"));
          }
        }
      });
    }
    for (std::thread& driver : drivers) {
      driver.join();
    }
    if (!classes.empty()) {
      for (int d = 0; d < params.drivers; ++d) {
        auto& sink = class_lat[static_cast<size_t>(driver_class[d])];
        sink.insert(sink.end(), driver_lat[d].begin(), driver_lat[d].end());
      }
    }
  }
  const double wall_ms = wall.ElapsedMillis();

  if (trace_path != nullptr && *trace_path != '\0') {
    trace::Stop();
    const trace::Dump dump = trace::Drain();
    if (!trace::WriteChromeTrace(dump, trace_path)) {
      std::fprintf(stderr, "traffic_slo: failed to write trace to %s\n", trace_path);
      return 1;
    }
    const std::string base(trace_path);
    const size_t dot = base.rfind('.');
    const std::string audit_path =
        (dot == std::string::npos ? base : base.substr(0, dot)) + ".audit.jsonl";
    std::ofstream audit_file(audit_path, std::ios::trunc);
    engine.audit().WriteJsonl(audit_file);
  }

  // Everything reported below comes from the live registry — the same numbers
  // /metrics and /stats served throughout the run.
  const RegistrySnapshot snap = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* job_hist = snap.FindHistogram("sched.job_latency_ms");
  const uint64_t* jobs_completed = snap.FindCounter("sched.jobs_completed");
  if (job_hist == nullptr || jobs_completed == nullptr ||
      *jobs_completed < static_cast<uint64_t>(expected_jobs)) {
    std::fprintf(stderr, "traffic_slo: registry lost jobs (%llu < %d)\n",
                 jobs_completed != nullptr
                     ? static_cast<unsigned long long>(*jobs_completed)
                     : 0ULL,
                 expected_jobs);
    return 1;
  }
  const double wall_s = wall_ms / 1e3;
  if (mode == "open") {
    std::printf("traffic_slo: mode=open rate=%.1f/s jobs=%llu datasets=%d alpha=%.2f "
                "shuffle=%.0f%%\n",
                rate, static_cast<unsigned long long>(*jobs_completed), params.datasets,
                params.alpha, params.shuffle_frac * 100.0);
  } else {
    std::printf("traffic_slo: mode=closed drivers=%d jobs=%llu datasets=%d alpha=%.2f "
                "shuffle=%.0f%%\n",
                params.drivers, static_cast<unsigned long long>(*jobs_completed),
                params.datasets, params.alpha, params.shuffle_frac * 100.0);
  }
  std::printf("traffic_slo: wall=%.1fms jobs/sec=%.1f rows/sec=%.3g\n", wall_ms,
              static_cast<double>(*jobs_completed) / wall_s,
              static_cast<double>(rows_counted.load()) / wall_s);
  std::printf("traffic_slo: job latency p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
              job_hist->p50_ms, job_hist->p95_ms, job_hist->p99_ms, job_hist->max_ms);
  const uint64_t hits_mem = snap.FindCounter("cache.hits_memory") != nullptr
                                ? *snap.FindCounter("cache.hits_memory")
                                : 0;
  const uint64_t misses =
      snap.FindCounter("cache.misses") != nullptr ? *snap.FindCounter("cache.misses") : 0;
  std::printf("traffic_slo: cache hits_mem=%llu misses=%llu\n",
              static_cast<unsigned long long>(hits_mem),
              static_cast<unsigned long long>(misses));

  // Per-class report + bound enforcement (BLAZE_SLO_TENANTS runs only).
  bool class_bound_failed = false;
  for (size_t c = 0; c < classes.size(); ++c) {
    const SloClass& cls = classes[c];
    std::vector<double>& lat = class_lat[c];
    const double p50 = SamplePercentile(lat, 0.50);
    const double p95 = SamplePercentile(lat, 0.95);
    const double p99 = SamplePercentile(lat, 0.99);
    const auto tenant_counter = [&](const char* which) {
      const uint64_t* v =
          snap.FindCounter(("tenant." + cls.name + "." + which).c_str());
      return v != nullptr ? *v : 0;
    };
    const uint64_t t_hits = tenant_counter("hits");
    const uint64_t t_misses = tenant_counter("misses");
    const uint64_t t_lookups = t_hits + t_misses;
    std::printf("traffic_slo: class %s drivers=%d jobs=%zu p50=%.2fms p95=%.2fms "
                "p99=%.2fms hit%%=%s\n",
                cls.name.c_str(), cls.drivers, lat.size(), p50, p95, p99,
                t_lookups == 0
                    ? "-"
                    : (std::to_string(100 * t_hits / t_lookups) + "%").c_str());
    if (cls.max_p99_ms > 0.0 && p99 > cls.max_p99_ms) {
      std::fprintf(stderr, "FAIL: class %s p99 %.2fms exceeds bound %.2fms\n",
                   cls.name.c_str(), p99, cls.max_p99_ms);
      class_bound_failed = true;
    }
  }

  if (!ValidateTelemetry(port, *jobs_completed)) {
    return 1;
  }
  std::printf("traffic_slo: telemetry endpoints ok (port %u)\n",
              static_cast<unsigned>(port));

  if (max_p99_ms > 0.0 && job_hist->p99_ms > max_p99_ms) {
    std::fprintf(stderr, "FAIL: p99 %.2fms exceeds BLAZE_SLO_MAX_P99_MS=%.2fms\n",
                 job_hist->p99_ms, max_p99_ms);
    return 1;
  }
  return class_bound_failed ? 1 : 0;
}

}  // namespace
}  // namespace blaze

int main() { return blaze::Run(); }
