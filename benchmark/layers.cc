// Per-layer attribution from outside the engine: flight-recorder spans and
// registry counters, split by time into the profiling phase and the measured
// run, then reduced to one value per layer metric.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <functional>
#include <initializer_list>

#include "benchmark/bench.h"
#include "src/common/clock.h"

namespace blaze::bench {

namespace {

// Capacity per emitting thread (136 B per event). The busiest thread of a
// traced round emits about 16k events (serve-mix, 1,000 jobs) and under 1k on
// the iterative workloads; a wrap would drop events, which fails the run.
constexpr size_t kTraceEventsPerThread = 1 << 15;

// Registry counters read by name; a name missing after a refactor reports
// null instead of failing the run.
constexpr const char* kCounters[] = {
    "cache.hits_memory",  "cache.hits_disk",     "cache.misses",
    "cache.evictions_disk", "cache.evictions_discard", "cache.unpersists",
    "audit.admit",        "spill.queue_rejects", "vec.batches",
    "vec.rows",           "vec.materializations_avoided",
};

struct Span {
  uint64_t begin = 0;
  uint64_t end = 0;
};

bool Is(const trace::Event& event, const char* name) {
  return event.name != nullptr && std::strcmp(event.name, name) == 0;
}

double Ms(uint64_t us) { return static_cast<double>(us) / 1e3; }

double ArgNumber(const trace::Event& event, const char* key) {
  for (uint8_t i = 0; i < event.num_args; ++i) {
    const trace::Arg& arg = event.args[i];
    if (arg.key == nullptr || std::strcmp(arg.key, key) != 0) {
      continue;
    }
    switch (arg.type) {
      case trace::ArgType::kInt:
        return static_cast<double>(arg.i);
      case trace::ArgType::kUint:
        return static_cast<double>(arg.u);
      case trace::ArgType::kDouble:
        return arg.d;
      default:
        return 0.0;
    }
  }
  return 0.0;
}

// Length of the union of the spans in [first, last) clipped to [lo, hi];
// the spans are sorted by begin.
template <typename It>
uint64_t CoveredUs(It first, It last, uint64_t lo, uint64_t hi) {
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (; first != last && first->begin < hi; ++first) {
    const uint64_t begin = std::max(first->begin, cursor);
    const uint64_t end = std::min(first->end, hi);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return covered;
}

bool ByBegin(const Span& a, const Span& b) { return a.begin < b.begin; }

}  // namespace

void Probe::Mark(Phase phase) {
  if (!started_) {
    trace::Config config;
    config.capacity_per_thread = kTraceEventsPerThread;
    trace::Start(config);
    started_ = true;
  }
  if (phase == Phase::kEnd) {
    trace::Stop();
  }
  marks_[Index(phase)].us = ProcessMicros();
  marks_[Index(phase)].registry = MetricsRegistry::Global().Snapshot();
}

void AccumulateRound(const trace::Dump& dump, const Probe& probe, uint64_t units,
                     LayerTotals* totals) {
  const uint64_t run_begin = probe.us(Phase::kRun);
  const uint64_t run_end = probe.us(Phase::kEnd);
  totals->units += units;
  if (probe.marked(Phase::kProfile)) {
    totals->profile_ms += Ms(run_begin - probe.us(Phase::kProfile));
  }
  totals->dropped_events += dump.total_dropped();

  for (const trace::ThreadDump& thread : dump.threads) {
    // Task spans and the layer spans nested in them on this thread; a task's
    // self time is its span minus the union of those children.
    std::vector<Span> tasks;
    std::vector<Span> children;
    std::vector<Span> busy_or_parked;
    bool in_run = false;
    for (const trace::Event& event : thread.events) {
      if (event.phase != 'X' && event.phase != 'i') {
        continue;
      }
      const Span span{event.ts_us, event.ts_us + event.dur_us};
      if (Is(event, "task.run") || Is(event, "pool.park")) {
        busy_or_parked.push_back(span);
      }
      // Everything else is attributed to the window its start falls in.
      if (event.ts_us < run_begin || event.ts_us > run_end) {
        continue;
      }
      in_run = true;
      const double ms = Ms(event.dur_us);
      if (Is(event, "task.run")) {
        ++totals->tasks;
        totals->task_ms += ms;
        tasks.push_back(span);
      } else if (Is(event, "job.run")) {
        ++totals->jobs;
      } else if (Is(event, "ilp.plan")) {
        ++totals->plans;
        totals->plan_ms += ms;
      } else if (Is(event, "ilp.solve")) {
        ++totals->solves;
        totals->solve_ms += ms;
        totals->universe_sum += ArgNumber(event, "universe");
      } else if (Is(event, "block.spill")) {
        ++totals->spills;
        totals->spill_ms += ms;
        totals->spill_bytes += ArgNumber(event, "bytes");
        totals->disk_op_ms.push_back(ms);
        children.push_back(span);
      } else if (Is(event, "block.load")) {
        ++totals->loads;
        totals->load_ms += ms;
        totals->load_bytes += ArgNumber(event, "bytes");
        totals->disk_op_ms.push_back(ms);
        children.push_back(span);
      } else if (Is(event, "task.recompute")) {
        ++totals->recomputes;
        totals->recompute_ms += ms;
        children.push_back(span);
      } else if (Is(event, "shuffle.fetch")) {
        ++totals->fetches;
        totals->fetch_ms += ms;
        children.push_back(span);
      } else if (Is(event, "shuffle.put")) {
        totals->put_ms += ms;
        children.push_back(span);
      } else if (Is(event, "task.queue_wait")) {
        totals->queue_wait_ms += ms;
        totals->queue_wait_samples.push_back(ms);
      } else if (Is(event, "pool.park")) {
        totals->park_ms += ms;
      } else if (Is(event, "pool.steal")) {
        ++totals->steals;
      }
    }
    std::sort(children.begin(), children.end(), ByBegin);
    for (const Span& task : tasks) {
      const auto first = std::lower_bound(children.begin(), children.end(), task, ByBegin);
      totals->task_self_ms +=
          Ms(task.end - task.begin - CoveredUs(first, children.end(), task.begin, task.end));
    }
    // Executor threads alive in the run window: the time they spent neither
    // running a task nor parked is overhead no span accounts for.
    if (in_run && thread.name.rfind("executor-", 0) == 0) {
      std::sort(busy_or_parked.begin(), busy_or_parked.end(), ByBegin);
      totals->executor_window_us += static_cast<double>(run_end - run_begin);
      totals->executor_covered_us +=
          static_cast<double>(CoveredUs(busy_or_parked.begin(), busy_or_parked.end(),
                                        run_begin, run_end));
    }
  }

  const RegistrySnapshot& before = probe.registry(Phase::kRun);
  const RegistrySnapshot& after = probe.registry(Phase::kEnd);
  for (const char* name : kCounters) {
    const uint64_t* b = before.FindCounter(name);
    const uint64_t* a = after.FindCounter(name);
    if (a == nullptr || b == nullptr) {
      totals->missing.insert(name);
    } else {
      totals->counters[name] += static_cast<double>(*a - *b);
    }
  }
}

std::vector<Metric> LayerMetrics(const LayerTotals& totals, double cold_unit_ms,
                                 const std::vector<double>& traced_unit_ms,
                                 const std::vector<double>& untraced_unit_ms) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double units = totals.units > 0 ? static_cast<double>(totals.units) : nan;
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::vector<Metric> metrics;
  const auto add = [&](const char* name, const char* unit, double value) {
    metrics.push_back({name, unit, value, 0.0, 0.0, totals.units, ""});
  };
  // Null, with the reason, when any counter the metric reads is missing.
  const auto from_counters = [&](const char* name, const char* unit,
                                 std::initializer_list<const char*> counters,
                                 const std::function<double(const std::vector<double>&)>& fn) {
    std::vector<double> values;
    for (const char* counter : counters) {
      if (totals.missing.count(counter) != 0) {
        metrics.push_back({name, unit, nan, 0.0, 0.0, totals.units,
                           std::string("registry counter ") + counter + " not found"});
        return;
      }
      const auto it = totals.counters.find(counter);
      values.push_back(it == totals.counters.end() ? 0.0 : it->second);
    }
    add(name, unit, fn(values));
  };
  const auto per_unit = [&](const std::vector<double>& v) { return v[0] / units; };

  add("blaze.profile_ms", "ms", totals.profile_ms / units);
  add("blaze.plan_ms", "ms", totals.plan_ms / units);
  add("blaze.plans", "count", static_cast<double>(totals.plans) / units);
  add("solver.solve_ms", "ms", totals.solve_ms / units);
  add("solver.solves", "count", static_cast<double>(totals.solves) / units);
  add("solver.universe_mean", "count",
      ratio(totals.universe_sum, static_cast<double>(totals.solves)));
  from_counters("cache.hits_memory", "count", {"cache.hits_memory"}, per_unit);
  from_counters("cache.hits_disk", "count", {"cache.hits_disk"}, per_unit);
  from_counters("cache.misses", "count", {"cache.misses"}, per_unit);
  from_counters("cache.hit_ratio_memory", "ratio",
                {"cache.hits_memory", "cache.hits_disk", "cache.misses"},
                [&](const std::vector<double>& v) { return ratio(v[0], v[0] + v[1] + v[2]); });
  from_counters("cache.evictions_disk", "count", {"cache.evictions_disk"}, per_unit);
  from_counters("cache.evictions_discard", "count", {"cache.evictions_discard"}, per_unit);
  from_counters("cache.unpersists", "count", {"cache.unpersists"}, per_unit);
  from_counters("cache.admits", "count", {"audit.admit"}, per_unit);
  add("storage.spills", "count", static_cast<double>(totals.spills) / units);
  add("storage.spill_ms", "ms", totals.spill_ms / units);
  add("storage.spill_mb", "MB", totals.spill_bytes / 1e6 / units);
  add("storage.loads", "count", static_cast<double>(totals.loads) / units);
  add("storage.load_ms", "ms", totals.load_ms / units);
  add("storage.load_mb", "MB", totals.load_bytes / 1e6 / units);
  add("storage.spill_read_back_ratio", "ratio",
      ratio(static_cast<double>(totals.loads), static_cast<double>(totals.spills)));
  from_counters("storage.spill_queue_rejects", "count", {"spill.queue_rejects"}, per_unit);
  add("storage.disk_io_p99_ms", "ms",
      totals.disk_op_ms.empty() ? 0.0 : Percentile(totals.disk_op_ms, 0.99));
  add("dataflow.task_self_ms", "ms", totals.task_self_ms / units);
  add("dataflow.tasks", "count", static_cast<double>(totals.tasks) / units);
  add("dataflow.jobs", "count", static_cast<double>(totals.jobs) / units);
  add("dataflow.recompute_ms", "ms", totals.recompute_ms / units);
  add("dataflow.recomputes", "count", static_cast<double>(totals.recomputes) / units);
  add("dataflow.recompute_share", "ratio", ratio(totals.recompute_ms, totals.task_ms));
  add("dataflow.shuffle_fetch_ms", "ms", totals.fetch_ms / units);
  add("dataflow.shuffle_put_ms", "ms", totals.put_ms / units);
  add("dataflow.shuffle_fetches", "count", static_cast<double>(totals.fetches) / units);
  from_counters("dataflow.vec_batches", "count", {"vec.batches"}, per_unit);
  from_counters("dataflow.vec_rows", "count", {"vec.rows"}, per_unit);
  from_counters("dataflow.materializations_avoided", "count",
                {"vec.materializations_avoided"}, per_unit);
  add("dataflow.task_queue_wait_ms", "ms", totals.queue_wait_ms / units);
  add("dataflow.task_queue_wait_p99_ms", "ms",
      totals.queue_wait_samples.empty() ? 0.0 : Percentile(totals.queue_wait_samples, 0.99));
  add("common.pool_park_ms", "ms", totals.park_ms / units);
  add("common.pool_steals", "count", static_cast<double>(totals.steals) / units);
  const double untraced = Median(untraced_unit_ms);
  add("bench.trace_overhead_pct", "%", (Median(traced_unit_ms) - untraced) / untraced * 100.0);
  add("bench.trace_dropped_events", "count", static_cast<double>(totals.dropped_events));
  add("bench.unattributed_pct", "%",
      100.0 * ratio(totals.executor_window_us - totals.executor_covered_us,
                    totals.executor_window_us));
  add("bench.cold_act_ms", "ms", cold_unit_ms);
  return metrics;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::pair<double, double> Quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    const double v = values.empty() ? std::numeric_limits<double>::quiet_NaN() : values[0];
    return {v, v};
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<long>(values.size());
  const long m = n + 1;
  const auto cut = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

}  // namespace blaze::bench
