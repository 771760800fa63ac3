// Declarations shared by the standalone benchmark's files: the workload
// interface (workloads.cc), the per-layer probe and trace analysis
// (layers.cc), and the small statistics helpers main.cc reports with.
// README.md explains what is measured and why.
#ifndef BENCHMARK_BENCH_H_
#define BENCHMARK_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/trace.h"
#include "src/metrics/registry.h"

namespace blaze::bench {

// --- tracing probe ----------------------------------------------------------------

// Phase boundaries of one traced round. A workload without a profiling phase
// marks only kRun and kEnd.
enum class Phase { kProfile, kRun, kEnd };

// Handed to a round that should be traced. The workload calls Mark() at each
// phase boundary; the probe starts the flight recorder at the first mark,
// stops it at kEnd, and timestamps every mark and snapshots the metrics
// registry there, so spans and counters can be attributed to the profiling
// phase or to the measured run by time alone.
class Probe {
 public:
  void Mark(Phase phase);

  bool marked(Phase phase) const { return marks_[Index(phase)].us != 0; }
  uint64_t us(Phase phase) const { return marks_[Index(phase)].us; }
  const RegistrySnapshot& registry(Phase phase) const { return marks_[Index(phase)].registry; }

 private:
  struct MarkRecord {
    uint64_t us = 0;
    RegistrySnapshot registry;
  };
  static size_t Index(Phase phase) { return static_cast<size_t>(phase); }

  bool started_ = false;
  MarkRecord marks_[3];
};

// Calls probe->Mark(phase) when the round is traced.
inline void Mark(Probe* probe, Phase phase) {
  if (probe != nullptr) {
    probe->Mark(phase);
  }
}

// --- workloads --------------------------------------------------------------------

// One round: a fresh engine is set up, the measured work runs, and the
// engine is torn down.
struct RoundResult {
  double setup_ms = 0.0;         // engine construction + coordinator (+ dataset pool)
  std::vector<double> unit_ms;   // completion time of each unit of work
  double work_ms = 0.0;          // measured work plus the engine teardown after it
  uint64_t failed = 0;           // units whose output differed from the reference
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Computes the outputs every round is checked against. Runs once per
  // process, outside any timed phase.
  virtual void PrepareReference() = 0;

  // Number of inputs one seed stands for; rounds cycle over them.
  virtual size_t variants() const { return 1; }

  // Runs one round on input `variant`; traced when `probe` is non-null.
  virtual RoundResult RunRound(size_t variant, Probe* probe) = 0;

  // "application" or "job": what one entry of RoundResult::unit_ms times.
  virtual const char* unit_name() const = 0;

  // Percentile reported as tail_ms: the highest one a run's sample supports.
  virtual double tail_quantile() const = 0;
};

// Known names: pr-blaze, pr-lru, kmeans-blaze, serve-mix. Smoke mode shrinks
// the inputs to a tenth. Returns nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool smoke);
std::vector<std::string> WorkloadNames();

// --- per-layer attribution --------------------------------------------------------

// Per-layer totals summed over traced rounds. Spans and counters are
// assigned to the profiling window [kProfile, kRun) or the run window
// [kRun, kEnd] by time; only the run window feeds the layer metrics below,
// and the profiling phase is reported whole as blaze.profile_ms.
struct LayerTotals {
  uint64_t units = 0;  // units of work traced (the per-unit denominator)
  double profile_ms = 0.0;

  double plan_ms = 0.0;
  uint64_t plans = 0;
  double solve_ms = 0.0;
  uint64_t solves = 0;
  double universe_sum = 0.0;

  uint64_t spills = 0;
  double spill_ms = 0.0;
  double spill_bytes = 0.0;
  uint64_t loads = 0;
  double load_ms = 0.0;
  double load_bytes = 0.0;
  std::vector<double> disk_op_ms;

  uint64_t tasks = 0;
  uint64_t jobs = 0;
  double task_ms = 0.0;
  double task_self_ms = 0.0;
  uint64_t recomputes = 0;
  double recompute_ms = 0.0;
  uint64_t fetches = 0;
  double fetch_ms = 0.0;
  double put_ms = 0.0;
  double queue_wait_ms = 0.0;
  std::vector<double> queue_wait_samples;
  double park_ms = 0.0;
  uint64_t steals = 0;

  double executor_window_us = 0.0;   // executor threads x run-window length
  double executor_covered_us = 0.0;  // of which inside task.run or pool.park

  uint64_t dropped_events = 0;

  // Registry counter deltas over the run window, by counter name. A name
  // missing from the registry (renamed by a later change) lands in
  // `missing` and its metric reports null.
  std::map<std::string, double> counters;
  std::set<std::string> missing;
};

// Folds one traced round (its drained recorder dump and its probe marks)
// into `totals`.
void AccumulateRound(const trace::Dump& dump, const Probe& probe, uint64_t units,
                     LayerTotals* totals);

// One reported metric. `value` is NaN when it cannot be computed (reported
// as null, with `note` saying why).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  size_t n = 0;
  std::string note;
};

// The per-layer metric list, normalized per unit of work where it is a
// total. `traced_unit_ms` / `untraced_unit_ms` feed bench.trace_overhead_pct.
std::vector<Metric> LayerMetrics(const LayerTotals& totals, double cold_unit_ms,
                                 const std::vector<double>& traced_unit_ms,
                                 const std::vector<double>& untraced_unit_ms);

// --- statistics -------------------------------------------------------------------

double Median(std::vector<double> values);
// First and third quartile, computed as Python's statistics.quantiles(n=4)
// (the "exclusive" method); a single value is its own quartiles.
std::pair<double, double> Quartiles(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

}  // namespace blaze::bench

#endif  // BENCHMARK_BENCH_H_
