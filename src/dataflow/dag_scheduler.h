// Event-driven stage-graph scheduler.
//
// A job (triggered by an action) is cut into stages at shuffle dependencies,
// exactly as in Spark: every shuffle dependency gets a map stage that
// materializes the dependency's parent partitions and writes hash buckets to
// the shuffle service; the action itself runs as the final result stage. The
// stages form a DAG with parent/child edges (a stage's parents are the map
// stages producing the shuffles its narrow closure reads). Execution is
// event-driven: every stage whose parents are satisfied is submitted, and a
// stage's *completion event* — fired by its last finishing task, on that
// task's worker thread — decrements its children's pending-parent counts and
// launches the ones that become ready. There is no scheduler thread and no
// driver barrier between stages, so sibling map stages (e.g. the two shuffle
// parents of a join) overlap.
//
// The scheduler is fully thread-safe: any number of driver threads may call
// RunJob/SubmitJob concurrently on one engine. Per-job state (stage counters,
// results, fusion barriers, pinned shuffles) lives in a JobState keyed by job
// id; stage skipping goes through the shuffle service's write-claim state
// machine (absent -> computing -> complete), so a job never reads a shuffle a
// concurrent job is still writing — it parks a completion callback instead.
//
// Map stages whose shuffle outputs already exist are skipped (Spark's stage
// skipping). Tasks are dispatched to the executor that owns their partition
// (partition % num_executors), modeling Spark's locality-aware scheduling of
// cached partitions.
#ifndef SRC_DATAFLOW_DAG_SCHEDULER_H_
#define SRC_DATAFLOW_DAG_SCHEDULER_H_

#include <any>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/dataflow/events.h"
#include "src/dataflow/rdd_base.h"

namespace blaze {

class EngineContext;
class TelemetryCounter;
class TelemetryGauge;
class StreamingHistogram;

namespace internal {
struct JobState;
}

// Future-style handle to an asynchronously submitted job.
class JobHandle {
 public:
  JobHandle() = default;

  // Blocks until the job finishes and returns its per-partition results.
  // Call at most once: results are moved out of the job state.
  std::vector<std::any> Wait();

  int job_id() const;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class DagScheduler;
  explicit JobHandle(std::shared_ptr<internal::JobState> state) : state_(std::move(state)) {}

  std::shared_ptr<internal::JobState> state_;
};

class DagScheduler {
 public:
  explicit DagScheduler(EngineContext* engine);
  // Blocks until every in-flight job has finished (abandoned handles
  // included), so executor pools never run tasks of a dead scheduler.
  ~DagScheduler();

  // Runs one action job to completion; returns one result per partition of
  // `target`. Thread-safe; equivalent to SubmitJob(...).Wait(). With
  // raw_blocks set, `process` receives the terminal block in whatever
  // representation it is cached in (a columnar hit skips the row decode);
  // only actions that read blocks representation-agnostically (NumRows,
  // ForEachRow folds) may set it.
  std::vector<std::any> RunJob(const std::shared_ptr<RddBase>& target,
                               const std::function<std::any(const BlockPtr&)>& process,
                               bool raw_blocks = false);

  // Submits the job and returns immediately; stages launch as their parents
  // complete. Thread-safe. `tenant` attributes the job's tasks, lookups, and
  // cached bytes to a registered tenant (kNoTenant = untenanted, the default);
  // admission itself lives in EngineContext::SubmitJobAs — when it granted an
  // in-flight slot for this job, tenant_slot_held makes FinishJob release it.
  JobHandle SubmitJob(const std::shared_ptr<RddBase>& target,
                      const std::function<std::any(const BlockPtr&)>& process,
                      bool raw_blocks = false, uint32_t tenant = 0xFFFFFFFFu,
                      bool tenant_slot_held = false);

  int jobs_run() const { return next_job_id_.load(); }

  // Builds the JobInfo (reachable datasets, per-dataset dependent counts and
  // first-consumer stages) without running anything. Exposed for tests and
  // for Blaze's dependency-extraction phase.
  JobInfo AnalyzeJob(const std::shared_ptr<RddBase>& target, int job_id) const;

  // Renders the stage/RDD DAG the scheduler would run for `target` as
  // Graphviz DOT (one cluster per stage, shuffle edges between stages).
  std::string ExportDot(const std::shared_ptr<RddBase>& target) const;

 private:
  friend class JobHandle;
  friend struct internal::JobState;

  struct StagePlan {
    // nullptr dep => result stage.
    const Dependency* shuffle_dep = nullptr;
    std::shared_ptr<RddBase> terminal;  // dataset materialized by this stage
    int stage_index = 0;
    int num_parents = 0;        // stages whose shuffles this stage reads
    std::vector<int> children;  // stages waiting on this one
  };

  // Map stages in topological order followed by the result stage, with
  // parent/child edges filled in.
  std::vector<StagePlan> PlanStages(const std::shared_ptr<RddBase>& target) const;

  // Claims the stage's shuffle write (map stages) and either runs its tasks,
  // records completion (already-complete shuffle), or parks until a
  // concurrent writer finishes.
  void LaunchStage(const std::shared_ptr<internal::JobState>& job, int stage_index);
  // Fans the stage's tasks out to the executor pools; the last finishing task
  // publishes the shuffle and fires CompleteStage.
  void RunStageTasks(const std::shared_ptr<internal::JobState>& job, int stage_index);
  // Stage-completion event: notifies the coordinator (if the stage ran),
  // closes the stage span, and launches children whose parents are done.
  void CompleteStage(const std::shared_ptr<internal::JobState>& job, int stage_index,
                     bool ran);
  void FinishJob(const std::shared_ptr<internal::JobState>& job);

  StageInfo MakeStageInfo(const internal::JobState& job, int stage_index) const;

  EngineContext* engine_;
  std::atomic<int> next_job_id_{0};

  // Live sched.* telemetry (MetricsRegistry::Global(), cached at construction
  // so the job/stage paths never pay a name lookup). jobs_active is a gauge
  // bumped in SubmitJob and dropped in FinishJob; the latency histograms are
  // fed from the always-on start timestamps in JobState.
  struct Telemetry {
    TelemetryCounter* jobs_submitted;
    TelemetryCounter* jobs_completed;
    TelemetryCounter* stages_completed;
    TelemetryGauge* jobs_active;
    StreamingHistogram* job_latency_ms;
    StreamingHistogram* stage_latency_ms;
  };
  Telemetry telemetry_;

  // In-flight job accounting for the destructor's drain.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  int jobs_in_flight_ = 0;
};

}  // namespace blaze

#endif  // SRC_DATAFLOW_DAG_SCHEDULER_H_
