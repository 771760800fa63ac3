// Event-driven stage-graph execution: sibling-stage overlap, completion
// events respecting parent edges, cross-job stage skipping, per-job fusion
// barriers, and the async SubmitJob/JobHandle path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/units.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/dataflow/task_context.h"
#include "src/dataflow/typed_block.h"

namespace blaze {
namespace {

EngineConfig SmallConfig() {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = MiB(8);
  return config;
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Records the [earliest start, latest end] envelope of a set of task bodies.
struct SpanRecorder {
  std::mutex mu;
  int64_t min_start = std::numeric_limits<int64_t>::max();
  int64_t max_end = 0;

  void Record(int64_t start, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    min_start = std::min(min_start, start);
    max_end = std::max(max_end, end);
  }
};

bool Intersect(const SpanRecorder& a, const SpanRecorder& b) {
  return a.min_start < b.max_end && b.min_start < a.max_end;
}

// Builds a join whose two shuffle parents are independent map stages; each
// side's map function sleeps and records its execution envelope, so the test
// can observe whether the sibling stages ran concurrently or back-to-back.
RddPtr<std::pair<uint32_t, std::pair<int, int>>> SleepyJoin(EngineContext* engine,
                                                            SpanRecorder* left_rec,
                                                            SpanRecorder* right_rec,
                                                            int sleep_ms) {
  auto make_side = [&](const char* name, SpanRecorder* rec) {
    auto base = Parallelize<std::pair<uint32_t, int>>(engine, name, {{0, 1}, {1, 2}}, 2);
    auto slow = base->Map([rec, sleep_ms](const std::pair<uint32_t, int>& row) {
      const int64_t start = NowUs();
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      rec->Record(start, NowUs());
      return row;
    });
    return ReduceByKey<uint32_t, int>(
        slow, [](const int& a, const int& b) { return a + b; }, 2);
  };
  return JoinCoPartitioned(make_side("sg.left", left_rec), make_side("sg.right", right_rec));
}

TEST(SchedulerGraphTest, SiblingMapStagesOfAJoinOverlap) {
  EngineContext engine(SmallConfig());
  SpanRecorder left, right;
  auto joined = SleepyJoin(&engine, &left, &right, /*sleep_ms=*/100);
  auto rows = joined->Collect();
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& [key, pair] : rows) {
    EXPECT_EQ(pair.first, pair.second);  // both sides carry the same values
  }
  // Both map stages launch at submission; their task envelopes must intersect.
  EXPECT_TRUE(Intersect(left, right))
      << "left=[" << left.min_start << "," << left.max_end << "] right=["
      << right.min_start << "," << right.max_end << "]";
}

// Coordinator that logs the scheduler's lifecycle callbacks.
struct EventLog {
  enum Kind { kJobStart, kStageStart, kStageComplete, kJobEnd };
  struct Event {
    Kind kind;
    int job_id;
    int stage_index;  // -1 for job events
  };
  std::mutex mu;
  std::vector<Event> events;
};

class RecordingCoordinator : public CacheCoordinator {
 public:
  explicit RecordingCoordinator(EventLog* log) : log_(log) {}

  void OnJobStart(const JobInfo& job) override { Push(EventLog::kJobStart, job.job_id, -1); }
  void OnJobEnd(int job_id) override { Push(EventLog::kJobEnd, job_id, -1); }
  void OnStageStart(const StageInfo& stage) override {
    Push(EventLog::kStageStart, stage.job_id, stage.stage_index);
  }
  void OnStageComplete(const StageInfo& stage) override {
    Push(EventLog::kStageComplete, stage.job_id, stage.stage_index);
  }

  std::optional<BlockPtr> Lookup(const RddBase&, uint32_t, TaskContext&) override {
    return std::nullopt;
  }
  void BlockComputed(const RddBase&, uint32_t, const BlockPtr&, double, TaskContext&) override {}
  bool IsManaged(const RddBase&) const override { return false; }
  void UnpersistRdd(const RddBase&) override {}

 private:
  void Push(EventLog::Kind kind, int job_id, int stage_index) {
    std::lock_guard<std::mutex> lock(log_->mu);
    log_->events.push_back({kind, job_id, stage_index});
  }

  EventLog* log_;
};

int IndexOf(const EventLog& log, EventLog::Kind kind, int job_id, int stage_index) {
  for (size_t i = 0; i < log.events.size(); ++i) {
    const auto& e = log.events[i];
    if (e.kind == kind && e.job_id == job_id && e.stage_index == stage_index) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST(SchedulerGraphTest, CompletionEventsRespectStageEdges) {
  EngineContext engine(SmallConfig());
  auto log = std::make_unique<EventLog>();
  EventLog* events = log.get();
  engine.SetCoordinator(std::make_unique<RecordingCoordinator>(events));

  // Two independent map stages (0, 1) feeding a result stage (2).
  SpanRecorder left, right;
  auto joined = SleepyJoin(&engine, &left, &right, /*sleep_ms=*/1);
  joined->Collect();

  const int job = 0;
  for (int stage : {0, 1, 2}) {
    const int start = IndexOf(*events, EventLog::kStageStart, job, stage);
    const int complete = IndexOf(*events, EventLog::kStageComplete, job, stage);
    ASSERT_GE(start, 0) << "stage " << stage;
    ASSERT_GE(complete, 0) << "stage " << stage;
    EXPECT_LT(start, complete) << "stage " << stage;
  }
  // The result stage starts only after BOTH sibling parents complete.
  const int result_start = IndexOf(*events, EventLog::kStageStart, job, 2);
  EXPECT_GT(result_start, IndexOf(*events, EventLog::kStageComplete, job, 0));
  EXPECT_GT(result_start, IndexOf(*events, EventLog::kStageComplete, job, 1));
  // Job envelope brackets everything.
  EXPECT_EQ(IndexOf(*events, EventLog::kJobStart, job, -1), 0);
  EXPECT_EQ(events->events.back().kind, EventLog::kJobEnd);
}

TEST(SchedulerGraphTest, SecondJobSkipsCompletedMapStage) {
  EngineContext engine(SmallConfig());
  auto log = std::make_unique<EventLog>();
  EventLog* events = log.get();
  engine.SetCoordinator(std::make_unique<RecordingCoordinator>(events));

  auto base = Parallelize<std::pair<uint32_t, int>>(&engine, "sg.skip", {{1, 1}, {2, 2}}, 2);
  auto reduced = ReduceByKey<uint32_t, int>(
      base, [](const int& a, const int& b) { return a + b; }, 2);
  const auto first = reduced->Collect();
  const auto second = reduced->Collect();
  EXPECT_EQ(first.size(), second.size());

  // Job 0 ran the map stage (0) and the result stage (1); job 1 found the
  // shuffle complete and ran only the result stage — skipped stages emit no
  // events at all.
  EXPECT_GE(IndexOf(*events, EventLog::kStageStart, 0, 0), 0);
  EXPECT_GE(IndexOf(*events, EventLog::kStageStart, 0, 1), 0);
  EXPECT_EQ(IndexOf(*events, EventLog::kStageStart, 1, 0), -1);
  EXPECT_GE(IndexOf(*events, EventLog::kStageStart, 1, 1), 0);
}

TEST(SchedulerGraphTest, FusionBarriersAreScopedPerJob) {
  // Regression: fan-out barriers used to live in a single engine-wide set, so
  // a concurrent job's (empty) barrier install could erase another job's
  // fan-out nodes mid-flight. Now each job snapshots its own set.
  EngineContext engine(SmallConfig());
  auto rdd = Parallelize<int>(&engine, "sg.fanout", {1, 2, 3}, 2);

  auto barriers = std::make_shared<EngineContext::FusionBarrierSet>();
  barriers->insert(rdd->id());
  engine.SetJobFanoutBarriers(1, barriers);
  engine.SetJobFanoutBarriers(2, std::make_shared<EngineContext::FusionBarrierSet>());

  TaskContext tc_job1(&engine, /*job_id=*/1, /*stage_id=*/0, /*partition=*/0, /*executor=*/0);
  TaskContext tc_job2(&engine, /*job_id=*/2, /*stage_id=*/0, /*partition=*/0, /*executor=*/0);
  EXPECT_TRUE(tc_job1.IsFusionBarrier(*rdd));
  EXPECT_FALSE(tc_job2.IsFusionBarrier(*rdd));

  // Clearing one job's barriers leaves the other untouched.
  engine.ClearJobFanoutBarriers(2);
  TaskContext tc_job1_again(&engine, 1, 0, 0, 0);
  EXPECT_TRUE(tc_job1_again.IsFusionBarrier(*rdd));
  engine.ClearJobFanoutBarriers(1);
}

TEST(SchedulerGraphTest, SubmitJobReturnsWaitableHandle) {
  EngineContext engine(SmallConfig());
  auto base = Parallelize<int>(&engine, "sg.async", {1, 2, 3, 4}, 2);
  auto doubled = base->Map([](const int& x) { return 2 * x; });

  JobHandle a = engine.SubmitJob(
      doubled, [](const BlockPtr& block) -> std::any { return block->NumRows(); });
  JobHandle b = engine.SubmitJob(
      doubled, [](const BlockPtr& block) -> std::any { return block->NumRows(); });
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_NE(a.job_id(), b.job_id());

  size_t total = 0;
  for (std::any& r : b.Wait()) total += std::any_cast<size_t>(r);
  for (std::any& r : a.Wait()) total += std::any_cast<size_t>(r);
  EXPECT_EQ(total, 8u);
}

TEST(SchedulerGraphTest, ExportDotRendersStagesAndShuffleEdges) {
  EngineContext engine(SmallConfig());
  auto base = Parallelize<std::pair<uint32_t, int>>(&engine, "sg.dot", {{1, 1}, {2, 2}}, 2);
  auto reduced = ReduceByKey<uint32_t, int>(
      base, [](const int& a, const int& b) { return a + b; }, 2);
  const std::string dot = engine.scheduler().ExportDot(reduced);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("cluster_stage_0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_stage_1"), std::string::npos);
  EXPECT_NE(dot.find("shuffle"), std::string::npos);
  EXPECT_NE(dot.find("sg.dot"), std::string::npos);
}

TEST(SchedulerGraphTest, PerJobMetricsAttributeTasks) {
  EngineContext engine(SmallConfig());
  auto base = Parallelize<int>(&engine, "sg.metrics", {1, 2, 3, 4}, 4);
  base->Map([](const int& x) { return x + 1; })->Collect();
  base->Map([](const int& x) { return x + 2; })->Collect();

  const RunMetricsSnapshot snap = engine.metrics().Snapshot();
  ASSERT_EQ(snap.per_job.size(), 2u);
  for (const auto& [job_id, jm] : snap.per_job) {
    EXPECT_EQ(jm.num_tasks, 4u) << "job " << job_id;
  }
}

}  // namespace
}  // namespace blaze
