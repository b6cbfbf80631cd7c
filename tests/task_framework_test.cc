// Dynamic task framework (src/tasks) unit tests: the soundness guards
// (spawn depth, dependency-counter underflow, unreleased dependencies,
// band monotonicity), the overflow stash, phase-close accounting on the
// banded multi-queue, and the shared run harness's retry path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/bucketed_queue.h"
#include "core/ext_schedulers.h"
#include "sim/flight_recorder.h"
#include "sim/op_history.h"
#include "sim/task_trace.h"
#include "sim/trace.h"
#include "support/forced_failures.h"
#include "tasks/run_harness.h"
#include "tasks/task_engine.h"

namespace scq::tasks {
namespace {

simt::DeviceConfig small_device() {
  simt::DeviceConfig cfg = simt::spectre_config();
  cfg.name = "small";
  cfg.num_cus = 2;
  cfg.waves_per_cu = 2;
  return cfg;
}

// ---- Token packing ----

TEST(TaskToken, RoundTripsPayloadAndBand) {
  const std::uint64_t t = pack_task_checked(123456, 7);
  EXPECT_EQ(task_payload(t), 123456u);
  EXPECT_EQ(task_band(t), 7u);
}

TEST(TaskToken, BandZeroTokensAreBarePayloads) {
  // The BFS client relies on this: its tokens are bare vertex ids, and
  // they must round-trip the framework packing unchanged.
  EXPECT_EQ(pack_task(4242, 0), 4242u);
}

TEST(TaskToken, ChecksFieldOverflow) {
  EXPECT_THROW((void)pack_task_checked(kMaxPayload + 1, 0), simt::SimError);
  EXPECT_THROW((void)pack_task_checked(0, kMaxBand + 1), simt::SimError);
}

// ---- Host-task engine ----

TEST(TaskFramework, RunsSeedOnlyBatchAndCountsExecutions) {
  std::uint64_t sum = 0;
  TaskGraphOptions opt;
  opt.on_attempt = [&] { sum = 0; };
  const std::vector<TaskSeed> seeds = {{1, 0}, {2, 0}, {3, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) { sum += ctx.payload(); }, opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(r.stats.executions, 3u);
  EXPECT_EQ(r.stats.spawns, 0u);
  EXPECT_EQ(sum, 6u);
}

TEST(TaskFramework, TracksSpawnDepthAlongChains) {
  constexpr std::uint64_t kDepth = 12;
  TaskGraphOptions opt;
  const std::vector<TaskSeed> seeds = {{0, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        EXPECT_EQ(ctx.depth(), ctx.payload());  // chain: depth == position
        if (ctx.payload() < kDepth) ctx.spawn(ctx.payload() + 1, 0);
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(r.stats.executions, kDepth + 1);
  EXPECT_EQ(r.stats.max_depth, kDepth);
}

TEST(TaskFramework, SpawnDepthBoundAbortsRunawayChains) {
  TaskGraphOptions opt;
  opt.host.max_spawn_depth = 5;
  const std::vector<TaskSeed> seeds = {{0, 0}};
  EXPECT_THROW(
      run_task_graph(
          small_device(), seeds,
          // Unbounded self-perpetuating chain: only the guard stops it.
          [&](TaskContext& ctx) { ctx.spawn(ctx.payload() + 1, 0); }, opt),
      simt::SimError);
}

TEST(TaskFramework, DependencyCreditsReleaseDeferredTasks) {
  std::vector<std::uint64_t> order;
  std::uint64_t handle = 0;
  TaskGraphOptions opt;
  opt.on_attempt = [&] { order.clear(); };
  const std::vector<TaskSeed> seeds = {{0, 0}, {1, 0}, {2, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        order.push_back(ctx.payload());
        if (ctx.payload() == 0) {
          // Held back until both other seeds credit it.
          handle = ctx.defer(99, 0, 2);
        } else if (ctx.payload() != 99) {
          ctx.credit(handle);
        }
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.back(), 99u);  // released strictly after both credits
  EXPECT_EQ(r.stats.deferred, 1u);
  EXPECT_EQ(r.stats.credits, 2u);
  EXPECT_EQ(r.stats.released, 1u);
}

// Seeds 0 must run before the crediting seed for the handle to exist;
// queue delivery is FIFO from the seed batch, so seed order suffices.
TEST(TaskFramework, CreditUnderflowThrows) {
  std::uint64_t handle = 0;
  TaskGraphOptions opt;
  const std::vector<TaskSeed> seeds = {{0, 0}, {1, 0}};
  EXPECT_THROW(
      run_task_graph(
          small_device(), seeds,
          [&](TaskContext& ctx) {
            if (ctx.payload() == 0) {
              handle = ctx.defer(99, 0, 1);
            } else {
              ctx.credit(handle);
              ctx.credit(handle);  // pays past zero: underflow
            }
          },
          opt),
      simt::SimError);
}

TEST(TaskFramework, UnreleasedDeferredTaskThrows) {
  TaskGraphOptions opt;
  const std::vector<TaskSeed> seeds = {{0, 0}};
  EXPECT_THROW(
      run_task_graph(
          small_device(), seeds,
          [&](TaskContext& ctx) {
            // Deferred behind a credit nobody ever pays.
            (void)ctx.defer(99, 0, 1);
          },
          opt),
      simt::SimError);
}

TEST(TaskFramework, OverflowStashDeliversWideFanouts) {
  // One seed spawns far past the per-cycle publish budget
  // (kMaxWorkBudget); the stash must deliver every child and hold the
  // parent's completion until the last one is published.
  constexpr std::uint64_t kChildren = 100;
  std::uint64_t executed_children = 0;
  TaskGraphOptions opt;
  opt.on_attempt = [&] { executed_children = 0; };
  const std::vector<TaskSeed> seeds = {{kChildren + 1, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        if (ctx.payload() == kChildren + 1) {
          for (std::uint64_t c = 0; c < kChildren; ++c) ctx.spawn(c, 0);
        } else {
          ++executed_children;
        }
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(executed_children, kChildren);
  EXPECT_EQ(r.stats.executions, kChildren + 1);
}

TEST(TaskFramework, RespawnReenqueuesCurrentTask) {
  std::vector<int> runs(3, 0);
  TaskGraphOptions opt;
  opt.on_attempt = [&] { runs.assign(3, 0); };
  const std::vector<TaskSeed> seeds = {{0, 0}, {1, 0}, {2, 0}};
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        // Each task retries once.
        if (runs[ctx.payload()]++ == 0) ctx.respawn();
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(r.stats.respawns, 3u);
  EXPECT_EQ(r.stats.executions, 6u);
}

// ---- Banded (multi-queue) behavior ----

TEST(TaskFramework, PhaseClosesTrackClosureFrontier) {
  TaskGraphOptions opt;
  opt.variant = QueueVariant::kMq;
  opt.num_bands = 2;
  std::vector<TaskSeed> seeds;
  for (std::uint64_t v = 0; v < 24; ++v) seeds.push_back({v, 0});
  std::uint64_t phase1 = 0;
  opt.on_attempt = [&] { phase1 = 0; };
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        if (ctx.band() == 0) {
          ctx.spawn(ctx.payload(), 1);
        } else {
          ++phase1;
        }
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(phase1, 24u);
  // Both bands ran dry, so the closure frontier swept the whole queue:
  // one observed close per band, and never a regression (the engine
  // throws on one).
  EXPECT_EQ(r.stats.phase_closes, 2u);
}

TEST(TaskFramework, SpawnIntoLowerBandThrowsOnBandedQueues) {
  TaskGraphOptions opt;
  opt.variant = QueueVariant::kMq;
  opt.num_bands = 2;
  const std::vector<TaskSeed> seeds = {{0, 1}};  // starts in band 1
  EXPECT_THROW(
      run_task_graph(
          small_device(), seeds,
          [&](TaskContext& ctx) { ctx.spawn(1, 0); },  // band 1 -> band 0
          opt),
      simt::SimError);
}

TEST(TaskFramework, LowerBandSpawnAllowedOnSingleBandQueues) {
  // FIFO rings have no closure to protect: band bits are inert metadata.
  TaskGraphOptions opt;
  opt.variant = QueueVariant::kRfan;
  const std::vector<TaskSeed> seeds = {{0, 1}};
  std::uint64_t executed = 0;
  opt.on_attempt = [&] { executed = 0; };
  const TaskGraphResult r = run_task_graph(
      small_device(), seeds,
      [&](TaskContext& ctx) {
        ++executed;
        if (ctx.band() == 1) ctx.spawn(1, 0);
      },
      opt);
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(executed, 2u);
}

TEST(TaskFramework, BandCountOutsideTheQueueLimitThrows) {
  // The banded front-ends share one band check: a bad count is an
  // error, never silently clamped.
  const std::vector<TaskSeed> seeds = {{0, 0}};
  for (const std::uint32_t bands : {0u, BucketedMultiQueue::kMaxBands + 1}) {
    TaskGraphOptions opt;
    opt.variant = QueueVariant::kMq;
    opt.num_bands = bands;
    EXPECT_THROW(run_task_graph(small_device(), seeds,
                                [](TaskContext&) {}, opt),
                 simt::SimError)
        << "bands=" << bands;
  }
}

// ---- Shared run harness: the retry path ----

// Drives run_with_retry with an attempt body whose first `aborts`
// attempts deadlock on purpose (ring seeded full, one wave publishing
// and never consuming) and whose later attempts run a small host-task
// chain. Records the capacity each attempt was built with.
class ScriptedAttempts {
 public:
  explicit ScriptedAttempts(std::uint32_t aborts) : aborts_(aborts) {}

  RetryRun run(const CapacityPlan& plan, const RunSinks& sinks = {},
               bool detach_recorder = false) {
    return run_with_retry(
        small_device(), plan, sinks,
        [this](simt::Device& dev, std::uint64_t capacity) {
          capacities.push_back(capacity);
          return make_scheduler(dev, QueueVariant::kRfan, capacity);
        },
        [this](simt::Device& dev, DeviceQueue& queue) {
          if (capacities.size() <= aborts_) {
            const std::vector<std::uint64_t> fill(queue.layout().capacity, 7);
            queue.seed(dev, fill);
            return dev.launch(1, [&](Wave& w) -> Kernel<void> {
              return fuzz::publish_only_wave(w, queue);
            });
          }
          const std::vector<TaskSeed> seeds = {{1, 0}, {2, 0}};
          return run_host_tasks(dev, queue, seeds, [](TaskContext& ctx) {
            if (ctx.payload() < 40) ctx.spawn(ctx.payload() + 2, 0);
          });
        },
        detach_recorder);
  }

  std::vector<std::uint64_t> capacities;

 private:
  std::uint32_t aborts_;
};

TEST(RunHarness, ExplicitCapacityDoublesEachAttempt) {
  ScriptedAttempts script(3);
  const RetryRun r = script.run({.explicit_capacity = 16});
  EXPECT_FALSE(r.run.aborted) << r.run.abort_reason;
  EXPECT_EQ(r.attempts, 4u);
  EXPECT_EQ(script.capacities, (std::vector<std::uint64_t>{16, 32, 64, 128}));
  // The last aborted attempt's black box survives the successful retry.
  EXPECT_NE(r.black_box.find("\"capacity\":64"), std::string::npos)
      << r.black_box.substr(0, 400);
}

TEST(RunHarness, AutoCapacityDoublesTheHeadroom) {
  ScriptedAttempts script(2);
  const RetryRun r = script.run({.hint = 100, .headroom = 1.5});
  EXPECT_FALSE(r.run.aborted) << r.run.abort_reason;
  EXPECT_EQ(r.attempts, 3u);
  // hint * headroom + kWaveWidth, headroom doubling per retry.
  EXPECT_EQ(script.capacities,
            (std::vector<std::uint64_t>{150 + kWaveWidth, 300 + kWaveWidth,
                                        600 + kWaveWidth}));
}

TEST(RunHarness, StopsAfterEightAttempts) {
  ScriptedAttempts script(100);
  const RetryRun r = script.run({.explicit_capacity = 4});
  EXPECT_TRUE(r.run.aborted);
  EXPECT_EQ(r.attempts, kMaxAttempts);
  ASSERT_EQ(script.capacities.size(), kMaxAttempts);
  EXPECT_EQ(script.capacities.back(), 4u << (kMaxAttempts - 1));
  EXPECT_NE(r.black_box.find(r.run.abort_reason), std::string::npos);
}

TEST(RunHarness, CleanFirstAttemptLeavesNoBlackBox) {
  ScriptedAttempts script(0);
  const RetryRun r = script.run({.explicit_capacity = 16});
  EXPECT_FALSE(r.run.aborted);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_TRUE(r.black_box.empty());
}

// The per-attempt sinks of one run, owned together.
struct OwnedSinks {
  simt::TraceRecorder trace;
  simt::OpHistory history;
  simt::TaskTrace task_trace;
  simt::FlightRecorder recorder;

  RunSinks view() {
    RunSinks s;
    s.trace = &trace;
    s.history = &history;
    s.task_trace = &task_trace;
    s.recorder = &recorder;
    return s;
  }
};

TEST(RunHarness, PerAttemptSinksHoldOnlyTheFinalAttempt) {
  // Two deadlocked attempts, then a clean one at capacity 64 — whose
  // trace, history, task trace and recorder must match a run that
  // started at 64 and never retried.
  OwnedSinks got;
  ScriptedAttempts retried(2);
  const RetryRun r = retried.run({.explicit_capacity = 16}, got.view());
  ASSERT_EQ(r.attempts, 3u);

  OwnedSinks want;
  ScriptedAttempts clean(0);
  const RetryRun ref = clean.run({.explicit_capacity = 64}, want.view());
  ASSERT_EQ(ref.attempts, 1u);

  EXPECT_EQ(r.run.cycles, ref.run.cycles);
  EXPECT_GT(got.history.size(), 0u);
  EXPECT_EQ(got.history.size(), want.history.size());
  EXPECT_GT(got.task_trace.size(), 0u);
  EXPECT_EQ(got.task_trace.size(), want.task_trace.size());
  EXPECT_EQ(got.trace.to_chrome_json(), want.trace.to_chrome_json());
  EXPECT_EQ(got.recorder.size(), want.recorder.size());
}

TEST(RunHarness, DetachedRecorderStaysEmpty) {
  simt::FlightRecorder recorder;
  RunSinks sinks;
  sinks.recorder = &recorder;
  ScriptedAttempts script(0);
  (void)script.run({.explicit_capacity = 16}, sinks, /*detach_recorder=*/true);
  EXPECT_EQ(recorder.size(), 0u);
  (void)script.run({.explicit_capacity = 16}, sinks);
  EXPECT_GT(recorder.size(), 0u);
}

}  // namespace
}  // namespace scq::tasks
