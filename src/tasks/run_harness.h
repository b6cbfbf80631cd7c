// Run-with-retry harness shared by every single-device driver
// (run_pt_bfs, run_pt_sssp, run_pt_sssp_delta, run_task_graph).
//
// One attempt = a fresh Device, a queue sized for this attempt, the
// observability sinks cleared and re-attached, then the driver's body
// (seed, launch, read back). Should the publish-deadlock detector abort
// the attempt — the in-flight working set outgrew the ring, §4.4's
// exception path — the harness dumps a black box and retries with
// double the capacity, up to kMaxAttempts attempts in all.
//
// Sink conventions (identical for every driver):
//   - trace, history and task_trace are cleared per attempt, so they
//     hold exactly the attempt that produced the returned result;
//   - telemetry data accumulates across attempts and runs (the caller
//     owns Telemetry::reset_data); run_task_waves re-registers its probes
//     against each attempt's device and queue, and sampled series are
//     mirrored into the trace when both are given;
//   - the profiler accumulates (the caller owns reset());
//   - a flight recorder is always attached — an internal one when the
//     caller passes none — so every aborted attempt leaves a black box.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/queue.h"
#include "sim/device.h"

namespace scq::tasks {

// The observability sinks a driver run attaches (not owned; nullptr
// disables). Driver option structs inherit this, so `opt.profiler = ...`
// reads the same on every driver.
struct RunSinks {
  simt::Telemetry* telemetry = nullptr;
  simt::TraceRecorder* trace = nullptr;
  // Queue-operation recording for the fuzz checker.
  simt::OpHistory* history = nullptr;
  // Per-task lifecycle recording (reserve/write/claim/arrival/exec plus
  // the parent spawn edge), feeding sim/critical_path.h.
  simt::TaskTrace* task_trace = nullptr;
  // Simulator self-profiling (host wall-clock attribution).
  simt::SimProfiler* profiler = nullptr;
  // Flight recorder whose ring the black box dumps; see above.
  simt::FlightRecorder* recorder = nullptr;
};

inline constexpr std::uint32_t kMaxAttempts = 8;

// Queue sizing. An explicit capacity wins; otherwise capacity =
// hint * headroom + kWaveWidth. Each retry doubles the explicit
// capacity, or the headroom in auto mode.
struct CapacityPlan {
  std::uint64_t explicit_capacity = 0;
  std::uint64_t hint = 1;
  double headroom = 1.0;
};

struct RetryRun {
  simt::RunResult run;  // the final attempt's launch result
  std::uint32_t attempts = 0;
  // Black-box JSON of the last aborted attempt ("" if none aborted).
  std::string black_box;
};

// Builds the attempt's queue on its fresh device (after any other device
// allocation the driver needs, e.g. the graph upload).
using QueueFactory = std::function<std::unique_ptr<DeviceQueue>(
    simt::Device& dev, std::uint64_t capacity)>;
// Seeds, launches and — when the launch did not abort — reads back.
using AttemptBody =
    std::function<simt::RunResult(simt::Device& dev, DeviceQueue& queue)>;

// `detach_recorder` runs with no flight recorder at all; only
// bench/sim_throughput sets it, to price the always-on recorder against
// a bare event loop. Such a run cannot dump a black box.
RetryRun run_with_retry(const simt::DeviceConfig& config,
                        const CapacityPlan& capacity, const RunSinks& sinks,
                        const QueueFactory& make_queue,
                        const AttemptBody& attempt,
                        bool detach_recorder = false);

// The banded multi-queue with the cluster cost-band map (tokens carry
// their band in the cost bits). Throws SimError unless bands is in
// [1, BucketedMultiQueue::kMaxBands].
std::unique_ptr<DeviceQueue> make_banded_queue(simt::Device& dev,
                                               std::uint64_t capacity,
                                               std::uint32_t bands);

}  // namespace scq::tasks
