#include "tasks/run_harness.h"

#include "core/black_box.h"
#include "core/bucketed_queue.h"
#include "sim/flight_recorder.h"
#include "sim/op_history.h"
#include "sim/task_trace.h"
#include "sim/telemetry.h"
#include "sim/trace.h"

namespace scq::tasks {

namespace {

// Clears and attaches the sinks other than the flight recorder against
// this attempt's device and queue. The telemetry's scheduler probes are
// registered by run_task_waves, which every attempt body goes through.
void attach_sinks(simt::Device& dev, const DeviceQueue& queue,
                  const RunSinks& sinks) {
  if (sinks.trace) {
    sinks.trace->clear();
    dev.attach_tracer(sinks.trace);
  }
  if (sinks.history) {
    sinks.history->clear();
    dev.attach_op_history(sinks.history);
  }
  if (sinks.task_trace) {
    sinks.task_trace->clear();
    stamp_task_meta(*sinks.task_trace, queue);
    dev.attach_task_trace(sinks.task_trace);
  }
  if (sinks.telemetry) {
    sinks.telemetry->mirror_counters_to(sinks.trace);
    dev.attach_telemetry(sinks.telemetry);
  }
  if (sinks.profiler) dev.attach_profiler(sinks.profiler);
}

}  // namespace

RetryRun run_with_retry(const simt::DeviceConfig& config,
                        const CapacityPlan& capacity, const RunSinks& sinks,
                        const QueueFactory& make_queue,
                        const AttemptBody& attempt, bool detach_recorder) {
  std::uint64_t explicit_capacity = capacity.explicit_capacity;
  double headroom = capacity.headroom;
  RetryRun out;
  for (out.attempts = 1;; ++out.attempts) {
    simt::Device dev(config);
    const std::uint64_t slots =
        explicit_capacity != 0
            ? explicit_capacity
            : static_cast<std::uint64_t>(
                  static_cast<double>(capacity.hint) * headroom) +
                  kWaveWidth;
    const std::unique_ptr<DeviceQueue> queue = make_queue(dev, slots);
    attach_sinks(dev, *queue, sinks);
    simt::FlightRecorder local_recorder;
    simt::FlightRecorder* recorder =
        sinks.recorder != nullptr ? sinks.recorder : &local_recorder;
    recorder->clear();
    dev.attach_flight_recorder(detach_recorder ? nullptr : recorder);

    out.run = attempt(dev, *queue);
    if (!out.run.aborted) return out;
    out.black_box = dump_black_box(dev, queue.get(), out.run.abort_reason);
    if (out.attempts == kMaxAttempts) return out;
    if (explicit_capacity != 0) {
      explicit_capacity *= 2;
    } else {
      headroom *= 2.0;
    }
  }
}

std::unique_ptr<DeviceQueue> make_banded_queue(simt::Device& dev,
                                               std::uint64_t capacity,
                                               std::uint32_t bands) {
  if (bands == 0 || bands > BucketedMultiQueue::kMaxBands) {
    throw simt::SimError(
        "num_bands must be in [1, BucketedMultiQueue::kMaxBands]");
  }
  return std::make_unique<BucketedMultiQueue>(
      dev, capacity, bands, BucketedMultiQueue::cost_band_map());
}

}  // namespace scq::tasks
