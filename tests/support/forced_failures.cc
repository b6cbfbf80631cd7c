#include "support/forced_failures.h"

#include <memory>

#include "cluster/cluster.h"
#include "core/black_box.h"
#include "core/queue.h"
#include "sim/device.h"
#include "sim/flight_recorder.h"

namespace scq::fuzz {

using simt::Kernel;
using simt::Wave;

Kernel<void> publish_only_wave(Wave& w, DeviceQueue& queue) {
  WaveQueueState st{};
  st.push_token(0, 42);
  for (;;) {
    co_await queue.publish(w, st);
  }
}

ForcedDump forced_publish_deadlock_dump() {
  simt::DeviceConfig cfg;
  cfg.name = "forced-publish-deadlock";
  cfg.num_cus = 1;
  cfg.waves_per_cu = 1;

  simt::Device dev(cfg);
  simt::FlightRecorder recorder;
  dev.attach_flight_recorder(&recorder);

  const QueueLayout layout = make_device_queue(dev, 4);
  std::unique_ptr<DeviceQueue> queue =
      make_queue_variant(QueueVariant::kRfan, layout);

  // Fill every slot from the host; nothing will ever claim them.
  const std::uint64_t seeds[] = {10, 11, 12, 13};
  queue->seed(dev, seeds);

  const simt::RunResult run = dev.launch(1, [&](Wave& w) -> Kernel<void> {
    return publish_only_wave(w, *queue);
  });

  ForcedDump out;
  out.reason = run.aborted ? run.abort_reason
                           : "forced publish deadlock: run did not abort";
  out.json = dump_black_box(dev, queue.get(), out.reason);
  return out;
}

ForcedDump forced_cluster_stall_dump() {
  simt::DeviceConfig cfg;
  cfg.name = "forced-cluster-stall";
  cfg.num_cus = 1;
  cfg.waves_per_cu = 1;

  cluster::ClusterOptions copt;
  copt.num_devices = 2;
  copt.quantum = 256;
  copt.queue_capacity = 8;
  copt.xfer_capacity = 8;

  cluster::Cluster cl(cfg, copt);
  const std::uint64_t seed[] = {1};
  cl.queue(0).seed(cl.device(0), seed);

  cluster::ClusterRun crun =
      cl.run([](std::uint32_t) -> simt::KernelFactory {
        return [](Wave&) -> Kernel<void> { co_return; };
      });

  ForcedDump out;
  out.reason = crun.aborted ? crun.abort_reason
                            : "forced cluster stall: run did not abort";
  out.json = crun.black_box.empty()
                 ? cl.dump_now(out.reason)
                 : std::move(crun.black_box);
  return out;
}

}  // namespace scq::fuzz
