// Deliberately broken workloads that drive the runtime into each abort
// path and hand back the resulting black-box dump. Shared by the
// post-mortem tests (the dumps must name the true blocking wave / band)
// and by bench/postmortem's --force mode (the CI smoke step that proves
// the whole dump -> analyze pipeline end to end).
//
// Both scenarios are fully deterministic: fixed device config, no
// schedule jitter, fixed seeds — two invocations produce byte-identical
// dump documents (asserted by tests).
#pragma once

#include <string>

#include "core/queue.h"

namespace scq::fuzz {

// Publishes one token and then keeps flushing the parked reservation —
// never dequeues. On a ring seeded full, the slot it waits on can never
// recycle, so the publish deadlock detector aborts the kernel after
// kPublishDeadlockRounds frozen attempts.
simt::Kernel<void> publish_only_wave(simt::Wave& w, DeviceQueue& queue);

struct ForcedDump {
  std::string reason;  // the abort reason the runtime produced
  std::string json;    // the black-box document
};

// Publish-backpressure deadlock on a single device: an RF/AN ring of 4
// slots is seeded full, then one wave publishes a 5th token without
// ever consuming. The reservation parks forever (slot 0 never
// recycles), the publish deadlock detector fires, and the dump's wait
// table shows wave 0 parked on ticket 4 blocked by the never-claimed
// ticket 0.
[[nodiscard]] ForcedDump forced_publish_deadlock_dump();

// Cluster quiescence stall: two devices, one seeded token on device 0,
// kernels that exit immediately without claiming anything. Every event
// queue drains while dev0's band 0 still has rear=1, completed=0 — the
// stall detector aborts the superstep loop and the dump names the
// device and band holding the orphaned work.
[[nodiscard]] ForcedDump forced_cluster_stall_dump();

}  // namespace scq::fuzz
