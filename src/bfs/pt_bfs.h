// Persistent-thread top-down BFS (the paper's driver application, §5.1).
//
// Every persistent wave loops work cycles (Algorithm 1, run by the task
// engine with the relax client of bfs/relax_client.h): hungry lanes
// request task tokens (vertices) from the shared concurrent queue,
// working lanes relax up to `work_budget` edges — the paper's fixed
// number of uniformly complex sub-tasks (§3.3) — newly discovered
// vertices are published back to the queue, and completions are
// reported for termination detection. The queue variant (BASE / AN /
// RF/AN) is pluggable, which is the experiment of §5.3.
//
// Discovery uses a label-correcting relaxation: atomic-min on the cost
// word and re-enqueue whenever the cost improved. This converges to
// exact BFS levels under any interleaving (validated against the serial
// reference). The optional benign-race mode replaces the atomic-min
// with a plain load/store pair — faster but only approximately level-
// accurate, kept as an ablation.
#pragma once

#include "bfs/common.h"
#include "core/queue.h"
#include "sim/config.h"
#include "tasks/run_harness.h"

namespace scq::bfs {

// The observability sinks come from tasks::RunSinks; the run harness
// (tasks/run_harness.h) attaches them to every attempt.
struct PtBfsOptions : tasks::RunSinks {
  QueueVariant variant = QueueVariant::kRfan;
  // Sub-tasks (edges) per work cycle; the paper found 4 works well.
  unsigned work_budget = 4;
  // Wait between polls when a work cycle makes no progress.
  simt::Cycle poll_interval = 240;
  // false = benign-race ablation (plain load/store discovery).
  bool atomic_discovery = true;
  // Auto queue sizing: capacity = reachable-bound * headroom. Since the
  // ring became circular this is generous — capacity only needs to
  // cover the in-flight working set, not every token ever enqueued —
  // and a too-small ring backpressures producers instead of aborting.
  // Should the deadlock detector still fire (capacity below the
  // in-flight minimum), the run retries with double the headroom.
  double queue_headroom = 1.3;
  // Non-zero overrides the auto sizing with an explicit slot count (the
  // capacity-sweep ablation uses this); deadlock retries double it.
  std::uint64_t queue_capacity = 0;
  // 0 = all resident wave slots (persistent-thread launch).
  std::uint32_t num_workgroups = 0;
  // Bench-only escape hatch: run with NO flight recorder attached so
  // bench/sim_throughput can price the always-on recorder against a
  // truly bare event loop. Production paths leave this false — a run
  // without a recorder cannot dump a black box.
  bool detach_recorder = false;
};

// Runs one BFS to completion on a fresh device built from `config`.
BfsResult run_pt_bfs(const simt::DeviceConfig& config, const graph::Graph& g,
                     Vertex source, const PtBfsOptions& options = {});

}  // namespace scq::bfs
