// The label-correcting relax client: one task-engine client
// (tasks::TaskWaveClient) for all three single-device graph drivers.
//
// A task is one vertex. Its arrival prolog loads the vertex's CSR row
// and current cost; each work step relaxes up to work_budget edges per
// lane — the paper's fixed number of uniformly complex sub-tasks (§3.3)
// — with cost[child] = min(cost[child], cost[v] + w(e)), re-enqueueing
// every improved child. This converges to exact distances under any
// interleaving. The drivers differ only in what they ask for:
//
//   run_pt_bfs         unit weights (never loaded); atomic-min, or the
//                      benign-race load/store ablation.
//   run_pt_sssp        edge weights loaded when the graph has them.
//   run_pt_sssp_delta  weights plus a DeltaBuckets rule: tokens carry
//                      their bucket in the cluster cost bits, stale
//                      tokens complete on arrival without touching an
//                      edge (kStaleSkips), and each expansion sweeps
//                      light edges (w <= delta) before heavy ones.
#pragma once

#include <cstdint>
#include <vector>

#include "bfs/common.h"
#include "tasks/run_harness.h"

namespace scq::bfs {

// Delta-stepping bucket rule: bucket = (dist + h(v)) / delta.
struct DeltaBuckets {
  std::uint64_t delta = 1;
  // Host-precomputed A* heuristic per vertex; empty means h = 0.
  std::vector<std::uint64_t> h;

  [[nodiscard]] std::uint64_t bucket_of(std::uint64_t dist,
                                        Vertex vertex) const {
    return (dist + (h.empty() ? 0 : h[vertex])) / delta;
  }
};

struct RelaxPlan {
  Vertex source = 0;
  // The single seed token (the source, packed as the queue expects).
  std::uint64_t seed_token = 0;
  unsigned work_budget = 4;
  simt::Cycle poll_interval = 240;
  // 0 = all resident wave slots (persistent-thread launch).
  std::uint32_t num_workgroups = 0;
  // false: every edge weighs 1 and the weight array is never read.
  bool load_weights = false;
  // false: plain load/store relaxation (the BFS benign-race ablation).
  bool atomic_min = true;
  // Non-null: delta-stepping tokens and sweeps (see above).
  const DeltaBuckets* delta = nullptr;
  tasks::CapacityPlan capacity;
  bool detach_recorder = false;
};

struct RelaxRun {
  tasks::RetryRun retry;
  // The final attempt's per-vertex cost words (kUnvisited = unreached);
  // empty when it aborted.
  std::vector<std::uint64_t> cost;
};

// Uploads `g`, builds the queue with `make_queue`, seeds the source at
// cost 0 and runs the client on the task engine, all through the shared
// run harness (one fresh device per attempt).
RelaxRun run_relax(const simt::DeviceConfig& config, const graph::Graph& g,
                   const RelaxPlan& plan, const tasks::RunSinks& sinks,
                   const tasks::QueueFactory& make_queue);

}  // namespace scq::bfs
