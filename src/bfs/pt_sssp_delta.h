// Delta-stepping SSSP (and its A* generalization) on the priority
// multi-queue — the workload the BucketedMultiQueue exists for.
//
// Tokens carry their priority in the cluster cost field: bucket =
// (dist + h(v)) / delta, packed with pack_token_saturating, and the
// queue's cost_band_map routes each bucket to a priority band. The
// driver is still label-correcting (atomic-min relaxations, every
// improvement re-enqueued, exact Dijkstra distances under any order),
// so delta-stepping here changes *scheduling*, not correctness:
// low-bucket vertices are expanded first, which slashes the number of
// wasted relaxations a FIFO order performs from stale long distances
// (measured by bench/fig_work_efficiency).
//
// The driver runs the shared relax client (bfs/relax_client.h) with a
// DeltaBuckets rule. Two classic delta-stepping refinements are modeled:
//   * stale-token skip: a delivered token whose packed bucket exceeds
//     the vertex's current bucket is dropped without touching its edges
//     (a fresher token exists — completed or in flight — that relaxes
//     the same edges with smaller distances; counter kStaleSkips).
//   * light/heavy edge split: each expansion sweeps light edges
//     (w <= delta, targets stay near the current bucket) before heavy
//     ones, so intra-bucket growth is published ahead of cross-bucket
//     jumps.
//
// Closure soundness: a child is published with bucket >=
// floor((dist_v + h(child)) / delta) where dist_v is re-read at
// delivery. For any enqueue into band b there is an uncompleted token
// in a band <= b at publish time (the publisher itself, or — when the
// publisher is stale — the fresher token that lowered the vertex's
// distance, whose own completed expansion would have made this
// atomic-min fail). Hence closed bands never see new reservations, as
// the fuzz checker's closure-monotonicity invariant demands. With a
// heuristic this argument needs h *consistent* (h(v) <= w + h(child));
// an inconsistent h can publish into a closed band and aborts the run.
#pragma once

#include <functional>

#include "bfs/pt_sssp.h"

namespace scq::bfs {

// Observability sinks: tasks::RunSinks, attached per attempt by the run
// harness (tasks/run_harness.h).
struct PtSsspDeltaOptions : tasks::RunSinks {
  // Bucket width. 0 = auto: the graph's mean edge weight (>= 1), the
  // standard delta-stepping compromise between bucket count (small
  // delta) and intra-bucket wasted work (large delta).
  std::uint64_t delta = 0;
  // Priority bands in the multi-queue; buckets at or above num_bands
  // share the last band (approximate priority, still correct). SimError
  // outside [1, BucketedMultiQueue::kMaxBands].
  std::uint32_t num_bands = 8;
  // Optional A* mode: admissible AND consistent per-vertex heuristic
  // evaluated host-side once per vertex before launch (models a
  // precomputed heuristic table in device memory). Banding switches
  // from g/delta to (g + h)/delta; distances remain exact SSSP.
  std::function<std::uint64_t(Vertex)> heuristic;

  unsigned work_budget = 4;
  simt::Cycle poll_interval = 240;
  double queue_headroom = 3.0;
  std::uint64_t queue_capacity = 0;  // 0 = auto; deadlock retries double
  std::uint32_t num_workgroups = 0;
};

// Runs delta-stepping SSSP from `source` on a BucketedMultiQueue.
// Returns exact shortest-path distances (same contract as run_pt_sssp).
SsspResult run_pt_sssp_delta(const simt::DeviceConfig& config,
                             const graph::Graph& g, Vertex source,
                             const PtSsspDeltaOptions& options = {});

}  // namespace scq::bfs
