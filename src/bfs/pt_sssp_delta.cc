#include "bfs/pt_sssp_delta.h"

#include <algorithm>

#include "bfs/relax_client.h"
#include "cluster/token.h"

namespace scq::bfs {

namespace {

std::uint64_t auto_delta(const graph::Graph& g) {
  if (!g.has_weights() || g.num_edges() == 0) return 1;
  std::uint64_t sum = 0;
  for (const auto wgt : g.weights()) sum += wgt;
  return std::max<std::uint64_t>(sum / g.num_edges(), 1);
}

}  // namespace

SsspResult run_pt_sssp_delta(const simt::DeviceConfig& config,
                             const graph::Graph& g, Vertex source,
                             const PtSsspDeltaOptions& options) {
  if (source >= g.num_vertices()) {
    throw simt::SimError("run_pt_sssp_delta: source out of range");
  }
  if (options.work_budget == 0 || options.work_budget > kMaxWorkBudget) {
    throw simt::SimError("run_pt_sssp_delta: work_budget out of range");
  }
  if (g.num_vertices() > cluster::kMaxPackVertex + 1) {
    throw simt::SimError(
        "run_pt_sssp_delta: graph exceeds the 24-bit packed vertex field");
  }

  DeltaBuckets buckets;
  buckets.delta = options.delta != 0 ? options.delta : auto_delta(g);
  if (options.heuristic) {
    buckets.h.resize(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      buckets.h[v] = options.heuristic(v);
    }
  }

  const RelaxPlan plan{
      .source = source,
      .seed_token = cluster::pack_token_saturating(
          cluster::TokenKind::kLocal, buckets.bucket_of(0, source), source),
      .work_budget = options.work_budget,
      .poll_interval = options.poll_interval,
      .num_workgroups = options.num_workgroups,
      .load_weights = g.has_weights(),
      .delta = &buckets,
      .capacity = {.explicit_capacity = options.queue_capacity,
                   .hint = g.num_vertices(),
                   .headroom = options.queue_headroom}};
  RelaxRun r = run_relax(
      config, g, plan, options, [&](simt::Device& dev, std::uint64_t capacity) {
        return tasks::make_banded_queue(dev, capacity, options.num_bands);
      });

  SsspResult result;
  result.run = r.retry.run;
  result.attempts = r.retry.attempts;
  result.black_box = std::move(r.retry.black_box);
  result.dist = std::move(r.cost);
  return result;
}

}  // namespace scq::bfs
