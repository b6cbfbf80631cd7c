#include "bfs/pt_bfs.h"

#include "bfs/relax_client.h"
#include "core/ext_schedulers.h"

namespace scq::bfs {

BfsResult run_pt_bfs(const simt::DeviceConfig& config, const graph::Graph& g,
                     Vertex source, const PtBfsOptions& options) {
  if (source >= g.num_vertices()) {
    throw simt::SimError("run_pt_bfs: source out of range");
  }
  if (options.work_budget == 0 || options.work_budget > kMaxWorkBudget) {
    throw simt::SimError("run_pt_bfs: work_budget must be in [1, kMaxWorkBudget]");
  }

  const RelaxPlan plan{
      .source = source,
      .seed_token = source,
      .work_budget = options.work_budget,
      .poll_interval = options.poll_interval,
      .num_workgroups = options.num_workgroups,
      .atomic_min = options.atomic_discovery,
      .capacity = {.explicit_capacity = options.queue_capacity,
                   .hint = g.num_vertices(),
                   .headroom = options.queue_headroom},
      .detach_recorder = options.detach_recorder};
  const RelaxRun r = run_relax(
      config, g, plan, options, [&](simt::Device& dev, std::uint64_t capacity) {
        return make_scheduler(dev, options.variant, capacity);
      });

  BfsResult result;
  result.run = r.retry.run;
  result.attempts = r.retry.attempts;
  result.black_box = r.retry.black_box;
  result.levels = levels_from_cost(r.cost);
  return result;
}

}  // namespace scq::bfs
