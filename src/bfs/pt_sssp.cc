#include "bfs/pt_sssp.h"

#include "bfs/relax_client.h"
#include "core/ext_schedulers.h"

namespace scq::bfs {

SsspResult run_pt_sssp(const simt::DeviceConfig& config, const graph::Graph& g,
                       Vertex source, const PtSsspOptions& options) {
  if (source >= g.num_vertices()) {
    throw simt::SimError("run_pt_sssp: source out of range");
  }
  if (options.work_budget == 0 || options.work_budget > kMaxWorkBudget) {
    throw simt::SimError("run_pt_sssp: work_budget out of range");
  }

  const RelaxPlan plan{
      .source = source,
      .seed_token = source,
      .work_budget = options.work_budget,
      .poll_interval = options.poll_interval,
      .num_workgroups = options.num_workgroups,
      .load_weights = g.has_weights(),
      .capacity = {.explicit_capacity = options.queue_capacity,
                   .hint = g.num_vertices(),
                   .headroom = options.queue_headroom}};
  RelaxRun r = run_relax(
      config, g, plan, options, [&](simt::Device& dev, std::uint64_t capacity) {
        return make_scheduler(dev, options.variant, capacity);
      });

  SsspResult result;
  result.run = r.retry.run;
  result.attempts = r.retry.attempts;
  result.black_box = std::move(r.retry.black_box);
  result.dist = std::move(r.cost);  // kUnvisited == kUnreachableDist
  return result;
}

}  // namespace scq::bfs
