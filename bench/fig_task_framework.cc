// Task-framework workload figure: the three Atos-style irregular
// workloads (connected components, PageRank-delta, greedy coloring in
// both scheduling modes) on the dynamic task framework, swept across
// the queue variants through the one shared front-end.
//
// Per run the bench reports the framework's scheduling statistics —
// spawns, re-executions (respawns), dependency traffic, phase closes —
// and the work amplification
//
//   executions / useful tasks
//
// (useful = one task per vertex, plus the registration pass in
// dependency-mode coloring), which is the figure's work-efficiency
// axis: label-correcting CC re-executes vertices whose label improves
// late, conflict-respawn coloring retries under priority inversions,
// and dependency credits eliminate retries entirely.
//
// Every run validates against the serial reference (union-find CC,
// dense power-iteration PageRank, greedy-by-id coloring) and the bench
// exits non-zero on any mismatch, or if dependency-mode coloring shows
// any re-execution — that mode's zero-retry guarantee is the
// acceptance gate for the credit machinery.
//
//   ./fig_task_framework [--device Spectre] [--bands 4]
#include "bfs/datasets.h"
#include "graph/workload_refs.h"
#include "tasks/workloads/workloads.h"

#include "bench_common.h"

using namespace scq;
using namespace scq::bench;

namespace {

struct BenchRun {
  std::string workload;
  std::string graph_name;
  QueueVariant variant;
  tasks::TaskGraphResult result;
  std::uint64_t useful = 0;  // minimum executions for this workload
  bool valid = false;
};

std::string fmt_ratio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("fig_task_framework",
                       "dynamic task framework workloads across queue "
                       "variants: spawns, re-executions, work efficiency");
  args.add_string("device", "Fiji or Spectre", "Spectre");
  args.add_int("bands", "priority bands for the banded multi-queue", 4);
  add_observability_flags(args);
  if (!args.parse(argc, argv)) return 2;
  Observability obs(args, "fig_task_framework");

  const DeviceEntry dev = device_by_name(args.get_string("device"));
  const auto bands = static_cast<std::uint32_t>(args.get_int("bands"));

  // Shared deterministic inputs (bfs/datasets.h): the power-law graph
  // feeds the propagation workloads (hot vertices re-execute), the grid
  // feeds coloring (long priority chains stress retries/credits).
  const graph::Graph power_law = bfs::synthetic_power_law(1500, 6000);
  const graph::Graph grid = bfs::synthetic_grid(1024);

  const auto cc_ref = graph::connected_components_ref(power_law);
  const auto pr_ref = graph::pagerank_ref(power_law, 0.85, 1e-13);
  const auto color_ref = graph::greedy_coloring_ref(grid);

  const std::vector<QueueVariant> variants = {
      QueueVariant::kBase, QueueVariant::kAn, QueueVariant::kRfan,
      QueueVariant::kMq};

  std::printf("Task framework workloads on %s, %u workgroups, %u mq bands\n\n",
              dev.config.name.c_str(), dev.paper_workgroups, bands);

  std::vector<BenchRun> runs;
  for (const QueueVariant v : variants) {
    tasks::TaskGraphOptions opt;
    opt.variant = v;
    opt.num_bands = bands;
    opt.host.num_workgroups = dev.paper_workgroups;
    obs.apply(opt);

    {
      const tasks::workloads::CcResult r =
          tasks::workloads::run_cc(obs.tuned(dev.config), power_law, opt);
      obs.after_run(std::string("cc/") + std::string(to_string(v)));
      obs.note_black_box(r.graph.black_box);
      runs.push_back({"cc", "power-law", v, r.graph, power_law.num_vertices(),
                      r.label == cc_ref});
    }
    {
      tasks::workloads::PageRankOptions pr;
      const tasks::workloads::PageRankResult r =
          tasks::workloads::run_pagerank_delta(obs.tuned(dev.config),
                                               power_law, pr, opt);
      obs.after_run(std::string("pagerank/") + std::string(to_string(v)));
      obs.note_black_box(r.graph.black_box);
      // Push-based truncation bound, as in the workload tests.
      const double bound = static_cast<double>(power_law.num_vertices()) *
                           pr.threshold / (1.0 - pr.damping);
      double l1 = 0.0;
      for (graph::Vertex u = 0; u < power_law.num_vertices(); ++u) {
        l1 += std::abs(r.rank[u] - pr_ref[u]);
      }
      runs.push_back({"pagerank", "power-law", v, r.graph,
                      power_law.num_vertices(), l1 <= bound + 1e-9});
    }
    {
      // Descending-id seeding: worst case for the priority order, so
      // respawn mode shows its real re-execution cost while credit mode
      // (order-insensitive) stays at zero.
      tasks::workloads::ColoringOptions co;
      co.use_dependencies = false;
      co.adversarial_order = true;
      const tasks::workloads::ColoringResult r =
          tasks::workloads::run_coloring(obs.tuned(dev.config), grid, co, opt);
      obs.after_run(std::string("color-respawn/") + std::string(to_string(v)));
      obs.note_black_box(r.graph.black_box);
      runs.push_back({"color-respawn", "grid", v, r.graph,
                      grid.num_vertices(), r.color == color_ref});
    }
    {
      tasks::workloads::ColoringOptions co;
      co.use_dependencies = true;
      co.adversarial_order = true;
      const tasks::workloads::ColoringResult r =
          tasks::workloads::run_coloring(obs.tuned(dev.config), grid, co, opt);
      obs.after_run(std::string("color-deps/") + std::string(to_string(v)));
      obs.note_black_box(r.graph.black_box);
      // Useful work includes the band-0 registration pass (n tasks) and
      // the phase-start fan-out task.
      runs.push_back({"color-deps", "grid", v, r.graph,
                      2 * grid.num_vertices() + 1, r.color == color_ref});
    }
  }

  util::Table table({"Workload", "Graph", "Variant", "ms", "execs", "spawns",
                     "respawns", "deferred", "amplification", "phase closes",
                     "valid?"});
  util::ReportTable stats_table;
  stats_table.title = "Task framework statistics (per workload x variant)";
  stats_table.columns = {"workload", "variant", "executions", "spawns",
                         "respawns", "phase closes", "work efficiency"};
  bool all_valid = true;
  bool deps_clean = true;
  for (const BenchRun& r : runs) {
    if (r.result.run.aborted) {
      std::fprintf(stderr, "FATAL: %s/%s aborted: %s\n", r.workload.c_str(),
                   std::string(to_string(r.variant)).c_str(),
                   r.result.run.abort_reason.c_str());
      return 1;
    }
    const tasks::TaskStats& s = r.result.stats;
    const double amplification = static_cast<double>(s.executions) /
                                 static_cast<double>(r.useful);
    const std::string variant(to_string(r.variant));
    table.add_row({r.workload, r.graph_name, variant,
                   util::Table::fmt_ms(r.result.run.seconds),
                   std::to_string(s.executions), std::to_string(s.spawns),
                   std::to_string(s.respawns), std::to_string(s.deferred),
                   fmt_ratio(amplification), std::to_string(s.phase_closes),
                   r.valid ? "yes" : "NO"});
    stats_table.rows.push_back(
        {r.workload, variant, std::to_string(s.executions),
         std::to_string(s.spawns), std::to_string(s.respawns),
         std::to_string(s.phase_closes), fmt_ratio(1.0 / amplification)});
    all_valid &= r.valid;
    if (r.workload == "color-deps" && s.respawns != 0) deps_clean = false;

    // All higher-is-worse for the perf_diff guard: scheduling traffic
    // and the amplification ratio itself.
    const std::string key = r.workload + "." + variant;
    obs.record_metric(key + ".executions", static_cast<double>(s.executions));
    obs.record_metric(key + ".spawns", static_cast<double>(s.spawns));
    obs.record_metric(key + ".respawns", static_cast<double>(s.respawns));
    obs.record_metric(key + ".amplification", amplification);
    obs.record_metric(key + ".cycles",
                      static_cast<double>(r.result.run.cycles));
    obs.record_metric(key + ".attempts", r.result.attempts);
  }
  table.print();
  obs.set_task_stats(std::move(stats_table));

  if (!all_valid) {
    std::fprintf(stderr, "FATAL: a workload diverged from its serial "
                         "reference (see table)\n");
    return 1;
  }
  if (!deps_clean) {
    std::fprintf(stderr, "FATAL: dependency-mode coloring re-executed a "
                         "task — the credit machinery must eliminate "
                         "retries\n");
    return 1;
  }
  if (!obs.finish()) return 1;
  return 0;
}
