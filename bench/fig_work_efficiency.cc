// Work-efficiency figure: delta-stepping on the priority multi-queue
// versus label-correcting SSSP on the FIFO RF-AN ring. Both drivers
// count kEdgesRelaxed only for edges actually relaxed, so
//
//   relaxations / settled vertex
//
// is directly comparable: the FIFO driver re-expands a vertex every
// time a better distance lands after its first expansion, while the
// banded queue drains near buckets first and skips stale tokens, so it
// should relax measurably fewer edges for the same exact distances.
// The bench exits non-zero if delta-stepping does NOT win on the
// aggregate ratio, or if any run's distances disagree with Dijkstra —
// this is the acceptance gate for the priority-queue extension.
//
//   ./fig_work_efficiency [--scale 0.02] [--device Spectre] [--bands 8]
#include "bfs/pt_sssp.h"
#include "bfs/pt_sssp_delta.h"
#include "graph/generators.h"
#include "graph/sssp_ref.h"

#include "bench_common.h"

using namespace scq;
using namespace scq::bench;

namespace {

std::uint64_t settled_count(const std::vector<std::uint64_t>& dist) {
  std::uint64_t n = 0;
  for (const std::uint64_t d : dist) n += d != graph::kUnreachableDist;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("fig_work_efficiency",
                       "SSSP work efficiency: priority bands vs FIFO");
  args.add_double("scale", "road dataset scale factor in (0,1]", 0.02);
  args.add_string("device", "Fiji or Spectre", "Spectre");
  args.add_int("bands", "priority bands for the banded queue", 8);
  args.add_int("max-weight", "random edge weights in [1, max]", 10);
  add_observability_flags(args);
  if (!args.parse(argc, argv)) return 2;
  Observability obs(args, "fig_work_efficiency");

  const DeviceEntry dev = device_by_name(args.get_string("device"));
  const auto bands = static_cast<std::uint32_t>(args.get_int("bands"));
  const auto max_w = static_cast<graph::Weight>(args.get_int("max-weight"));

  struct Workload {
    std::string name;
    graph::Graph g;
  };
  std::vector<Workload> workloads;
  workloads.push_back(
      {"road-NY", graph::with_random_weights(
                      bfs::dataset_by_name("USA-road-d.NY")
                          .build(args.get_double("scale")),
                      1234, max_w)});
  workloads.push_back(
      {"random",
       graph::with_random_weights(bfs::bench_random_graph(), 7, max_w)});
  workloads.push_back(
      {"tree", graph::with_random_weights(bfs::bench_tree_graph(), 11, max_w)});

  std::printf("SSSP work efficiency on %s, %u workgroups, %u bands\n\n",
              dev.config.name.c_str(), dev.paper_workgroups, bands);
  util::Table table({"Dataset", "Scheduler", "ms", "relaxed", "settled",
                     "relax/settled", "stale skips", "band closes", "exact?"});

  double fifo_ratio_sum = 0.0;
  double delta_ratio_sum = 0.0;
  for (const Workload& w : workloads) {
    const auto ref = graph::dijkstra(w.g, 0);
    const std::uint64_t settled = settled_count(ref);

    bfs::PtSsspOptions fifo;
    fifo.variant = QueueVariant::kRfan;
    fifo.num_workgroups = dev.paper_workgroups;
    obs.apply(fifo);
    const bfs::SsspResult rf = bfs::run_pt_sssp(obs.tuned(dev.config), w.g, 0,
                                                fifo);
    obs.after_run(w.name + "/fifo-rfan");

    bfs::PtSsspDeltaOptions banded;
    banded.num_bands = bands;
    banded.num_workgroups = dev.paper_workgroups;
    obs.apply(banded);
    const bfs::SsspResult rd = bfs::run_pt_sssp_delta(obs.tuned(dev.config),
                                                      w.g, 0, banded);
    obs.after_run(w.name + "/delta-mq");

    for (const auto* r : {&rf, &rd}) {
      if (r->run.aborted) {
        std::fprintf(stderr, "FATAL: %s aborted: %s\n", w.name.c_str(),
                     r->run.abort_reason.c_str());
        return 1;
      }
    }
    const bool fifo_exact = rf.dist == ref;
    const bool delta_exact = rd.dist == ref;
    const double fifo_ratio =
        static_cast<double>(rf.run.stats.user[kEdgesRelaxed]) /
        static_cast<double>(settled);
    const double delta_ratio =
        static_cast<double>(rd.run.stats.user[kEdgesRelaxed]) /
        static_cast<double>(settled);
    fifo_ratio_sum += fifo_ratio;
    delta_ratio_sum += delta_ratio;

    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.3f", fifo_ratio);
    table.add_row({w.name, "fifo/rfan", util::Table::fmt_ms(rf.run.seconds),
                   std::to_string(rf.run.stats.user[kEdgesRelaxed]),
                   std::to_string(settled), ratio, "-", "-",
                   fifo_exact ? "yes" : "NO"});
    std::snprintf(ratio, sizeof(ratio), "%.3f", delta_ratio);
    table.add_row({w.name, "delta/mq", util::Table::fmt_ms(rd.run.seconds),
                   std::to_string(rd.run.stats.user[kEdgesRelaxed]),
                   std::to_string(settled), ratio,
                   std::to_string(rd.run.stats.user[kStaleSkips]),
                   std::to_string(rd.run.stats.user[kBandCloses]),
                   delta_exact ? "yes" : "NO"});
    if (!fifo_exact || !delta_exact) {
      std::fprintf(stderr, "FATAL: %s distances mismatch Dijkstra\n",
                   w.name.c_str());
      return 1;
    }

    // Everything recorded is higher-is-worse for the perf_diff guard:
    // relaxations, cycles, the work-efficiency ratios themselves, and
    // the attempt counts (a new deadlock retry fails the diff).
    obs.record_metric(w.name + ".fifo.edges_relaxed",
                      static_cast<double>(rf.run.stats.user[kEdgesRelaxed]));
    obs.record_metric(w.name + ".delta.edges_relaxed",
                      static_cast<double>(rd.run.stats.user[kEdgesRelaxed]));
    obs.record_metric(w.name + ".fifo.relax_per_settled", fifo_ratio);
    obs.record_metric(w.name + ".delta.relax_per_settled", delta_ratio);
    obs.record_metric(w.name + ".fifo.cycles",
                      static_cast<double>(rf.run.cycles));
    obs.record_metric(w.name + ".delta.cycles",
                      static_cast<double>(rd.run.cycles));
    obs.record_metric(w.name + ".delta.stale_skips",
                      static_cast<double>(rd.run.stats.user[kStaleSkips]));
    obs.record_metric(w.name + ".fifo.attempts", rf.attempts);
    obs.record_metric(w.name + ".delta.attempts", rd.attempts);
  }
  table.print();

  std::printf("\naggregate relax/settled: fifo %.3f  delta %.3f\n",
              fifo_ratio_sum / workloads.size(),
              delta_ratio_sum / workloads.size());
  if (delta_ratio_sum >= fifo_ratio_sum) {
    std::fprintf(stderr,
                 "FATAL: delta-stepping did not reduce relaxations per "
                 "settled vertex (fifo %.3f vs delta %.3f)\n",
                 fifo_ratio_sum / workloads.size(),
                 delta_ratio_sum / workloads.size());
    return 1;
  }
  if (!obs.finish()) return 1;
  return 0;
}
