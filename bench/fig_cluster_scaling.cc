// Cluster scaling: multi-device BFS/SSSP makespan and speedup for the
// three ring schedulers as devices are added. Every run is validated
// against the serial reference; a 1-device cluster is the baseline the
// speedup column divides by (and reproduces the single-device
// algorithm's results).
//
//   ./fig_cluster_scaling [--devices 1,2,4,8] [--scale 0.02]
//                         [--dataset NAME|all] [--device Spectre]
//                         [--partition block|round-robin|degree]
//                         [--policy owner-only|steal] [--quantum 2048]
//                         [--sssp] [--csv out.csv]
#include "bench_common.h"

#include "bfs/cluster_bfs.h"
#include "graph/partition.h"
#include "graph/sssp_ref.h"

using namespace scq;
using namespace scq::bench;

namespace {

std::vector<std::uint32_t> parse_devices(const std::string& csv) {
  std::vector<std::uint32_t> devices;
  std::string tok;
  for (std::size_t i = 0; i <= csv.size(); ++i) {
    if (i == csv.size() || csv[i] == ',') {
      if (!tok.empty()) {
        const long v = std::strtol(tok.c_str(), nullptr, 10);
        if (v < 1 || v > 64) {
          std::fprintf(stderr, "bad device count '%s' (want 1..64)\n",
                       tok.c_str());
          std::exit(2);
        }
        devices.push_back(static_cast<std::uint32_t>(v));
        tok.clear();
      }
    } else {
      tok += csv[i];
    }
  }
  if (devices.empty()) {
    std::fprintf(stderr, "--devices needs at least one count\n");
    std::exit(2);
  }
  return devices;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("fig_cluster_scaling",
                       "Cluster scaling: makespan & speedup vs device count");
  args.add_string("devices", "comma-separated device counts", "1,2,4,8");
  args.add_double("scale", "dataset scale factor in (0,1]", 0.02);
  args.add_string("dataset", "one dataset name, or 'all'", "all");
  args.add_string("device", "Fiji or Spectre (per-device config)", "Spectre");
  args.add_string("partition", "block, round-robin, or degree", "block");
  args.add_string("policy", "owner-only or steal", "owner-only");
  args.add_int("quantum", "superstep quantum in cycles", 2048);
  args.add_flag("sssp", "run weighted SSSP instead of BFS", false);
  args.add_string("csv", "dump raw series to this CSV file", "");
  add_sweep_flags(args);
  add_observability_flags(args);
  if (!args.parse(argc, argv)) return 2;
  Observability obs(args, "fig_cluster_scaling");

  const std::vector<std::uint32_t> devices =
      parse_devices(args.get_string("devices"));
  obs.set_device_count(*std::max_element(devices.begin(), devices.end()));
  const DeviceEntry dev = device_by_name(args.get_string("device"));
  const auto partition =
      graph::partition_policy_from_string(args.get_string("partition"));
  const auto balance =
      cluster::balance_policy_from_string(args.get_string("policy"));
  const bool sssp = args.get_flag("sssp");
  const double scale = args.get_double("scale");

  std::vector<bfs::DatasetSpec> datasets;
  if (args.get_string("dataset") == "all") {
    datasets = bfs::paper_datasets();
  } else {
    datasets = {bfs::dataset_by_name(args.get_string("dataset"))};
  }

  const QueueVariant variants[] = {QueueVariant::kBase, QueueVariant::kAn,
                                   QueueVariant::kRfan};
  util::CsvWriter csv({"dataset", "variant", "devices", "cycles", "speedup",
                       "supersteps", "transferred", "stolen", "cut_fraction"});

  for (const bfs::DatasetSpec& spec : datasets) {
    graph::Graph g = spec.build(scale);
    if (sssp) g = graph::with_random_weights(g, /*seed=*/7);
    const auto bfs_ref = sssp ? std::vector<std::uint32_t>{}
                              : graph::bfs_levels(g, spec.source);
    const auto sssp_ref = sssp ? graph::dijkstra(g, spec.source)
                               : std::vector<std::uint64_t>{};

    std::printf("\n=== %s / %s (scale %.3f, %s, %s/%s) ===\n",
                dev.config.name.c_str(), spec.name.c_str(), scale,
                sssp ? "SSSP" : "BFS",
                std::string(graph::to_string(partition)).c_str(),
                std::string(cluster::to_string(balance)).c_str());
    std::printf("%-8s", "devices");
    for (const QueueVariant v : variants) {
      std::printf(" %14s %8s", std::string(to_string(v)).c_str(), "spd");
    }
    std::printf("\n");

    // Every (device count, variant) point is an independent cluster
    // simulation against the shared const graph/reference, so the grid
    // fans out over the sweep runner; each worker fills only its own
    // slot and the table below renders from the slots in grid order,
    // identical to a serial sweep. Observability sinks are shared
    // process state, so any attached sink pins the sweep to one thread.
    struct Point {
      std::uint32_t n = 0;
      QueueVariant variant{};
      int vi = 0;
    };
    struct PointResult {
      simt::Cycle cycles = 0;
      std::uint64_t supersteps = 0, delivered = 0, stolen = 0;
      double cut = 0.0;
      std::uint32_t attempts = 0;
      std::string error;
    };
    std::vector<Point> points;
    for (const std::uint32_t n : devices) {
      int vi = 0;
      for (const QueueVariant variant : variants) points.push_back({n, variant, vi++});
    }
    std::vector<PointResult> results(points.size());
    const unsigned threads = sweep_threads(args, points.size(), obs.enabled());

    util::parallel_sweep(points.size(), threads, [&](std::size_t i) {
      const Point& p = points[i];
      PointResult& out = results[i];
      bfs::ClusterBfsOptions opt;
      opt.num_devices = p.n;
      opt.variant = p.variant;
      opt.partition = partition;
      opt.balance = balance;
      opt.quantum = static_cast<simt::Cycle>(args.get_int("quantum"));
      obs.apply(opt);

      const auto fail = [&](const std::string& what) {
        out.error = "FATAL: " + std::string(to_string(p.variant)) + " d" +
                    std::to_string(p.n) + ": " + what;
      };
      if (sssp) {
        const bfs::ClusterSsspResult r =
            bfs::run_cluster_sssp(obs.tuned(dev.config), g, spec.source, opt);
        if (r.run.aborted) return fail("aborted: " + r.run.abort_reason);
        if (r.dist != sssp_ref) return fail("SSSP mismatch");
        out = {r.run.cycles, r.run.supersteps, r.run.router.delivered,
               r.run.router.stolen,
               static_cast<double>(r.cut_edges) /
                   std::max<double>(1.0, static_cast<double>(g.num_edges())),
               r.attempts,
               {}};
      } else {
        const bfs::ClusterBfsResult r =
            bfs::run_cluster_bfs(obs.tuned(dev.config), g, spec.source, opt);
        if (r.run.aborted) return fail("aborted: " + r.run.abort_reason);
        if (!bfs::matches_reference(r.levels, bfs_ref)) {
          return fail("BFS mismatch: " + bfs::first_mismatch(r.levels, bfs_ref));
        }
        out = {r.run.cycles, r.run.supersteps, r.run.router.delivered,
               r.run.router.stolen,
               static_cast<double>(r.cut_edges) /
                   std::max<double>(1.0, static_cast<double>(g.num_edges())),
               r.attempts,
               {}};
      }
    });

    std::vector<double> base_cycles(3, 0.0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      const PointResult& r = results[i];
      if (!r.error.empty()) {
        std::fprintf(stderr, "%s\n", r.error.c_str());
        return 1;
      }
      if (p.vi == 0) std::printf("%-8u", p.n);

      obs.after_run(std::string(to_string(p.variant)) + ".d" +
                    std::to_string(p.n));
      const std::string key = "Cluster." + spec.name + "." +
                              std::string(to_string(p.variant)) + ".d" +
                              std::to_string(p.n);
      obs.record_metric(key + ".cycles", static_cast<double>(r.cycles));
      obs.record_metric(key + ".supersteps",
                        static_cast<double>(r.supersteps));
      obs.record_metric(key + ".attempts", r.attempts);

      if (base_cycles[p.vi] == 0.0) {
        base_cycles[p.vi] = static_cast<double>(r.cycles);
      }
      const double speedup = base_cycles[p.vi] / static_cast<double>(r.cycles);
      std::printf(" %14llu %7.2fx",
                  static_cast<unsigned long long>(r.cycles), speedup);
      csv.add_row({spec.name, std::string(to_string(p.variant)),
                   std::to_string(p.n), std::to_string(r.cycles),
                   util::Table::fmt_double(speedup, 3),
                   std::to_string(r.supersteps), std::to_string(r.delivered),
                   std::to_string(r.stolen), util::Table::fmt_double(r.cut, 4)});
      if (p.vi == 2) std::printf("\n");
    }
  }

  if (const std::string& path = args.get_string("csv"); !path.empty()) {
    if (!csv.write(path)) return 1;
    std::printf("\nseries -> %s\n", path.c_str());
  }
  if (!obs.finish()) return 1;
  return 0;
}
