// Reproduces Figure 4: execution time and speedup of the three queue
// variants as workgroups are added, for every dataset and device
// (sub-figures a-l). Speedup is relative to one workgroup of the same
// variant; the ideal line is linear in workgroups.
//
//   ./fig4_scalability [--scale 0.02] [--dataset NAME] [--device Fiji]
//                      [--csv out.csv]
#include "bench_common.h"

using namespace scq;
using namespace scq::bench;

int main(int argc, char** argv) {
  util::ArgParser args("fig4_scalability",
                       "Fig. 4: time & speedup vs workgroups");
  args.add_double("scale", "dataset scale factor in (0,1]", 0.02);
  args.add_string("dataset", "one dataset name, or 'all'", "all");
  args.add_string("device", "Fiji, Spectre, or all", "all");
  args.add_string("csv", "dump raw series to this CSV file", "");
  add_observability_flags(args);
  if (!args.parse(argc, argv)) return 2;
  Observability obs(args, "fig4_scalability");

  const double scale = args.get_double("scale");
  std::vector<DeviceEntry> devices;
  if (args.get_string("device") == "all") {
    devices = paper_devices();
  } else {
    devices = {device_by_name(args.get_string("device"))};
  }
  std::vector<bfs::DatasetSpec> datasets;
  if (args.get_string("dataset") == "all") {
    datasets = bfs::paper_datasets();
  } else {
    datasets = {bfs::dataset_by_name(args.get_string("dataset"))};
  }

  const QueueVariant variants[] = {QueueVariant::kBase, QueueVariant::kAn,
                                   QueueVariant::kRfan};
  util::CsvWriter csv(
      {"device", "dataset", "variant", "workgroups", "seconds", "speedup"});

  for (const DeviceEntry& dev : devices) {
    for (const bfs::DatasetSpec& spec : datasets) {
      const graph::Graph g = spec.build(scale);
      std::printf("\n=== %s / %s (scale %.3f) ===\n", dev.config.name.c_str(),
                  spec.name.c_str(), scale);
      std::printf("%-6s", "nWG");
      for (const QueueVariant v : variants) {
        std::printf(" %12s(s) %9s", std::string(to_string(v)).c_str(), "spd");
      }
      std::printf(" %9s\n", "ideal");

      std::vector<double> base_seconds(3, 0.0);
      for (const std::uint32_t wgs : workgroup_sweep(dev.paper_workgroups)) {
        std::printf("%-6u", wgs);
        int vi = 0;
        for (const QueueVariant variant : variants) {
          bfs::PtBfsOptions opt;
          opt.variant = variant;
          opt.num_workgroups = wgs;
          obs.apply(opt);
          const bfs::BfsResult r = run_validated(obs.tuned(dev.config), g, spec.source, opt);
          obs.after_run(std::string(to_string(variant)));
          const std::string key = dev.config.name + "." + spec.name + "." +
                                  std::string(to_string(variant)) + ".wg" +
                                  std::to_string(wgs);
          obs.record_metric(key + ".cycles", static_cast<double>(r.run.cycles));
          obs.record_metric(key + ".attempts", r.attempts);
          if (wgs == 1) base_seconds[vi] = r.run.seconds;
          const double speedup = base_seconds[vi] / r.run.seconds;
          std::printf(" %12.6f %8.2fx", r.run.seconds, speedup);
          csv.add_row({dev.config.name, spec.name,
                       std::string(to_string(variant)), std::to_string(wgs),
                       util::Table::fmt_double(r.run.seconds, 6),
                       util::Table::fmt_double(speedup, 3)});
          ++vi;
        }
        std::printf(" %8ux\n", wgs);
      }
    }
  }

  if (const std::string& path = args.get_string("csv"); !path.empty()) {
    if (!csv.write(path)) return 1;
    std::printf("\nseries -> %s\n", path.c_str());
  }
  if (!obs.finish()) return 1;
  return 0;
}
