// Reproduces Table 3 (kernel execution times of the BASE / AN / RF/AN
// queue variants across six datasets and two devices) and Table 4 (the
// performance improvement of AN and RF/AN over BASE).
//
//   ./table3_kernel_times [--scale 0.05] [--device Fiji|Spectre|all]
//                         [--csv out.csv]
#include <map>

#include "bench_common.h"

using namespace scq;
using namespace scq::bench;

int main(int argc, char** argv) {
  util::ArgParser args("table3_kernel_times",
                       "Table 3/4: queue-variant kernel times");
  args.add_double("scale", "dataset scale factor in (0,1]; 1 = paper size", 0.05);
  args.add_string("device", "Fiji, Spectre, or all", "all");
  args.add_string("dataset", "one dataset name, or 'all'", "all");
  args.add_string("csv", "also dump raw rows to this CSV file", "");
  args.add_int("budget", "work-cycle sub-task budget", 4);
  add_observability_flags(args);
  if (!args.parse(argc, argv)) return 2;
  Observability obs(args, "table3_kernel_times");

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

  util::Table table3({"GPU", "nWG", "Dataset", "BASE (s)", "AN (s)", "RF/AN (s)"});
  util::Table table4({"Dataset", "GPU", "AN vs BASE", "RF/AN vs BASE"});
  util::CsvWriter csv({"device", "workgroups", "dataset", "variant", "seconds",
                       "cycles", "queue_atomics", "cas_failures"});

  std::printf("Table 3 reproduction — scale %.3f (paper-size graphs at 1.0)\n\n",
              scale);

  for (const DeviceEntry& dev : devices) {
    for (const bfs::DatasetSpec& spec : datasets) {
      const graph::Graph g = spec.build(scale);
      std::map<QueueVariant, double> seconds;
      for (const QueueVariant variant : variants) {
        bfs::PtBfsOptions opt;
        opt.variant = variant;
        opt.num_workgroups = dev.paper_workgroups;
        opt.work_budget = static_cast<unsigned>(args.get_int("budget"));
        obs.apply(opt);
        const bfs::BfsResult r = run_validated(obs.tuned(dev.config), g, spec.source, opt);
        seconds[variant] = r.run.seconds;
        obs.note_black_box(r.black_box);
        obs.after_run(std::string(to_string(variant)));
        const std::string key = dev.config.name + "." + spec.name + "." +
                                std::string(to_string(variant));
        obs.record_metric(key + ".cycles", static_cast<double>(r.run.cycles));
        obs.record_metric(key + ".queue_atomics",
                          static_cast<double>(r.run.stats.user[kQueueAtomics]));
        obs.record_metric(key + ".cas_failures",
                          static_cast<double>(r.run.stats.cas_failures));
        obs.record_metric(key + ".attempts", r.attempts);
        csv.add_row({dev.config.name, std::to_string(dev.paper_workgroups),
                     spec.name, std::string(to_string(variant)),
                     util::Table::fmt_double(r.run.seconds, 6),
                     std::to_string(r.run.cycles),
                     std::to_string(r.run.stats.user[kQueueAtomics]),
                     std::to_string(r.run.stats.cas_failures)});
        std::printf("  %-8s %-18s %-6s %9.5fs  (queue atomics %llu)\n",
                    dev.config.name.c_str(), spec.name.c_str(),
                    std::string(to_string(variant)).c_str(), r.run.seconds,
                    static_cast<unsigned long long>(
                        r.run.stats.user[kQueueAtomics]));
      }
      table3.add_row({dev.config.name, std::to_string(dev.paper_workgroups),
                      spec.name,
                      util::Table::fmt_double(seconds[QueueVariant::kBase], 5),
                      util::Table::fmt_double(seconds[QueueVariant::kAn], 5),
                      util::Table::fmt_double(seconds[QueueVariant::kRfan], 5)});
      table4.add_row(
          {spec.name, dev.config.name,
           util::Table::fmt_percent(seconds[QueueVariant::kBase] /
                                    seconds[QueueVariant::kAn]),
           util::Table::fmt_percent(seconds[QueueVariant::kBase] /
                                    seconds[QueueVariant::kRfan])});
    }
  }

  std::printf("\nTable 3: execution times (seconds) of queue variants\n");
  table3.print();
  std::printf("\nTable 4: performance improvement over BASE (paper reports "
              "BASE/variant as a percentage)\n");
  table4.print();

  if (const std::string& path = args.get_string("csv"); !path.empty()) {
    if (!csv.write(path)) return 1;
    std::printf("\nraw rows -> %s\n", path.c_str());
  }
  if (!obs.finish()) return 1;
  return 0;
}
