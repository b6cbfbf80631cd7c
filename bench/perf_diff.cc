// Perf-regression guard CLI: compares a current performance artifact
// (bench --json output or a telemetry JSON export) against a baseline,
// metric by metric. Exits non-zero when any metric regressed past the
// tolerance or vanished from the current run, so CI can gate on it.
//
//   ./perf_diff --baseline results/baselines/bfs_rfan.json
//               --current out.json [--tolerance 0] [--all]
//
// The simulator is integer-deterministic: a same-seed rerun reproduces
// every metric exactly, so checked-in baselines diff cleanly at
// tolerance 0 and any drift is a real behavior change. At tolerance 0
// (and abs-tolerance 0) the diff is exact and two-sided: a drop fails
// as well as a rise.
#include <cstdio>

#include "util/args.h"
#include "util/json.h"
#include "util/perf_diff.h"

using namespace scq;

namespace {

std::optional<std::map<std::string, double>> load_metrics(
    const std::string& path) {
  const std::optional<util::JsonValue> doc = util::parse_json_file(path);
  if (!doc) {
    std::fprintf(stderr, "perf_diff: cannot read or parse %s\n", path.c_str());
    return std::nullopt;
  }
  std::map<std::string, double> metrics = util::flatten_metrics(*doc);
  if (metrics.empty()) {
    std::fprintf(stderr, "perf_diff: no numeric metrics found in %s\n",
                 path.c_str());
    return std::nullopt;
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("perf_diff",
                       "compare two perf artifacts; non-zero exit on regression");
  args.add_string("baseline", "baseline metrics JSON (bench or telemetry)", "");
  args.add_string("current", "current metrics JSON to check", "");
  args.add_double("tolerance",
                  "allowed relative increase per metric (percent); 0 with "
                  "abs-tolerance 0 fails on any change",
                  0.0);
  args.add_double("abs-tolerance",
                  "allowed absolute increase for zero-valued baseline metrics",
                  0.0);
  args.add_flag("all", "print every metric, not just regressions", false);
  if (!args.parse(argc, argv)) return 2;

  // Flags or two positionals: perf_diff base.json current.json.
  std::string baseline_path = args.get_string("baseline");
  std::string current_path = args.get_string("current");
  const auto& pos = args.positional();
  if (baseline_path.empty() && pos.size() >= 1) baseline_path = pos[0];
  if (current_path.empty() && pos.size() >= 2) current_path = pos[1];
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr, "perf_diff: need --baseline and --current\n");
    args.print_usage();
    return 2;
  }

  const auto baseline = load_metrics(baseline_path);
  const auto current = load_metrics(current_path);
  if (!baseline || !current) return 2;

  const util::DiffResult diff =
      util::diff_metrics(*baseline, *current, args.get_double("tolerance"),
                         args.get_double("abs-tolerance"));
  std::printf("perf_diff: %s vs %s (tolerance %.2f%%)\n", current_path.c_str(),
              baseline_path.c_str(), args.get_double("tolerance"));
  std::fputs(util::render_diff(diff, args.get_flag("all")).c_str(), stdout);
  if (!diff.ok()) {
    std::fprintf(stderr, "perf_diff: FAIL — performance regressed\n");
    return 1;
  }
  std::printf("perf_diff: OK\n");
  return 0;
}
