// Perf-regression guard: compares two performance artifacts (telemetry
// JSON exports or bench BENCH_*.json files) metric-by-metric against a
// tolerance.
//
// The simulator is integer-deterministic, so a same-seed rerun
// reproduces every metric bit-exactly and baselines can be checked into
// the repo and compared across machines. Under a non-zero tolerance the
// diff treats every metric as higher-is-worse (they are cycle counts, retry counts, and latency
// percentiles); a metric present in the baseline but missing from the
// current run is itself a regression — a silently vanished measurement
// must not pass the guard.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/json.h"

namespace scq::util {

// The artifact flattener (util::flatten_metrics) lives in util/json.h:
// it is shared with the telemetry exporter's summary-key list and the
// bench harness baseline check, not specific to the diff below.

struct MetricDelta {
  std::string key;
  double baseline = 0.0;
  double current = 0.0;
  // Signed percent change relative to the baseline (0 when both are 0).
  double delta_pct = 0.0;
  bool regressed = false;
};

struct DiffResult {
  std::vector<MetricDelta> deltas;         // baseline key order
  std::vector<std::string> missing;        // in baseline, not in current
  [[nodiscard]] bool ok() const {
    if (!missing.empty()) return false;
    for (const MetricDelta& d : deltas) {
      if (d.regressed) return false;
    }
    return true;
  }
};

// Compares current against baseline. A non-zero baseline metric
// regresses when
//   current > baseline + baseline * tolerance_pct / 100
// A zero-valued baseline has nothing for a relative tolerance to be
// relative *to*, so it falls back to the absolute allowance instead:
//   current > abs_tolerance
// (the default 0 demands a zero metric stay exactly zero — the honest
// reading of a deterministic baseline). With both tolerances 0 the diff
// is exact and two-sided: any change fails, a drop as well as a rise,
// since an unexplained improvement of a seed-0 count is a behaviour
// change too (re-baseline deliberately; see TESTING.md). Metrics only
// in `current` are ignored — new measurements must not fail old
// baselines.
[[nodiscard]] DiffResult diff_metrics(
    const std::map<std::string, double>& baseline,
    const std::map<std::string, double>& current, double tolerance_pct,
    double abs_tolerance = 0.0);

// Human-readable report; `all` includes non-regressed metrics too.
[[nodiscard]] std::string render_diff(const DiffResult& diff, bool all);

}  // namespace scq::util
