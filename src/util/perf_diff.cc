#include "util/perf_diff.h"

#include <algorithm>
#include <cstdio>

namespace scq::util {

DiffResult diff_metrics(const std::map<std::string, double>& baseline,
                        const std::map<std::string, double>& current,
                        double tolerance_pct, double abs_tolerance) {
  // Both tolerances 0: the baseline is a determinism contract, so any
  // change fails — a drop as well as a rise.
  const bool exact = tolerance_pct == 0.0 && abs_tolerance == 0.0;
  DiffResult result;
  for (const auto& [key, base] : baseline) {
    const auto it = current.find(key);
    if (it == current.end()) {
      result.missing.push_back(key);
      continue;
    }
    MetricDelta d;
    d.key = key;
    d.baseline = base;
    d.current = it->second;
    // Reporting only: percent change against a zero baseline is
    // rendered relative to 1 so the sign and scale still read.
    d.delta_pct = base == 0.0 && d.current == 0.0
                      ? 0.0
                      : 100.0 * (d.current - base) / std::max(base, 1.0);
    // Zero baselines get the absolute allowance — a relative tolerance
    // of nothing is nothing, and the old max(base, 1) denominator let
    // the tolerance knob silently mean "absolute" there.
    const double allowance =
        base > 0.0 ? base * tolerance_pct / 100.0 : abs_tolerance;
    d.regressed = exact ? d.current != base : d.current > base + allowance;
    result.deltas.push_back(std::move(d));
  }
  return result;
}

std::string render_diff(const DiffResult& diff, bool all) {
  std::string out;
  char buf[256];
  std::size_t regressed = 0;
  for (const MetricDelta& d : diff.deltas) regressed += d.regressed;

  for (const std::string& key : diff.missing) {
    std::snprintf(buf, sizeof(buf),
                  "  MISSING    %-40s (in baseline, absent from current)\n",
                  key.c_str());
    out += buf;
  }
  for (const MetricDelta& d : diff.deltas) {
    if (!d.regressed && !all) continue;
    std::snprintf(buf, sizeof(buf), "  %-10s %-40s %14g -> %14g (%+.2f%%)\n",
                  !d.regressed                 ? "ok"
                  : d.current < d.baseline ? "CHANGED"
                                           : "REGRESSED",
                  d.key.c_str(), d.baseline,
                  d.current, d.delta_pct);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  %zu metric(s) compared, %zu regressed, %zu missing\n",
                diff.deltas.size(), regressed, diff.missing.size());
  out += buf;
  return out;
}

}  // namespace scq::util
