"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests -v

The tests run perfbench/run.py (which builds the driver on first use) on
the real workloads with a short measuring time; they take a few minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    """Runs one workload; returns (exit code, parsed result line)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no result from %s:\n%s" % (cmd, out.stderr))
    return out.returncode, json.loads(lines[-1])


def is_host_measurement(name, unit):
    """Host time and memory; every other metric is counted by the program."""
    return (unit in ("s", "ns", "us", "MB") or name.startswith("sim.share.")
            or name == "sim.trace_overhead")


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]
        cls.results = {}
        for w in cls.workloads:
            for trace in (0, 1):
                cls.results[(w, trace)] = [run(w, trace) for _ in range(2)]

    def test_metric_names_are_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.bench[key]]
        self.assertEqual(len(names), len(set(names)))
        for runs in self.results.values():
            for _, result in runs:
                names.extend(result["metrics"])
        for name in names:
            self.assertRegex(name, NAME)

    def test_results_report_exactly_the_declared_metrics(self):
        for (w, trace), runs in self.results.items():
            key = "per_layer" if trace else "end_to_end"
            declared = {m["name"]: m["unit"] for m in self.bench[key]}
            for code, result in runs:
                self.assertEqual(code, 0, w)
                self.assertTrue(result["correct"], w)
                self.assertEqual(result["failed"], 0, w)
                self.assertGreaterEqual(result["attempted"], 1, w)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, declared, (w, trace))

    def test_exact_metrics_repeat_across_invocations(self):
        for (w, trace), ((_, a), (_, b)) in self.results.items():
            for name, m in a["metrics"].items():
                if is_host_measurement(name, m["unit"]):
                    continue
                self.assertEqual(m["value"], b["metrics"][name]["value"],
                                 "%s %s" % (w, name))

    def test_no_retries_at_this_seed(self):
        for (w, trace), runs in self.results.items():
            calls = 3 if w == "tasks-grid" else 1
            for _, result in runs:
                m = result["metrics"]
                if trace:
                    self.assertEqual(m["retry_attempts"]["value"], 0, w)
                else:
                    self.assertEqual(m["launch_attempts"]["value"], calls, w)

    def test_corrupted_output_is_a_failed_operation(self):
        for w in ("bfs-powerlaw", "tasks-grid"):
            code, result = run(w, 0, "--corrupt-first-call")
            self.assertNotEqual(code, 0, w)
            self.assertFalse(result["correct"], w)
            self.assertEqual(result["failed"], 1, w)
            self.assertGreater(result["attempted"], 1, w)


if __name__ == "__main__":
    unittest.main()
