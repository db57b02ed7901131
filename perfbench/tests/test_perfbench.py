#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

    python3 perfbench/tests/test_perfbench.py

Checks that each run passes its output checks and prints every metric that
BENCHMARK.json names, with the unit it names; that the search and cost
counts of the traced run repeat exactly across two runs at one seed; and
that the benchmark fails without printing a result when the library sources
are absent. Builds the harness on first use (see perfbench/run.py).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py accepts, including `interact`, which BENCHMARK.json
# does not gate (see perfbench/README.md).
WORKLOADS = ["generate", "interact", "jobs"]
REPEATED_COUNTS = ["search.iterations", "cost.evaluations", "search.tt_hits"]


def run(workload, seed, trace, cwd=ROOT, bench_root=ROOT):
    cmd = [sys.executable, str(bench_root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(f"run failed ({done.returncode}):\n{done.stderr[-3000:]}")
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run(workload, seed=3, trace=0))
                self.check_metrics(result, SPEC["end_to_end"])
                for name in ("op_ms.p50", "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0.0, name)

    def test_traced_runs_print_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(result_of(run(workload, seed=3, trace=1)),
                                   SPEC["per_layer"])

    def test_search_counts_repeat_at_one_seed(self):
        first = result_of(run("generate", seed=11, trace=1))["metrics"]
        second = result_of(run("generate", seed=11, trace=1))["metrics"]
        for name in REPEATED_COUNTS:
            self.assertGreater(first[name]["value"], 0, name)
            self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_fails_without_the_library_sources(self):
        bare = ROOT / ".bench_build" / "perfbench-bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        try:
            done = run("generate", seed=1, trace=0, cwd=bare, bench_root=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
