#!/usr/bin/env python3
"""Self-check of the X-Search benchmark.

Runs a short smoke of every workload through perfbench/run.py and checks
that the result line carries every metric BENCHMARK.json names, with its
unit; that the count metrics repeat exactly for one seed; and that a reply
record damaged by the bench-side handler is counted as a failed call.

    python3 perfbench/tests/test_perfbench.py      (from the repository root)

The first run builds the benchmark, which takes a minute or so.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "1"
EXACT_COUNTS = ("engine.calls_per_query", "sgx.ecalls_per_query", "sgx.ocalls_per_query")


def run_bench(workload, trace, seed=7, extra=()):
    """Runs one benchmark invocation; returns (exit code, parsed last line)."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1])


class BenchmarkSelfCheck(unittest.TestCase):
    def assert_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float), spec["name"])

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assert_metrics(result, specs)
                    if trace == 0:  # end-to-end metrics are never 0
                        for spec in specs:
                            self.assertGreater(result["metrics"][spec["name"]]["value"], 0,
                                               spec["name"])

    def test_count_metrics_repeat_for_one_seed(self):
        for workload in ("search", "churn"):
            with self.subTest(workload=workload):
                first = run_bench(workload, 1, seed=3)[1]["metrics"]
                second = run_bench(workload, 1, seed=3)[1]["metrics"]
                for name in EXACT_COUNTS:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_corrupted_reply_records_count_as_failures(self):
        code, result = run_bench("saturate", 1, extra=("--corrupt-every", "8"))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["fail_ratio"]["value"], 0)
        code, result = run_bench("search", 0, extra=("--corrupt-every", "8"))
        self.assertEqual(code, 1)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
