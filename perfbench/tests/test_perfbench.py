#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

They build the harness like a benchmark run does, then run every workload
on a small graph (n = 2000, 1-second window) and check the result line
against BENCHMARK.json; they also check that an injected wrong solve or
epoch digest is reported as a failure by the check it targets, and that
unknown names are rejected.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

SPEC = run.load_spec()


def bench(*args, stderr=None):
    """Runs perfbench/run.py; returns (exit code, parsed last line or None).

    With `stderr` a list, the run's failure messages are appended to it."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py")] +
                          list(args), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if stderr is not None:
        stderr.extend(line for line in proc.stderr.splitlines()
                      if line.startswith("perfbench: "))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def small(workload, trace, *extra, stderr=None):
    return bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--n", "2000", *extra, stderr=stderr)


class SmokeTest(unittest.TestCase):
    """Every workload prints every declared metric, with its unit."""

    def check(self, workload, trace):
        code, result = small(workload, trace)
        self.assertEqual(code, 0, result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_exact_counts_repeat(self):
        _, a = small("replay-ba", 0)
        _, b = small("replay-ba", 0)
        for name in ("ds_size", "rounds", "messages_sent", "bits_sent"):
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)


class FailureTest(unittest.TestCase):
    def inject(self, workload, fault):
        """Runs with `fault` injected; returns the failure messages."""
        errors = []
        code, result = small(workload, 0, "--inject", fault, stderr=errors)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        return errors

    def test_wrong_solve_digest_is_a_failure(self):
        errors = self.inject("solve-ba", "solve-digest")
        self.assertTrue(any("solve: digest" in e for e in errors), errors)
        self.assertFalse(any("offline epoch digest" in e for e in errors),
                         errors)

    def test_wrong_epoch_digest_fails_the_served_checks(self):
        # The served path's own checks fail -- epoch 0, each commit reply
        # and each query reply against the offline replay -- while every
        # solve check still passes.
        errors = self.inject("serve-gnp", "epoch-digest")
        for what in ("offline epoch 0 digest", "commit 1: served digest",
                     "query reply for epoch"):
            self.assertTrue(any(what in e for e in errors), (what, errors))
        self.assertFalse(any("solve: digest" in e for e in errors), errors)

    def test_unknown_workload_is_rejected(self):
        code, result = bench("--workload", "solve-er", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)

    def test_missing_sources_give_no_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "solve-ba",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class SelectMetricsTest(unittest.TestCase):
    """run.select_metrics accepts exactly what BENCHMARK.json declares."""

    def raw(self):
        return {"end_to_end": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                               for m in SPEC["end_to_end"]}}

    def test_declared_metrics_pass(self):
        out = run.select_metrics(self.raw(), SPEC, trace=False)
        self.assertEqual(len(out), len(SPEC["end_to_end"]))

    def test_unknown_metric_is_rejected(self):
        raw = self.raw()
        raw["end_to_end"]["latency_ms"] = {"value": 1.0, "unit": "ms"}
        with self.assertRaisesRegex(ValueError, "unknown metrics"):
            run.select_metrics(raw, SPEC, trace=False)

    def test_missing_metric_is_rejected(self):
        raw = self.raw()
        del raw["end_to_end"]["solve_ms"]
        with self.assertRaisesRegex(ValueError, "not produced"):
            run.select_metrics(raw, SPEC, trace=False)

    def test_wrong_unit_is_rejected(self):
        raw = self.raw()
        raw["end_to_end"]["solve_ms"]["unit"] = "s"
        with self.assertRaisesRegex(ValueError, "unit"):
            run.select_metrics(raw, SPEC, trace=False)

    def test_non_finite_value_is_rejected(self):
        raw = self.raw()
        raw["end_to_end"]["solve_ms"]["value"] = float("nan")
        with self.assertRaisesRegex(ValueError, "finite"):
            run.select_metrics(raw, SPEC, trace=False)


if __name__ == "__main__":
    unittest.main()
