#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/test_bench.py          # about a minute once built

Checks that the capacity search is deterministic and monotone in its
SLO, that the printed metric names and units are exactly those in
BENCHMARK.json, that simulated metrics repeat bit for bit across two
runs of one seed, and that the harness refuses to run without src/.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SIM_METRICS = ("sim_capacity_rps", "sim_p99_ms_250rps", "sim_p99_ms_350rps",
               "paper_error_pct")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def run_bench(workload, trace, seed=5, seconds=1):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stderr[-2000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.first = run_bench("ckks-ops", 0)

    def assert_names(self, result, section):
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_end_to_end_names_match(self):
        self.assertTrue(self.first["correct"])
        self.assertEqual(self.first["failed"], 0)
        self.assert_names(self.first, "end_to_end")

    def test_per_layer_names_match_on_every_workload(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            with self.subTest(workload=workload):
                result = run_bench(workload, 1)
                self.assertTrue(result["correct"], workload)
                self.assert_names(result, "per_layer")
                self.assertGreaterEqual(
                    result["metrics"]["obs.span_coverage_pct"]["value"], 95)
                if workload == "serve-mix":
                    # Time inside Scheduler::run and Fleet::run splits
                    # at the program's own spans.
                    for layer in ("core.planner_session", "serve.plan_cache",
                                  "fleet.fleet"):
                        self.assertGreater(result["metrics"][
                            "layer.%s.self_ms" % layer]["value"], 0, layer)

    def test_sim_metrics_repeat_exactly(self):
        again = run_bench("serve-mix", 0)
        for name in SIM_METRICS:
            self.assertEqual(self.first["metrics"][name],
                             again["metrics"][name], name)

    def test_capacity_search_is_stable_and_monotone(self):
        out = subprocess.run(
            [os.path.join(build_dir(), "fastbench"), "--selftest",
             "capacity", "--seed", "5"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertGreater(result["capacity_rps"], 0)
        self.assertEqual(result["capacity_rps"], result["repeat_rps"])
        self.assertLessEqual(result["tight_slo_rps"], result["capacity_rps"])
        self.assertEqual(out.returncode, 0)

    def test_refuses_to_run_without_sources(self):
        scratch = os.path.join(build_dir(), "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
