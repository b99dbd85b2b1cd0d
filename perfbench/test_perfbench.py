#!/usr/bin/env python3
"""Self-test of the benchmark at small sizes.

Run from the repository root:  python3 perfbench/test_perfbench.py

Checks that every BENCHMARK.json metric is emitted with its unit, that every
sort verifies, that the simulated makespan and every count repeat exactly
for a fixed seed, and that the command fails without a result when the
library sources are absent.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def result(workload, trace):
    r = run(workload, trace)
    if r.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{r.returncode}:\n{r.stderr}")
    return json.loads(r.stdout.strip().split("\n")[-1])


def deterministic(name, unit):
    """Metrics that depend only on the seed, never on host timing."""
    return (name in ("sim_makespan_s", "max_load_ratio")
            or name.endswith((".sim_s", ".sim_wait_s"))
            or unit in ("count", "bytes"))


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = ([w["name"] for w in cls.spec["workloads"]] +
                         ["scale_p1024"])

    def check_mode(self, trace, key):
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        for w in self.workloads:
            with self.subTest(workload=w):
                first, second = result(w, trace), result(w, trace)
                for res in (first, second):
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                for name, unit in want.items():
                    if deterministic(name, unit):
                        self.assertEqual(first["metrics"][name]["value"],
                                         second["metrics"][name]["value"],
                                         f"{w}: {name} differs between runs")

    def test_end_to_end_metrics(self):
        self.check_mode(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check_mode(1, "per_layer")

    def test_fails_without_library_sources(self):
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_build")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            r = run(self.workloads[0], 0, cwd=tmp, env=env)
            self.assertNotEqual(r.returncode, 0)
            self.assertFalse(any(line.startswith("{")
                                 for line in r.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
