"""Smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload once at reduced size, untraced and traced, and checks
that the printed result line has the shape the benchmark promises: every
metric named in BENCHMARK.json with its unit, all outputs correct, and equal
call counts in the two traced passes.  It also checks that the benchmark
refuses to run in a directory without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--smoke"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=cwd, timeout=180)
    return proc


class BenchmarkSmoke(unittest.TestCase):

    def test_per_layer_spec_matches_tracer(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]],
            tracer.metric_specs())

    def check_result(self, workload, trace, section):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr.decode())
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stderr.decode())
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in SPEC[section]})
        return result["metrics"]

    def test_workloads(self):
        for workload in workloads.NAMES:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 0, "end_to_end")
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)
                metrics = self.check_result(workload, 1, "per_layer")
                self.assertEqual(metrics["trace.calls_mismatch"]["value"], 0)
                self.assertGreater(metrics["scalars.mul.calls"]["value"], 0)

    def test_refuses_without_sources(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("engine-a1", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn(b'"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
