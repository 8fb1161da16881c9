#!/usr/bin/env python3
"""Self-test of the benchmark (takes about two minutes on two cores).

    python3 bench/selftest.py

Runs every workload once with tracing off and once with tracing on, checks
that each metric BENCHMARK.json names is printed with its unit, shows that a
wrong expected fact is counted in ``failed``, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def copy_tree(name: str, with_sources: bool) -> Path:
    """A copy of BENCHMARK.json and bench/ (and src/, if asked) under .bench_tmp."""
    tree = ROOT / ".bench_tmp" / name
    shutil.rmtree(tree, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tree / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    if with_sources:
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
    return tree


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out


class BenchmarkSelfTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def assert_metrics(self, out: dict, declared: list[dict]) -> None:
        printed = {name: m["unit"] for name, m in out["metrics"].items()}
        self.assertEqual(printed, {d["name"]: d["unit"] for d in declared})
        for name, m in out["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_declared_metrics_match_the_code(self):
        self.assertEqual(
            [(d["name"], d["unit"]) for d in self.spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(d["name"], d["unit"]) for d in self.spec["per_layer"]], list(run.PER_LAYER)
        )
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = result(bench("--workload", workload, "--trace", trace))
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assert_metrics(out, self.spec[declared])

    def test_a_wrong_fact_is_counted_as_failed(self):
        tree = copy_tree("selftest-wrong-fact", with_sources=True)
        facts_path = tree / "bench" / "facts.json"
        facts = json.loads(facts_path.read_text())
        facts["census"]["pgl2 19 1"]["classes"] = [25]
        facts_path.write_text(json.dumps(facts))
        try:
            out = result(bench("--workload", "census", "--trace", "0", cwd=tree))
        finally:
            shutil.rmtree(tree)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)
        self.assertEqual(out["attempted"], 2)

    def test_refuses_to_run_without_the_sources(self):
        bare = copy_tree("selftest-bare", with_sources=False)
        try:
            proc = bench("--workload", "construct", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
