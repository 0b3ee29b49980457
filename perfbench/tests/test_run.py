"""Self-test of the benchmark at tiny scale (a few seconds per workload).

    python3 perfbench/tests/test_run.py

Checks that every metric BENCHMARK.json names is printed with its unit
in plain and traced runs of every workload, that a cell whose simulated
statistics change between repetitions counts as failed, and that a
failed cell makes the command exit non-zero.
"""

import argparse
import contextlib
import copy
import io
import itertools
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, group):
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, result = invoke(w["name"], trace)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(expected))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], expected[name], name)
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_plain_prints_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_prints_every_per_layer_metric(self):
        self.check(1, "per_layer")


class CorrectnessGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        args = argparse.Namespace(
            workload="mt2-medium", seed=3, scale="tiny")
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            cls.rep, err = run.run_driver("plain", args, tmp,
                                          run.time.monotonic() + 120)
        assert err is None, err

    def test_identical_repetitions_pass(self):
        attempted, failed, _ = run.check_cells([self.rep, self.rep])
        self.assertEqual(attempted, 2 * len(self.rep["cells"]))
        self.assertEqual(failed, 0)

    def test_altered_digest_counts_as_failed(self):
        altered = copy.deepcopy(self.rep)
        altered["cells"][1]["stats"]["event_order_digest"] ^= 1
        _, failed, messages = run.check_cells([self.rep, altered])
        self.assertEqual(failed, 1)
        self.assertIn("differ", messages[0])

    def test_failed_cell_exits_nonzero(self):
        broken = copy.deepcopy(self.rep)
        broken["cells"][0]["ok"] = False
        broken["cells"][0]["error"] = "injected"
        reps = itertools.chain([self.rep, broken], itertools.repeat(self.rep))
        saved = run.build, run.run_driver
        run.build = lambda: None
        run.run_driver = lambda *a, **k: (next(reps), None)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "mt2-medium", "--seed", "3",
                                 "--seconds", "0", "--trace", "0"])
        finally:
            run.build, run.run_driver = saved
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
