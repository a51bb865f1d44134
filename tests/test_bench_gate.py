#!/usr/bin/env python3
"""tools/check_bench_regression.py, the CI engine timing gate, on synthetic
google-benchmark reports.  Each case writes a parent's and a change's
reports to a temporary directory, runs the gate and checks its exit status.

Run one case:  python3 tests/test_bench_gate.py BenchGate.test_twenty_percent_slower_fails
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

GATE = Path(__file__).resolve().parents[1] / "tools" / "check_bench_regression.py"


def report(times_ms: dict[str, float], num_cpus: int = 4, date: str = "t0") -> dict:
    """One google-benchmark JSON report with the given real_time per name."""
    return {
        "context": {"date": date, "num_cpus": num_cpus, "library_build_type": "release"},
        "benchmarks": [
            {"name": name, "run_type": "iteration", "iterations": 100,
             "real_time": ms, "cpu_time": ms, "time_unit": "ms"}
            for name, ms in times_ms.items()
        ],
    }


def aggregate(times_ms: dict[str, float], **kw) -> dict:
    """A bench-all aggregate holding one binary's report."""
    return {"bench_attack_matrix": report(times_ms, **kw)}


class BenchGate(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.dir = Path(self._dir.name)
        self.files = 0

    def tearDown(self):
        self._dir.cleanup()

    def write(self, doc: dict) -> str:
        self.files += 1
        path = self.dir / f"r{self.files}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def gate(self, baseline: list[str], current: list[str], *extra: str) -> int:
        r = subprocess.run([sys.executable, str(GATE), "--baseline", *baseline,
                            "--current", *current, *extra],
                           capture_output=True, text=True)
        self.output = r.stdout + r.stderr
        return r.returncode

    def runs(self, medians: dict[str, float], outlier: float, **kw) -> list[str]:
        """Three rounds at `medians`, the third `outlier` times slower, so
        only a median over the rounds ignores it."""
        return [self.write(report(medians, date=f"d{i}", **kw)) for i in range(2)] + [
            self.write(report({n: t * outlier for n, t in medians.items()}, date="d2", **kw))]

    def test_ten_percent_slower_passes(self):
        base = self.runs({"BM_VmExecute/1": 1.0, "BM_VmExecuteTraced/1": 2.0}, outlier=3.0)
        cur = self.runs({"BM_VmExecute/1": 1.1, "BM_VmExecuteTraced/1": 2.2}, outlier=3.0)
        self.assertEqual(self.gate(base, cur), 0, self.output)
        self.assertIn("+10.0%", self.output)

    def test_twenty_percent_slower_fails(self):
        base = self.runs({"BM_VmExecute/1": 1.0, "BM_VmExecute/0": 10.0}, outlier=1.0)
        # A fast outlier in the change does not hide the slower median.
        cur = self.runs({"BM_VmExecute/1": 1.2, "BM_VmExecute/0": 10.0}, outlier=0.5)
        self.assertEqual(self.gate(base, cur), 1, self.output)
        self.assertIn("BM_VmExecute/1", self.output)
        self.assertIn("REGRESSION", self.output)

    def test_bimodal_same_commit_rounds_pass(self):
        # Two builds of one commit whose processes each land in a fast
        # (1.0 ms) or a slow (1.6 ms) mode.  Pooled, the parent's median is
        # fast and the change's slow (+60%); round by round, the ratios are
        # 1, 1, 1.6, 1/1.6 and 1.6, and their median is 1.
        modes = [(1.0, 1.0), (1.6, 1.6), (1.0, 1.6), (1.6, 1.0), (1.0, 1.6)]
        base = [self.write(report({"BM_VmExecute/1": b}, date=f"p{i}"))
                for i, (b, _) in enumerate(modes)]
        cur = [self.write(report({"BM_VmExecute/1": c}, date=f"c{i}"))
               for i, (_, c) in enumerate(modes)]
        self.assertEqual(self.gate(base, cur), 0, self.output)
        self.assertIn("+0.0% over 5 pair(s)", self.output)

    def test_unequal_round_counts_refused(self):
        base = self.runs({"BM_VmExecute/1": 1.0}, outlier=1.0)
        cur = self.runs({"BM_VmExecute/1": 1.05}, outlier=1.0)[:2]
        self.assertEqual(self.gate(base, cur), 2, self.output)
        self.assertIn("round by round", self.output)

    def test_unguarded_slowdown_passes(self):
        base = [self.write(aggregate({"BM_VmExecute/1": 1.0, "BM_Attack/0/0": 1.0}))]
        cur = [self.write(aggregate({"BM_VmExecute/1": 1.0, "BM_Attack/0/0": 5.0}, date="t1"))]
        self.assertEqual(self.gate(base, cur), 0, self.output)

    def test_missing_name_fails_unless_allowed(self):
        base = [self.write(aggregate({"BM_VmExecute/1": 1.0, "BM_VmExecuteSanitized/1": 3.0}))]
        cur = [self.write(aggregate({"BM_VmExecute/1": 1.0}, date="t1"))]
        self.assertEqual(self.gate(base, cur), 1, self.output)
        self.assertIn("missing", self.output)
        self.assertEqual(self.gate(base, cur, "--allow-missing", "BM_VmExecuteSanitized"), 0,
                         self.output)
        self.assertEqual(self.gate(base, cur, "--allow-missing", "BM_Other"), 1, self.output)

    def test_different_num_cpus_refused(self):
        base = [self.write(report({"BM_VmExecute/1": 1.0}, num_cpus=1))]
        cur = [self.write(report({"BM_VmExecute/1": 1.0}, num_cpus=4, date="t1"))]
        self.assertEqual(self.gate(base, cur), 2, self.output)
        self.assertIn("num_cpus", self.output)
        # Mixed within one side is refused too.
        base.append(self.write(report({"BM_VmExecute/1": 1.0}, num_cpus=4, date="t2")))
        cur.append(self.write(report({"BM_VmExecute/1": 1.0}, num_cpus=4, date="t3")))
        self.assertEqual(self.gate(base, cur), 2, self.output)
        self.assertIn("num_cpus", self.output)

    def test_identical_baseline_refused(self):
        doc = aggregate({"BM_VmExecute/1": 1.0})
        base = [self.write(doc)]
        cur = [self.write(report({"BM_VmExecute/1": 3.0}, date="t1")), self.write(doc)]
        self.assertEqual(self.gate(base, cur), 2, self.output)
        self.assertIn("byte-identical", self.output)
        # The same file on both sides is the plainest self-comparison.
        self.assertEqual(self.gate(base, base), 2, self.output)

    def test_no_guarded_benchmark_refused(self):
        base = [self.write(report({"BM_Attack/0/0": 1.0}))]
        cur = [self.write(report({"BM_VmExecute/1": 1.0}, date="t1"))]
        self.assertEqual(self.gate(base, cur), 2, self.output)


if __name__ == "__main__":
    unittest.main()
