"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload's smallest case (smoke mode) and checks that every
metric BENCHMARK.json names is emitted with its unit, that traced and
untraced exact outputs are identical, that the gate compares by value,
that one corrupted reference value makes the gate fail, and that
`python -O` is refused.  Takes about 20 s.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def _first_cyclotomic(obj):
    """The first {"order", "coeffs"} value inside a JSON tree."""
    if isinstance(obj, dict):
        if set(obj) == {"order", "coeffs"}:
            return obj
        children = obj.values()
    elif isinstance(obj, list):
        children = obj
    else:
        return None
    for child in children:
        found = _first_cyclotomic(child)
        if found is not None:
            return found
    return None


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        path = os.path.join(ROOT, "BENCHMARK.json")
        with open(path, encoding="utf-8") as fh:
            bench = json.load(fh)
        cls.end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        cls.listed = [w["name"] for w in bench["workloads"]]

    def test_listed_workloads_exist(self):
        self.assertLessEqual(set(self.listed), set(run.WORKLOADS))

    def test_smoke_metrics_units_and_gate(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = run.measure(workload, 1, 0, trace=False, smoke=True)
                self.assertEqual(_units(plain["metrics"]), self.end_to_end)
                self.assertTrue(plain["correct"], plain["summary"]["failures"])
                self.assertGreater(plain["attempted"], 0)
                traced = run.measure(workload, 1, 0, trace=True, smoke=True)
                self.assertEqual(_units(traced["metrics"]), self.per_layer)
                self.assertTrue(traced["correct"],
                                traced["summary"]["failures"])

    def test_traced_outputs_identical(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                cases = run.plan(workload, 1, run.load_reference(workload),
                                 smoke=True)
                _, plain = run.spawn({"cases": cases, "trace": False})
                _, traced = run.spawn({"cases": cases, "trace": True})
                self.assertEqual(plain["outputs"], traced["outputs"])
                self.assertGreater(len(traced["trace"]["stats"]), 0)

    def test_gate_compares_by_value(self):
        # i * (-i) written at order 4 is the rational 1 at order 1
        self.assertTrue(check.exact_equal(
            {"order": 4, "coeffs": [[0, "1"]]},
            {"order": 1, "coeffs": [[0, "1"]]}))
        self.assertFalse(check.exact_equal(
            {"order": 4, "coeffs": [[1, "1"]]},
            {"order": 4, "coeffs": [[0, "1"]]}))

    def test_corrupted_reference_fails(self):
        reference = copy.deepcopy(run.load_reference("grid-small"))
        value = _first_cyclotomic(
            reference["modular --algebra A1 --kappa 2"]["json"])
        exponent, coeff = value["coeffs"][0]
        value["coeffs"][0] = [exponent, str(int(coeff) + 1)]
        result = run.measure("grid-small", 1, 0, trace=False, smoke=True,
                             reference=reference)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["summary"]["fail_frac"], 0)

    def test_refuses_optimized_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-O", os.path.join(HERE, "run.py"),
             "--workload", "grid-small", "--seed", "1", "--seconds", "0"],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
