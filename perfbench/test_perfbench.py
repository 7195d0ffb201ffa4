#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py            # everything (~30 s)
    python3 perfbench/test_perfbench.py -k Spec    # spec checks only

Covers the BENCHMARK.json contract (names, units, bounds), the result-line
validator in run.py, the C++ self-tests (percentile rule, span self time,
metric-name charset, net-delta fold, closed churn cycle) and, with short runs
of every workload, that each emits every metric BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (perfbench/run.py)

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_names_units_and_bounds(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], run.NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_name_charset(self):
        for good in ("a", "core.apply_delta_ns_p50", "9x-y_z.w", "a" * 64):
            self.assertRegex(good, run.NAME_RE)
        for bad in ("", "_a", ".a", "a b", "a/b", "a" * 65, "é"):
            self.assertNotRegex(bad, run.NAME_RE)


class CheckResultTest(unittest.TestCase):
    REQUIRED = {"x_ns": "ns", "y_s": "s"}

    def result(self, metrics):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": metrics}

    def test_well_formed(self):
        r = self.result({"x_ns": {"value": 1.5, "unit": "ns"},
                         "y_s": {"value": 2, "unit": "s"}})
        self.assertEqual(run.check_result(r, self.REQUIRED), [])

    def test_missing_extra_and_wrong_unit(self):
        r = self.result({"x_ns": {"value": 1.5, "unit": "us"},
                         "z": {"value": 1, "unit": "s"}})
        problems = " ".join(run.check_result(r, self.REQUIRED))
        self.assertIn("missing metric y_s", problems)
        self.assertIn("x_ns: unit", problems)
        self.assertIn("unlisted metrics", problems)

    def test_bad_counts_and_keys(self):
        r = self.result({})
        r["attempted"] = 0
        self.assertTrue(any("attempted" in p
                            for p in run.check_result(r, {})))
        self.assertTrue(run.check_result({"correct": True}, {}))


class BinaryTest(unittest.TestCase):
    """Builds the binary once; runs its self-tests and short workloads."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = run.load_spec()

    def test_cpp_selftest(self):
        proc = subprocess.run([str(self.binary), "--selftest"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_every_listed_metric_is_emitted(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [str(self.binary), "--workload", workload, "--seed",
                         "5", "--seconds", "1", "--trace", str(trace)],
                        capture_output=True, text=True, timeout=170)
                    self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    required = run.required_metrics(self.spec, bool(trace))
                    self.assertEqual(run.check_result(result, required), [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
