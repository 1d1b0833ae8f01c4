#!/usr/bin/env python3
"""Self-test of check_bench_regression.py (stdlib only).

    python3 tools/check_bench_regression_test.py
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "check_bench_regression.py"))
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)


def cell(**metrics):
    record = {"solver": "LP-round", "part": "table7a", "e_eps": 2,
              "delta": 0.5}
    record.update(metrics)
    return record


def aggregate(label, warm, cold, **metrics):
    record = {"record": "sweep_aggregate", "label": label,
              "warm_total_simplex_iterations": warm,
              "cold_total_simplex_iterations": cold}
    record.update(metrics)
    return record


class CheckFileTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, records, scale="small"):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            json.dump({"bench": "table7_solver_comparison", "scale": scale,
                       "records": records}, f)
        return path

    def check(self, new_records, base_records, new_scale="small"):
        new = self.write("new.json", new_records, new_scale)
        base = self.write("base.json", base_records)
        with contextlib.redirect_stdout(io.StringIO()):
            return checker.check_file(new, base)

    def test_count_past_the_limit_fails_and_at_the_limit_passes(self):
        # Iteration counts take the default rule: baseline * 1.25 + 64.
        limit = 1000 * 1.25 + 64
        self.assertEqual(
            self.check([cell(lp_iterations=limit)],
                       [cell(lp_iterations=1000)]), [])
        errors = self.check([cell(lp_iterations=limit + 1)],
                            [cell(lp_iterations=1000)])
        self.assertEqual(len(errors), 1)
        self.assertIn("lp_iterations", errors[0])

    def test_count_that_falls_to_zero_passes(self):
        self.assertEqual(
            self.check([cell(lp_iterations=0, lp_refactorizations=0)],
                       [cell(lp_iterations=1, lp_refactorizations=1)]), [])
        self.assertEqual(
            self.check([aggregate("table7b_LP-round", 0, 9000,
                                  warm_root_iterations=0)],
                       [aggregate("table7b_LP-round", 480, 9000,
                                  warm_root_iterations=480)]), [])

    def test_warm_total_above_cold_fails_without_a_baseline_record(self):
        errors = self.check([aggregate("only_in_new", 101, 100)],
                            [aggregate("only_in_base", 1, 100)])
        self.assertEqual(len(errors), 1)
        self.assertIn("exceeds cold_total_simplex_iterations", errors[0])
        self.assertEqual(
            self.check([aggregate("only_in_new", 100, 100)], []), [])

    def test_a_new_objective_mismatch_fails(self):
        errors = self.check(
            [aggregate("table7a_total", 10, 20, objective_mismatches=1)],
            [aggregate("table7a_total", 10, 20, objective_mismatches=0)])
        self.assertEqual(len(errors), 1)
        self.assertIn("objective_mismatches", errors[0])

    def test_a_file_at_another_scale_is_skipped(self):
        self.assertEqual(
            self.check([cell(lp_iterations=10**6),
                        aggregate("table7a_total", 2, 1)],
                       [cell(lp_iterations=1)], new_scale="medium"), [])


if __name__ == "__main__":
    unittest.main()
