"""Tests of the benchmark's own arithmetic and of its metric contract.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

REFS = {"branchy": 0.002, "indirect": 0.004, "table": 0.001}


class Normaliser(unittest.TestCase):
    def test_slowness_is_mean_ratio_to_reference(self):
        self.assertAlmostEqual(
            run.probe_slowness([0.002, 0.004, 0.001], REFS), 1.0)
        self.assertAlmostEqual(
            run.probe_slowness([0.004, 0.008, 0.002], REFS), 2.0)
        # (1.5 + 1.0 + 0.5) / 3
        self.assertAlmostEqual(
            run.probe_slowness([0.003, 0.004, 0.0005], REFS), 1.0)

    def test_normalise_divides_by_mean_of_probes(self):
        self.assertAlmostEqual(run.normalise(2.0, 1.0, 1.0), 2.0)
        self.assertAlmostEqual(run.normalise(3.0, 1.0, 2.0), 2.0)
        self.assertAlmostEqual(run.normalise(1.0, 0.5, 0.5), 2.0)

    def test_resolve_replaces_probe_indices(self):
        raw = {
            "probes": [[0.002, 0.004, 0.001], [0.004, 0.008, 0.002]],
            "setup": [[[1.0, 0, 1]]],
            "units": [{"insts": 10, "samples": [[2.0, 1, 1]],
                       "traced": [[4.0, 0, 0]]}],
        }
        run.resolve(raw, REFS)
        self.assertEqual(raw["setup"], [[(1.0, 1.0, 2.0)]])
        self.assertEqual(raw["units"][0]["samples"], [(2.0, 2.0, 2.0)])
        self.assertEqual(raw["units"][0]["traced"], [(4.0, 1.0, 1.0)])
        self.assertEqual(raw["slowness"], [1.0, 2.0])

    def test_ns_per_inst_sums_unit_medians(self):
        units = [
            # normalised 1.0, 2.0, 9.0 -> median 2.0
            {"insts": 1000, "samples": [(1.0, 1, 1), (4.0, 2, 2),
                                        (9.0, 1, 1)]},
            # normalised 1.0 -> 1.0
            {"insts": 2000, "samples": [(0.5, 0.5, 0.5)]},
        ]
        self.assertAlmostEqual(run.ns_per_inst(units), 3.0 / 3000 * 1e9)
        self.assertAlmostEqual(run.raw_pass_seconds(units), 4.5)

    def test_setup_is_median_over_repeats(self):
        reps = [[(1.0, 1, 1), (1.0, 1, 1)],   # 2.0
                [(3.0, 1, 1)],                # 3.0
                [(2.0, 2, 2), (2.0, 1, 1)]]   # 1.0 + 2.0
        self.assertAlmostEqual(run.setup_seconds(reps), 3.0)

    def test_iqr_pct(self):
        self.assertEqual(run.iqr_pct([5.0]), 0.0)
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, _, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(run.iqr_pct(values), (q3 - q1) / 3.0 * 100)


def span(sid, parent, cat, name, dur, **args):
    a = {"id": sid, "parent": parent}
    a.update(args)
    return {"ph": "X", "cat": cat, "name": name, "ts": 0.0, "dur": dur,
            "args": a}


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        events = [
            span(1, 0, "bench", "unit", 100.0, unit=0, **{"pass": 0}),
            span(2, 1, "cpu", "cfg1", 30.0),
            span(3, 1, "sample", "run", 60.0),
            span(4, 3, "ckpt", "save", 20.0),
            span(5, 0, "workload", "gen", 7.0),  # set-up: no unit
        ]
        units = [{"traced": [(0.0, 2.0, 2.0)]}]
        rows = {r["kind"]: r for r in run.span_table(events, units)}
        self.assertNotIn("workload.gen", rows)
        self.assertAlmostEqual(rows["bench.unit"]["self_us"], 10.0)
        self.assertAlmostEqual(rows["sample.run"]["self_us"], 40.0)
        self.assertAlmostEqual(rows["ckpt.save"]["self_us"], 20.0)
        # Slowness 2.0: a 30 µs span counts as 15 µs of reference time.
        self.assertAlmostEqual(rows["cpu.cfg1"]["norm_s"], 15e-6)


class Contract(unittest.TestCase):
    def setUp(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            self.bench = json.load(f)

    def test_end_to_end_names_and_units(self):
        declared = [(m["name"], m["unit"]) for m in self.bench["end_to_end"]]
        self.assertEqual(declared, run.END_TO_END)

    def test_per_layer_names_and_units(self):
        declared = [(m["name"], m["unit"]) for m in self.bench["per_layer"]]
        self.assertEqual(declared, run.PER_LAYER)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_command(self):
        self.assertEqual(self.bench["command"],
                         ["python3", "perfbench/run.py"])
        self.assertEqual(self.bench["paths"], ["perfbench"])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()
