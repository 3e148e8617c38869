"""Self-test of the benchmark's output checks: each passes on the program's
real output and rejects a corrupted copy of it.

    python3 bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys
import tempfile
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import MODULES  # noqa: E402

LIB = SimpleNamespace(**{m: importlib.import_module(f"mlsgraph.{m}") for m in MODULES})


class AcceptChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Rank 4 on 4 vertices: at least two branch points and several segments.
        cls.item = workloads.disguise_pairs(LIB, 5, 1, 4, 4, branch_points=(3,))[0]
        cls.cert = workloads.reconstruct_pair(LIB, cls.item, 0)

    def test_real_certificate_passes(self):
        self.assertIsNone(checks.check_accept(self.item, self.cert))

    def test_swapped_branch_pair_rejected(self):
        (x, fx), (y, fy) = list(self.cert.vertex_map.items())[:2]
        swapped = dict(self.cert.vertex_map)
        swapped[x], swapped[y] = fy, fx
        bad = dataclasses.replace(self.cert, vertex_map=swapped)
        self.assertIn("branch map", checks.check_accept(self.item, bad))

    def test_flipped_segment_flag_rejected(self):
        i, j, flag = self.cert.segment_map[0]
        rows = ((i, j, not flag),) + self.cert.segment_map[1:]
        bad = dataclasses.replace(self.cert, segment_map=rows)
        self.assertIn("not the disguise's image", checks.check_accept(self.item, bad))


class RejectChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.item = workloads.negatives(LIB, 3, 1, self.tmp.name)[0]

    def tearDown(self):
        self.tmp.cleanup()

    def test_real_reject_passes(self):
        result = workloads.cli_reconstruct(LIB, self.item)
        self.assertIsNone(checks.check_reject(*result))
        self.assertIsNone(checks.check_negative(self.item.spec_source, self.item.spec_perturbed,
                                                workloads.DELTA))

    def test_accept_on_negative_rejected(self):
        self.assertIsNotNone(checks.check_reject(0, "tau -\nverdict ACCEPT\n"))
        self.assertIsNotNone(checks.check_reject(1, "verdict ACCEPT\n"))

    def test_unperturbed_pair_is_not_a_negative(self):
        self.assertIsNotNone(checks.check_negative(self.item.spec_source, self.item.spec_source,
                                                   workloads.DELTA))


class CoreChecks(unittest.TestCase):
    def test_real_core_passes_and_dropped_edge_rejected(self):
        # Two triangles joined by a path, with a pendant edge.
        spec = ((0, 1, 2, 3, 4, 5, 6),
                ((0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 0, 1), (3, 2, 3, 2), (4, 3, 4, 1),
                 (5, 4, 5, 1), (6, 5, 3, 1), (7, 5, 6, 3)))
        decomp, agrees = workloads.core_and_oracle(LIB, spec)
        self.assertIsNone(checks.check_core(spec, decomp, agrees))
        core = decomp.core
        dropped = core.subgraph(sorted(core.edge_ids)[1:])
        bad = dataclasses.replace(decomp, core=dropped)
        self.assertIn("core edges", checks.check_core(spec, bad, agrees))
        self.assertIsNotNone(checks.check_core(spec, decomp, False))

    def test_tree_has_empty_core(self):
        spec = ((0, 1, 2), ((0, 0, 1, 1), (1, 1, 2, 1)))
        self.assertIsNone(checks.check_core(spec, *workloads.core_and_oracle(LIB, spec)))

    def test_cyclic_class(self):
        self.assertEqual(checks.cyclic_class((2, 1, -2)), (1,))
        self.assertEqual(checks.cyclic_class((2, -1, 1, 3)), (2, 3))
        self.assertEqual(checks.cyclic_class((3, 1, 2)), (1, 2, 3))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_the_printed_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.per_layer_units().items()))
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"verdicts_per_s", "verdict_ms_p50", "setup_s", "peak_rss_mb"})


if __name__ == "__main__":
    unittest.main()
