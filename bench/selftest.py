"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Tiny smoke runs of each workload, a determinism check on the output
digest, a fault-injection check (a wrong evaluator must be counted as
failed ops), and one traced process whose digest must match the untraced
one.  They take about half a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tnl  # noqa: E402

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def tiny_run(name: str, seed: int, items: int, **kwargs) -> tuple[list, list]:
    """Run the first ``items`` items of a workload; return them and their failures."""
    wl = workloads.workload(name, **kwargs)
    loop = measure.Loop(wl, 0.0, min_items=items)
    loop.run([], seed)
    return loop.items, measure.check_items(loop.items)


class SmokeTest(unittest.TestCase):
    def test_tensor_brackets(self):
        items, failures = tiny_run("tensor_brackets", 3, 5)
        self.assertEqual(failures, [])
        self.assertEqual(sum(len(it.ops) for it in items), 30)

    def test_map_ideals(self):
        items, failures = tiny_run("map_ideals", 3, 2)
        self.assertEqual(failures, [])
        self.assertEqual([len(it.ops) for it in items], [3, 2])

    def test_witness_beta(self):
        items, failures = tiny_run("witness_beta", 3, 1, witness_budget=2)
        self.assertEqual(failures, [])
        self.assertEqual(len(items[0].ops), 4)
        self.assertEqual(tuple(items[0].report.config["p_values"]),
                         workloads.DEFAULT_WITNESS_PALETTE)


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for name, n, kwargs in (("tensor_brackets", 4, {}), ("witness_beta", 1, {"witness_budget": 2})):
            a = workloads.digest(tiny_run(name, 5, n, **kwargs)[0])
            b = workloads.digest(tiny_run(name, 5, n, **kwargs)[0])
            c = workloads.digest(tiny_run(name, 6, n, **kwargs)[0])
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)


class FaultInjectionTest(unittest.TestCase):
    def test_wrong_evaluator_is_counted(self):
        good = tnl.evaluator_for("pi")

        def halved(z):
            est = good(z)
            return tnl.NormEstimate(0.5 * est.lower, 0.5 * est.upper, est.converged,
                                    est.iterations, est.seed)

        evs = workloads.default_evaluators()
        evs["pi"] = tnl.TensorNormEvaluator("pi", halved, good.params, good.sides)
        # Item 0 is a Euclidean pair: the nuclear-norm oracle lies above the bracket.
        items, failures = tiny_run("tensor_brackets", 3, 1, evaluators=evs)
        labels = {f["label"] for f in failures}
        self.assertIn("evaluators.pi", labels)
        self.assertTrue(any("nuclear oracle" in r for f in failures for r in f["reasons"]))


class TracedProcessTest(unittest.TestCase):
    def test_traced_digest_matches_and_counts_layers(self):
        def launch(mode):
            out = subprocess.run(
                [sys.executable, str(BENCH / "measure.py"), "--workload", "tensor_brackets",
                 "--seed", "2", "--seconds", "0", "--mode", mode],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
                env=dict(os.environ, **run.CHILD_ENV),
            )
            self.assertEqual(out.returncode, 0, out.stderr)
            return json.loads(out.stdout.strip().splitlines()[-1])

        timed, traced = launch("timed"), launch("traced")
        self.assertEqual(timed["digest"], traced["digest"])
        self.assertNotIn("trace", timed)
        spans = traced["trace"]
        self.assertGreater(spans["projective.pi_upper"]["calls"], 0)
        self.assertGreater(spans["numpy.tensordot"]["calls"], 0)
        self.assertEqual(spans["sigma.sigma_p_dual"]["calls"], 0)


if __name__ == "__main__":
    unittest.main()
