"""Self-tests of the benchmark harness (not part of the library's suite).

    python3 -m unittest perfbench/test_perfbench.py

They take about two minutes: each runs real rounds of a workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

W = worker.load_workloads(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bindings() -> dict:
    """Every global of every mtra module and every attribute of its classes."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "mtra" and not name.startswith("mtra."):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def inputs(ops) -> list:
    return [repr(sorted((k, v) for k, v in op.args.items() if k != "argv")) for op in ops]


class RoundsTest(unittest.TestCase):
    def rounds(self, workload, seed, work):
        return [W.make_round(workload, seed, r, work) for r in (0, 1)]

    def test_seeds_change_inputs_but_not_op_kinds_and_counts(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            work = Path(tmp)
            for workload in W.WORKLOADS:
                first = self.rounds(workload, 1, work)
                second = self.rounds(workload, 2, work)
                again = self.rounds(workload, 1, work)
                for a, b, c in zip(first, second, again):
                    self.assertEqual([(op.kind, op.n, op.p) for op in a], [(op.kind, op.n, op.p) for op in b])
                    self.assertNotEqual(inputs(a), inputs(b), workload)
                    self.assertEqual(inputs(a), inputs(c), workload)

    def test_warmup_inputs_are_disjoint_from_timed_inputs(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            work = Path(tmp)
            for workload in W.WORKLOADS:
                timed = {op.args.get("instance") for op in W.make_round(workload, 1, 0, work)}
                for op in W.warmup_ops(workload, 1, work):
                    if "instance" in op.args:
                        self.assertNotIn(op.args["instance"], timed)


class RunTest(unittest.TestCase):
    def test_same_seed_twice_gives_identical_digests(self):
        for workload in W.WORKLOADS:
            first = worker.run(ROOT, workload, 7, 0, rounds=1)
            second = worker.run(ROOT, workload, 7, 0, rounds=1)
            self.assertEqual([op[6] for op in first["ops"]], [None] * len(first["ops"]))
            self.assertEqual(first["digests"], second["digests"])

    def test_untraced_run_leaves_every_binding_in_place(self):
        before = bindings()
        worker.run(ROOT, "cli", 3, 0, rounds=1)
        self.assertEqual(before, bindings())

    def test_traced_run_restores_every_binding(self):
        before = bindings()
        out = worker.run(ROOT, "cli", 3, 0, rounds=1, trace=True)
        self.assertEqual(before, bindings())
        self.assertGreater(out["layers"]["cli.main.self_s"], 0)
        self.assertGreater(out["layers"]["lp.solve.calls"], 0)

    def test_tiny_traced_run_emits_every_per_layer_metric(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "cli", "--seed", "3", "--seconds", "0.1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})
        self.assertIn("trace.overhead_share", result["metrics"])


if __name__ == "__main__":
    unittest.main()
