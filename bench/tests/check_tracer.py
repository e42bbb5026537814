"""Tests of the benchmark's tracer and worker.

    python3 bench/tests/check_tracer.py

Named so that the repository's own pytest run does not collect it; it
takes about ten seconds, most of it one traced verify sweep.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from invtrees import poset, spectral, trees  # noqa: E402


def snapshot() -> dict:
    """Every binding of every invtrees namespace, classes included."""
    out = {}
    for ns in tracing._namespaces():
        for name, value in vars(ns).items():
            out[(ns.__name__, name)] = value
            if isinstance(value, type):
                for attr, v in vars(value).items():
                    out[(ns.__name__, name, attr)] = v
    return out


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TracerTest(unittest.TestCase):
    def test_aliased_import_is_wrapped(self):
        t = tracing.Tracer("alias")
        before = snapshot()
        self.assertEqual(t.install(), [])
        try:
            self.assertTrue(tracing.is_wrapped(poset.median_root))
            self.assertIs(poset.median_root, spectral.median_root)
            poset.median_root(trees.path_tree(4))  # the alias poset uses
        finally:
            t.uninstall()
        table = t.table()
        self.assertEqual(table["spectral.median_root"]["calls"], 1)
        self.assertEqual(table["spectral.spectrum"]["calls"], 1)
        self.assertEqual(snapshot(), before)
        self.assertEqual(tracing.leaked_wrappers(), [])

    def test_self_time_of_nested_spans(self):
        t = tracing.Tracer("nested", clock=FakeClock())
        inner = t.wrap("inner", lambda: None)
        outer = t.wrap("outer", lambda: (inner(), inner()))
        outer()
        spans = list(t.spans())
        # outer [1, 6], inner [2, 3] and [4, 5]: self 5 - 2 and 1 each
        self.assertEqual([s.name for s in spans], ["outer", "inner", "inner"])
        self.assertEqual([s.parent for s in spans], [-1, 0, 0])
        self.assertEqual({s.run_id for s in spans}, {"nested"})
        self.assertEqual(t.self_times(), [3.0, 1.0, 1.0])

    def test_traced_outputs_pass_the_gate(self):
        result = worker.run("verify-sweep", 1, "trace", False)
        self.assertEqual(result["failures"], [])
        self.assertEqual(result["failed"], 0)
        layers = result["layers"]
        self.assertEqual(layers["spectral.median_root.calls"], 206)
        self.assertEqual(layers["spectral.median_root.distinct"], 24)
        self.assertEqual(tracing.leaked_wrappers(), [])

    def test_no_wrapper_in_an_untraced_job(self):
        seen = {}

        def prepare(seed, workdir):
            def job():
                seen["wrapped"] = tracing.is_wrapped(poset.median_root)
                return {"items_ms": []}
            return job

        workloads.WORKLOADS["probe-job"] = (prepare, lambda out, full:
                                            (1, []))
        try:
            for mode, wrapped in (("trace", True), ("job", False)):
                result = worker.run("probe-job", 0, mode, False)
                self.assertEqual(result["failures"], [])
                self.assertEqual(seen["wrapped"], wrapped)
        finally:
            del workloads.WORKLOADS["probe-job"]
        self.assertEqual(tracing.leaked_wrappers(), [])


if __name__ == "__main__":
    unittest.main()
