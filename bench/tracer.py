"""Timing wrappers around the public functions of each invtrees layer.

The tracer lives in the benchmark, not in the package: `install` replaces
each traced function in every `invtrees.*` namespace that binds it (so a
name imported with `from .spectral import median_root` is caught too),
and `uninstall` puts the originals back.  Every call becomes a span
(name, start, end, parent span, run id) kept in memory until the run
ends; the per-layer table is derived from the spans afterwards.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import namedtuple

# layer (module) -> traced public functions.  `polynomials.evaluate` and
# the coefficient helpers are left out on purpose: they run hundreds of
# thousands of times per workload and the wrapper would dominate.
LAYERS = {
    "spectral": ["median_root", "spectrum"],
    "polynomials": ["real_roots", "compare_roots", "sturm_sequence",
                    "RealRoot.refine"],
    "inverse": ["char_poly", "inverse_signed_graph", "inverse_entry",
                "inverse_graph", "exact_inverse",
                "negative_fundamental_cuts", "negative_cut_count",
                "verify_godsil"],
    "enumeration": ["enumerate_trees", "enumerate_invertible"],
    "trees": ["canonical_code", "perfect_matching", "tree_path",
              "involution"],
    "poset": ["build_poset", "mobius_function", "poset_to_json",
              "exchange_candidates", "tree_exchange",
              "verify_exchange_lemma", "is_self_inverse",
              "witness_non_minimal"],
    "cli": ["cmd_verify", "cmd_spectrum"],
}
TRACED = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# spans whose first argument (a Tree) is kept, for distinct-input ratios
KEEP_ARG = ("spectral.median_root", "inverse.inverse_graph")
# spans whose result length is summed (classes found, moves generated)
SUM_LEN = ("enumeration.enumerate_trees", "poset.exchange_candidates")

Span = namedtuple("Span", "name start end parent run_id")


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "invtrees"
                                  or name.startswith("invtrees."))]


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.name_idx = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.args: dict = {name: [] for name in KEEP_ARG}
        self.lengths: dict = {name: 0 for name in SUM_LEN}
        self._stack = [-1]
        self._patched: list = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn):
        """A wrapper around `fn` that records a span named `name`."""
        k = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, self.clock
        name_idx, parent, start, end = (self.name_idx, self.parent,
                                        self.start, self.end)
        keep = self.args.get(name)
        sum_len = name in self.lengths

        def traced(*args, **kwargs):
            i = len(start)
            name_idx.append(k)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            if keep is not None:
                keep.append(args[0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if sum_len:
                self.lengths[name] += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.bench_span = name
        return traced

    def install(self) -> list[str]:
        """Wrap every traced function that exists; returns the ones
        missing from this version of the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        missing = []
        spaces = _namespaces()
        for full in TRACED:
            layer, *owners, attr = full.split(".")
            owner = sys.modules.get(f"invtrees.{layer}")
            for name in owners:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                missing.append(full)
                continue
            wrapper = self.wrap(full, original)
            if owners:  # a method: patch the class once
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in spaces:
                for alias, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, alias, original, wrapper)
        return missing

    def _patch(self, ns, attr, original, wrapper) -> None:
        setattr(ns, attr, wrapper)
        self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- reading the spans -------------------------------------------------

    def spans(self):
        for i in range(len(self.start)):
            yield Span(self.names[self.name_idx[i]], self.start[i],
                       self.end[i], self.parent[i], self.run_id)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def table(self) -> dict:
        """name -> {"calls": int, "self_s": float} for every traced
        function, called or not."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in TRACED}
        for i, s in enumerate(self.self_times()):
            row = out[self.names[self.name_idx[i]]]
            row["calls"] += 1
            row["self_s"] += s
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Calls of `child_name` made directly under a `parent_name`
        span."""
        idx = {name: k for k, name in enumerate(self.names)}
        if parent_name not in idx or child_name not in idx:
            return 0
        p, c = idx[parent_name], idx[child_name]
        return sum(1 for i in range(len(self.start))
                   if self.name_idx[i] == c and self.parent[i] >= 0
                   and self.name_idx[self.parent[i]] == p)


def is_wrapped(fn) -> bool:
    return hasattr(fn, "bench_span")


def leaked_wrappers() -> list[str]:
    """Names in invtrees namespaces that are still tracer wrappers."""
    out = []
    for ns in _namespaces():
        for alias, value in vars(ns).items():
            if is_wrapped(value):
                out.append(f"{ns.__name__}.{alias}")
            elif isinstance(value, type):
                out += [f"{ns.__name__}.{alias}.{a}"
                        for a, v in vars(value).items() if is_wrapped(v)]
    return out
