"""Exhaustive generation of unlabeled trees and the invertible classes.

Rooted trees are generated as level sequences by a successor rule that
copies from the previous sequence; unlike the Beyer-Hedetniemi rule it
yields some rooted trees more than once (40964 sequences for the 32973
rooted trees on 14 vertices).  Each sequence becomes a parent array and
plain adjacency lists, is keyed by its canonical code, and per code the
smallest sorted edge list is kept; `Tree` objects are built only for
those winners.  For the invertible classes the matching rule of `trees`
(`leaf_up_matching`, the routine behind `perfect_matching`), run on the
parent array in reverse preorder, drops every sequence without a perfect
matching before any coding (2606 of the 40964 survive at 14 vertices);
having one is a class invariant, so no class loses its representative.

The candidate set is kept on purpose.  The representative of a class is
the smallest sorted edge list among its level sequences, so a generator
that yields another set of sequences picks other labelled trees: true
Beyer-Hedetniemi order already changes 3 of the 5 representatives
pinned in tests/data/poset_n4.json.  A free-tree generator
(Wright-Richmond-Odlyzko-McKay) waits on the decision to re-pin them.

Measured on 2 CPUs with Python 3.11: `enumerate_trees(14)` 1.6 s,
`enumerate_invertible` over 2..14 vertices 0.34 s in all, and
`enumerate_invertible(16, bound=16)` 2.0 s.  `test_bound_enforced`, which
enumerates the 7741 trees on 15 vertices, takes about 4 s.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

from .errors import BoundExceeded, OddOrder
from .trees import Tree, adjacency_code, leaf_up_matching

DEFAULT_BOUND = 14
ENV_BOUND = "INVTREE_MAX_VERTICES"


def configured_bound() -> int:
    raw = os.environ.get(ENV_BOUND)
    if not raw:
        return DEFAULT_BOUND
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_BOUND} must be an integer, got {raw!r}") from None


def _level_sequences(n: int) -> Iterator[list[int]]:
    """Every rooted tree on n vertices as a level sequence, root level 1,
    some of them more than once; the parent of position i is the nearest
    j < i with level[i] - 1."""
    s = list(range(1, n + 1))
    while True:
        yield s
        p = n - 1
        while p >= 0 and s[p] <= 2:
            p -= 1
        if p < 0:
            return
        q = p - 1
        while s[q] != s[p] - 1:
            q -= 1
        s = s[:p] + [s[i - (p - q)] for i in range(p, n)]


def _classes(n: int, matched: bool) -> dict:
    """Canonical code -> representative Tree over the level sequences on
    n vertices, keeping per code the tree whose sorted edge list is
    smallest; with `matched`, only trees with a perfect matching."""
    best: dict = {}  # code -> sorted edge tuple
    for levels in _level_sequences(n):
        parent = [-1] * n
        stack = []  # stack[d] = most recent vertex at level d+1
        for i, lvl in enumerate(levels):
            if lvl > 1:
                parent[i] = stack[lvl - 2]
            del stack[lvl - 1:]
            stack.append(i)
        if matched and leaf_up_matching(range(n - 1, -1, -1),
                                        parent) is None:
            continue
        adj = [[] for _ in range(n)]
        for v in range(1, n):
            adj[parent[v]].append(v)
            adj[v].append(parent[v])
        edges = tuple(sorted((parent[v], v) for v in range(1, n)))
        code = adjacency_code(adj)
        prev = best.get(code)
        if prev is None or edges < prev:
            best[code] = edges
    return {code: Tree(n, frozenset(edges))
            for code, edges in sorted(best.items())}


def _check_bound(n: int, bound: int | None) -> None:
    bound = bound if bound is not None else configured_bound()
    if n < 1 or n > bound:
        raise BoundExceeded(f"n={n} outside 1..{bound}")


def enumerate_trees(n: int, bound: int | None = None) -> dict:
    """One labeled representative per unlabeled tree on n vertices."""
    _check_bound(n, bound)
    return _classes(n, matched=False)


def enumerate_invertible(two_n: int, bound: int | None = None) -> dict:
    """The invertible classes: trees on two_n vertices with a perfect
    matching."""
    if two_n % 2 == 1:
        raise OddOrder("no tree on an odd vertex count is invertible")
    _check_bound(two_n, bound)
    return _classes(two_n, matched=True)


def classes_to_json(classes: dict) -> str:
    return json.dumps(
        [{"code": code.decode(), "n": t.n, "edges": t.sorted_edges()}
         for code, t in sorted(classes.items())],
        indent=2)
