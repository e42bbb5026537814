"""Tree-exchange and the partial order it generates on invertible trees.

A move replaces a non-matching edge f of T by the image phi(e) of an
inverse-graph edge e absent from T.  The resulting tree keeps the same
perfect matching, its inverse graph loses at least one edge, and its
median eigenvalue strictly increases; transitive closure of the one-step
relation on isomorphism classes is a partial order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import polynomials as pol
from .errors import EdgeAlreadyPresent, InvalidMove, NotInvertible
from .inverse import Report, inverse_entry, inverse_graph
from .spectral import TreeEigenvalue, median_root
from .trees import (Edge, Tree, canonical_code, edge, involution,
                    perfect_matching, path_edges, tree, tree_path)


@dataclass(frozen=True)
class ExchangeMove:
    """One tree-exchange step: insert `add` (= phi of the inverse-graph
    edge `source_inverse_edge`), delete `remove`."""

    add: Edge
    remove: Edge
    source_inverse_edge: Edge


def fundamental_cycle(t: Tree, extra: Edge) -> list[Edge]:
    """Edges of the unique cycle of T + extra: the tree path between the
    endpoints plus the extra edge."""
    extra = edge(*extra)
    if extra in t.edges:
        raise EdgeAlreadyPresent(f"{extra} is already a tree edge")
    cycle = path_edges(tree_path(t, extra[0], extra[1]))
    cycle.append(extra)
    return cycle


def exchange_candidates(t: Tree) -> list[ExchangeMove]:
    """All valid moves on T: inverse-graph edges e with phi(e) outside T,
    paired with every non-matching edge of the fundamental cycle of
    phi(e).  Empty exactly when T is self-inverse."""
    m = perfect_matching(t)
    if m is None:
        raise NotInvertible("no perfect matching")
    phi = involution(t, m)
    moves = []
    for e in inverse_graph(t).sorted_edges():
        img = edge(phi[e[0]], phi[e[1]])
        if img in t.edges:
            continue
        for f in fundamental_cycle(t, img):
            if f != img and f not in m:
                moves.append(ExchangeMove(add=img, remove=f,
                                          source_inverse_edge=e))
    return moves


def validate_move(t: Tree, move: ExchangeMove) -> None:
    """Raise InvalidMove naming the violated clause."""
    m = perfect_matching(t)
    if m is None:
        raise NotInvertible("no perfect matching")
    phi = involution(t, m)
    e = edge(*move.source_inverse_edge)
    if not (0 <= e[0] < e[1] < t.n) or not inverse_entry(t, m, *e):
        raise InvalidMove(f"source edge {e} is not in the inverse graph")
    img = edge(phi[e[0]], phi[e[1]])
    if img != edge(*move.add):
        raise InvalidMove(
            f"add edge {move.add} is not the involution image {img} of {e}")
    if img in t.edges:
        raise InvalidMove(f"image edge {img} is already in the tree")
    f = edge(*move.remove)
    if f in m:
        raise InvalidMove(f"removed edge {f} is a matching edge")
    if f not in fundamental_cycle(t, img):
        raise InvalidMove(
            f"removed edge {f} is not on the fundamental cycle of {img}")


def tree_exchange(t: Tree, move: ExchangeMove) -> Tree:
    """Apply a validated move; the matching of T stays perfect in the
    result."""
    validate_move(t, move)
    edges = set(t.edges)
    edges.add(edge(*move.add))
    edges.remove(edge(*move.remove))
    return Tree(t.n, frozenset(edges))


def verify_exchange_lemma(t: Tree, move: ExchangeMove) -> Report:
    """Check, for one move: the new inverse graph is a proper subgraph of
    the old one, the image of the removed edge disappears from it, and
    the median eigenvalue strictly increases (certified)."""
    new = tree_exchange(t, move)
    old_inv = inverse_graph(t).edges
    new_inv = inverse_graph(new).edges
    m = perfect_matching(t)
    phi = involution(t, m)
    f = edge(*move.remove)
    phi_f = edge(phi[f[0]], phi[f[1]])

    clauses = [
        ("subgraph", new_inv < old_inv,
         "new inverse edges are not a proper subset"),
        ("lost_edge", phi_f in old_inv and phi_f not in new_inv,
         f"phi(remove) = {phi_f} did not vanish from the inverse"),
        ("median_increase", pol.compare_roots(median_root(t),
                                              median_root(new)) < 0,
         "median eigenvalue did not strictly increase"),
    ]
    return Report(clauses)


# ---------------------------------------------------------------------------
# self-inverse and rooted-product classification


def is_self_inverse(t: Tree) -> bool:
    """True iff T is isomorphic to its inverse graph."""
    g = inverse_graph(t)
    if len(g.edges) != t.n - 1:
        return False
    # the inverse graph contains phi(T) as a spanning tree, so with n-1
    # edges it is itself a tree
    return canonical_code(Tree(g.n, g.edges)) == canonical_code(t)


def is_rooted_product_k2(t: Tree) -> tuple[bool, Optional[Tree]]:
    """True iff every matching edge has a degree-1 endpoint; also
    returns the base tree (matched leaves deleted, relabeled)."""
    m = perfect_matching(t)
    if m is None:
        raise NotInvertible("no perfect matching")
    leaves = []
    for u, v in m:
        if t.degree(u) == 1:
            leaves.append(u)
        elif t.degree(v) == 1:
            leaves.append(v)
        else:
            return False, None
    keep = sorted(set(range(t.n)) - set(leaves))
    relabel = {v: i for i, v in enumerate(keep)}
    base_edges = [(relabel[u], relabel[v]) for u, v in t.edges
                  if u in relabel and v in relabel]
    return True, tree(len(keep), base_edges)


def witness_non_minimal(t: Tree) -> Optional[tuple[Tree, ExchangeMove]]:
    """For a tree with a vertex of degree >= 3, a tree T' and a move with
    tree_exchange(T', move) isomorphic to T; None when the max degree is
    at most 2 (T is a path)."""
    m = perfect_matching(t)
    if m is None:
        raise NotInvertible("no perfect matching")
    phi = involution(t, m)
    v = next((u for u in range(t.n) if t.degree(u) >= 3), None)
    if v is None:
        return None
    w = phi[v]
    x, y = [u for u in t.adjacency()[v] if u != w][:2]
    a, b = phi[x], phi[y]
    edges = set(t.edges)
    edges.remove(edge(v, x))
    edges.add(edge(x, b))
    t_prime = Tree(t.n, frozenset(edges))
    move = ExchangeMove(add=edge(x, v), remove=edge(x, b),
                        source_inverse_edge=edge(a, w))
    return t_prime, move


# ---------------------------------------------------------------------------
# the poset


@dataclass
class PosetNode:
    code: bytes
    representative: Tree
    median: TreeEigenvalue


@dataclass
class HassePoset:
    """Invertible-tree classes on 2n vertices under the exchange order."""

    n: int
    nodes: list  # of PosetNode, sorted by code
    covers: list  # of (lower_index, upper_index)
    relation: set = field(default_factory=set)  # strict pairs (i, j), i < j

    def leq(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.relation


def build_poset(n: int, bound: int | None = None) -> HassePoset:
    """The exchange poset of invertible trees on 2n vertices."""
    from .enumeration import enumerate_invertible

    classes = enumerate_invertible(2 * n, bound)
    codes = sorted(classes)
    index = {c: i for i, c in enumerate(codes)}
    nodes = [PosetNode(c, classes[c], median_root(classes[c]))
             for c in codes]

    step = set()
    for i, c in enumerate(codes):
        t = classes[c]
        for move in exchange_candidates(t):
            j = index[canonical_code(tree_exchange(t, move))]
            if j != i:
                step.add((i, j))

    relation = _transitive_closure(len(nodes), step)
    covers = _transitive_reduction(len(nodes), relation)
    return HassePoset(n, nodes, sorted(covers), relation)


def _transitive_closure(n: int, arcs: set) -> set:
    succ = {i: set() for i in range(n)}
    for i, j in arcs:
        succ[i].add(j)
    closure = set()
    for i in range(n):
        seen = set()
        stack = list(succ[i])
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            stack.extend(succ[j])
        closure.update((i, j) for j in seen)
    return closure


def _transitive_reduction(n: int, relation: set) -> set:
    return {(i, j) for i, j in relation
            if not any((i, k) in relation and (k, j) in relation
                       for k in range(n))}


def maximal_elements(p: HassePoset) -> list[int]:
    uppers = {i for i, _ in p.covers}
    return [i for i in range(len(p.nodes)) if i not in uppers]


def minimal_elements(p: HassePoset) -> list[int]:
    lowers = {j for _, j in p.covers}
    return [i for i in range(len(p.nodes)) if i not in lowers]


def mobius_function(p: HassePoset) -> dict:
    """Mobius function on all node pairs; 0 for incomparable pairs."""
    n = len(p.nodes)
    mu: dict = {}

    def value(x: int, y: int) -> int:
        if (x, y) not in mu:
            if x == y:
                mu[(x, y)] = 1
            elif p.leq(x, y):
                mu[(x, y)] = -sum(value(x, z) for z in range(n)
                                  if z != y and p.leq(x, z) and p.leq(z, y))
            else:
                mu[(x, y)] = 0
        return mu[(x, y)]

    for x in range(n):
        for y in range(n):
            value(x, y)
    return mu


# ---------------------------------------------------------------------------
# serialization


def poset_to_json(p: HassePoset, precision: int = 7) -> str:
    maxima = set(maximal_elements(p))
    minima = set(minimal_elements(p))
    mu = mobius_function(p)
    return json.dumps(
        {"n": p.n,
         "nodes": [{"code": node.code.decode(),
                    "edges": node.representative.sorted_edges(),
                    "median": round(node.median.value(), precision),
                    "maximal": i in maxima,
                    "minimal": i in minima}
                   for i, node in enumerate(p.nodes)],
         "covers": [list(c) for c in p.covers],
         "mobius": [[i, j, v] for (i, j), v in sorted(mu.items()) if v
                    and i != j]},
        indent=2)


def poset_to_dot(p: HassePoset, precision: int = 7) -> str:
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, node in enumerate(p.nodes):
        med = f"{node.median.value():.{precision}f}"
        lines.append(f'  {i} [label="{node.code.decode()}\\n{med}"];')
    for i, j in p.covers:
        lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
