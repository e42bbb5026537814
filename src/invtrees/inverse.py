"""Exact inverses of invertible trees, and the characteristic polynomial.

The inverse is built combinatorially (signed alternating-path entries)
in one sweep along the alternating paths from each vertex, O(n^2) in
all; `inverse_entry` is the per-pair definition it is tested against.
`verify_godsil` certifies that matrix S directly: its entries are in
{0, +-1} and A(T) S = I entry by entry, O(n^2) in sparse integer row
sums.  The fraction-free (Bareiss) `exact_inverse` is kept only as an
independent oracle for the tests and demos.  The negative fundamental
cuts need only the spanning tree phi(T), not the inverse graph, and
`negative_cut_counts` counts the cuts containing every non-spanning
inverse edge from one pass of phi(T) per source.  `char_poly` builds the
characteristic polynomial in one iterative leaf-to-root pass, with no
cache.  `Report` is the one verification report: `verify_godsil` here
and `poset.verify_exchange_lemma` both return one.  Everything here is
exact integer arithmetic; there is no floating point in this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from . import polynomials as pol
from .errors import NotInvertible, NotSpanningTreeEdge, Singular
from .trees import (Edge, Matching, Tree, apply_involution, edge, involution,
                    is_alternating, leaf_to_root, perfect_matching,
                    tree_path)


@dataclass(frozen=True)
class Graph:
    """A simple graph; used for inverse graphs, which may have cycles."""

    n: int
    edges: frozenset  # of Edge

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class SignedGraph:
    """A simple graph with edge signs in {+1, -1}."""

    n: int
    signs: tuple  # sorted tuple of (Edge, sign)

    @staticmethod
    def from_dict(n: int, signs: dict) -> "SignedGraph":
        return SignedGraph(n, tuple(sorted(signs.items())))

    def sign_map(self) -> dict:
        return dict(self.signs)

    def edge_set(self) -> frozenset:
        return frozenset(e for e, _ in self.signs)

    def matrix(self) -> list[list[int]]:
        a = [[0] * self.n for _ in range(self.n)]
        for (u, v), s in self.signs:
            a[u][v] = a[v][u] = s
        return a


# ---------------------------------------------------------------------------
# characteristic polynomial


def char_poly(t: Tree) -> list[int]:
    """Exact integer characteristic polynomial of A(T), ascending
    coefficients, monic of degree n.

    One leaf-to-root pass.  For the subtree T_v below v it keeps
    P_v = phi(T_v) and Q_v = phi(T_v - v), the product of P_c over the
    children c of v.  Expanding along the edges at v gives
    P_v = t*Q_v - sum_c Q_c * prod_{c' != c} P_c'; the sum is built up
    child by child as acc = acc*P_c + prod*Q_c, with prod = prod*P_c.
    """
    order, parent = leaf_to_root(t)
    prod = [[1] for _ in order]  # Q_v so far
    acc = [[] for _ in order]
    for v in order:
        p_v = pol.sub([0] + prod[v], acc[v])
        u = parent[v]
        if u < 0:
            return p_v
        acc[u] = pol.add(pol.mul(acc[u], p_v), pol.mul(prod[u], prod[v]))
        prod[u] = pol.mul(prod[u], p_v)
        prod[v] = acc[v] = None


# ---------------------------------------------------------------------------
# combinatorial inverse


def inverse_entry(t: Tree, m: Matching, a: int, b: int) -> int:
    """Entry (a, b) of A(T)^{-1}: (-1)^(1-k) when the a-b path is
    alternating with 2k vertices, else 0.  The per-pair definition, and
    the reference for `inverse_signed_graph`."""
    if a == b:
        return 0
    path = tree_path(t, a, b)
    if not is_alternating(path, m):
        return 0
    k = len(path) // 2
    return 1 if k % 2 == 1 else -1


def inverse_signed_graph(t: Tree) -> SignedGraph:
    """The signed graph whose signed adjacency matrix is A(T)^{-1}.

    One walk per source a along the alternating paths from a: the
    matching edge a-phi(a) reaches phi(a) with sign +1, and from a vertex
    v reached with sign s, every neighbour w != phi(v) leads on to phi(w)
    with sign -s.  Each vertex is reached at most once per source, so the
    whole sweep costs O(n^2), the size of the inverse matrix.
    """
    m = perfect_matching(t)
    if m is None:
        raise NotInvertible("no perfect matching")
    phi = involution(t, m)
    adj = t.adjacency()
    signs = {}
    for a in range(t.n):
        stack = [(phi[a], 1)]
        while stack:
            v, s = stack.pop()
            if a < v:
                signs[(a, v)] = s
            stack.extend((phi[w], -s) for w in adj[v] if w != phi[v])
    return SignedGraph.from_dict(t.n, signs)


def underlying_graph(g: SignedGraph) -> Graph:
    """Forget the signs."""
    return Graph(g.n, g.edge_set())


def inverse_graph(t: Tree) -> Graph:
    """The inverse graph T^{-1} (underlying graph of the signed
    inverse)."""
    return underlying_graph(inverse_signed_graph(t))


def signed_tree_image(t: Tree, m: Matching) -> SignedGraph:
    """T-plus-minus: phi(T) with matching edges positive and all other
    edges negative."""
    phi = involution(t, m)
    signs = {}
    for e in t.edges:
        u, v = e
        img = edge(phi[u], phi[v])
        signs[img] = 1 if e in m else -1
    return SignedGraph.from_dict(t.n, signs)


# ---------------------------------------------------------------------------
# integer-matrix oracle


def adjacency_matrix(t: Tree) -> list[list[int]]:
    a = [[0] * t.n for _ in range(t.n)]
    for u, v in t.edges:
        a[u][v] = a[v][u] = 1
    return a


def exact_inverse(t: Tree) -> list[list[int]]:
    """Exact integer inverse of A(T) by fraction-free elimination.

    Valid because det A(T) = +-1 for invertible trees; raises Singular
    when the determinant is 0 (no perfect matching).
    """
    return invert_unimodular(adjacency_matrix(t))


def invert_unimodular(a: list[list[int]]) -> list[list[int]]:
    """Invert an integer matrix with det = +-1, fraction-free.

    Bareiss forward elimination on [A | I] keeps every intermediate value
    an integer.  Back substitution stays in integers too: its quotients
    are entries of the integral A^{-1}, so each division is exact, and a
    remainder raises Singular.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                raise Singular("matrix is singular")
        for i in range(k + 1, n):
            for j in range(k + 1, 2 * n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    det = sign * m[n - 1][n - 1]
    if det not in (1, -1):
        raise Singular(f"determinant {det} is not a unit")
    # integer back substitution: each x solves A x = e_col, and A^{-1}
    # is integral when det = +-1, so every quotient is exact
    inv = [[0] * n for _ in range(n)]
    for col in range(n):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            s = m[i][n + col] - sum(m[i][j] * x[j] for j in range(i + 1, n))
            x[i], r = divmod(s, m[i][i])
            if r:
                raise Singular(f"non-integral entry {s}/{m[i][i]}")
        for i in range(n):
            inv[i][col] = x[i]
    return inv


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def is_identity(a: list[list[int]]) -> bool:
    return all(a[i][j] == int(i == j)
               for i in range(len(a)) for j in range(len(a)))


# ---------------------------------------------------------------------------
# fundamental cuts and switching


@dataclass(frozen=True)
class Cut:
    """An edge cut, stored by one vertex side.

    Canonical side: the smaller of the two sides, ties broken by the
    side containing the smaller-labeled endpoint of the defining edge.
    """

    side: frozenset

    def crosses(self, e: Edge) -> bool:
        return (e[0] in self.side) != (e[1] in self.side)


def fundamental_cut(g: Graph, spanning_edges: frozenset, e: Edge) -> Cut:
    """The unique cut of g containing spanning-tree edge e and no other
    spanning-tree edge.  Only g.n is read: the side is the component of
    e[0] in the spanning tree minus e."""
    e = edge(*e)
    if e not in spanning_edges:
        raise NotSpanningTreeEdge(f"{e} not in the spanning tree")
    adj = [[] for _ in range(g.n)]
    for u, v in spanning_edges:
        if (u, v) != e:
            adj[u].append(v)
            adj[v].append(u)
    side = {e[0]}
    stack = [e[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in side:
                side.add(w)
                stack.append(w)
    other = set(range(g.n)) - side
    if len(other) < len(side) or (len(other) == len(side) and e[0] not in side):
        side = other
    return Cut(frozenset(side))


def switch(g: SignedGraph, cut: Cut) -> SignedGraph:
    """Negate the signs of all edges crossing the cut."""
    signs = {e: (-s if cut.crosses(e) else s) for e, s in g.signs}
    return SignedGraph.from_dict(g.n, signs)


def negative_fundamental_cuts(t: Tree) -> list[Cut]:
    """Fundamental cuts of the inverse graph for the negative edges of
    phi(T) (the images of the non-matching edges of T).

    A fundamental cut's side depends only on the spanning tree phi(T),
    so the inverse graph itself is never built."""
    m = perfect_matching(t)
    if m is None:
        raise NotInvertible("no perfect matching")
    phi_t = apply_involution(t, involution(t, m))
    return [fundamental_cut(phi_t, phi_t.edges, e)
            for e, s in signed_tree_image(t, m).signs if s == -1]


def _signed_image_adjacency(t: Tree) -> list[list[tuple[int, bool]]]:
    """phi(T) as adjacency lists of (w, True if the edge v-w is
    negative), from the signed image of T."""
    m = perfect_matching(t)
    if m is None:
        raise NotInvertible("no perfect matching")
    adj = [[] for _ in range(t.n)]
    for (u, v), s in signed_tree_image(t, m).signs:
        adj[u].append((v, s < 0))
        adj[v].append((u, s < 0))
    return adj


def _negatives_from(adj: list, a: int) -> list[int]:
    """For every vertex w, the number of negative edges on the phi(T)-path
    from a to w: one depth-first pass."""
    count = [-1] * len(adj)
    count[a] = 0
    stack = [a]
    while stack:
        v = stack.pop()
        for w, negative in adj[v]:
            if count[w] < 0:
                count[w] = count[v] + negative
                stack.append(w)
    return count


def negative_cut_counts(t: Tree) -> dict:
    """For every non-spanning edge e of the inverse graph, the number of
    negative fundamental cuts containing e.

    The cut of a phi(T)-edge f crosses e exactly when f lies on the
    phi(T)-path between the ends of e, so the count is the number of
    negative edges on that path.  One depth-first pass of phi(T) per
    source vertex gives every count, O(n^2) in all.
    """
    adj = _signed_image_adjacency(t)
    negatives, counts = {}, {}
    for (u, v), _ in inverse_signed_graph(t).signs:
        if any(w == v for w, _ in adj[u]):
            continue  # an edge of phi(T)
        if u not in negatives:
            negatives[u] = _negatives_from(adj, u)
        counts[(u, v)] = negatives[u][v]
    return counts


def negative_cut_count(t: Tree, e: Edge) -> int:
    """Number of negative fundamental cuts containing the non-spanning
    edge e of the inverse graph: one pass of phi(T) from e[0] (see
    `negative_cut_counts`)."""
    return _negatives_from(_signed_image_adjacency(t), e[0])[e[1]]


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class Report:
    """The outcome of one lemma check: its clauses, each passed or not."""

    clauses: list  # of (name, ok, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.clauses)

    @property
    def first_failure(self) -> Optional[str]:
        for name, ok, detail in self.clauses:
            if not ok:
                return f"{name}: {detail}"
        return None


def _product_defect(t: Tree, s: list[list[int]]) -> Optional[str]:
    """The first entry where A(T) S differs from the identity, or None.

    Row i of A(T) S is the sum of the rows S[k] over the neighbours k of
    i, so all n^2 entries cost 2(n-1)n integer additions.
    """
    for i, nbrs in enumerate(t.adjacency()):
        row = [sum(col) for col in zip(*(s[k] for k in nbrs))]
        for j, x in enumerate(row):
            if x != (i == j):
                return f"(A S)[{i}][{j}] = {x}, expected {int(i == j)}"
    return None


def verify_godsil(t: Tree) -> Report:
    """Check the inverse-reconstruction clauses on one tree.

    (a) the combinatorial signed inverse S is an n x n matrix with
        entries in {0, +-1};
    (b) A(T) S = I in every one of its n^2 entries, which for square
        matrices proves S = A(T)^{-1} exactly (see `_product_defect`);
    (c) the signed image of T is a signed subgraph of the inverse;
    (d) switching on all negative fundamental cuts makes every sign +1;
    (e) phi(T) is a spanning tree of the inverse graph.
    """
    m = perfect_matching(t)
    if m is None:
        raise NotInvertible("no perfect matching")
    clauses = []

    sg = inverse_signed_graph(t)
    inv = sg.matrix()
    ok_a = sg.n == t.n and all(x in (-1, 0, 1) for row in inv for x in row)
    clauses.append(("a:entries", ok_a,
                    "signed inverse is not an n x n (0,+-1) matrix"))

    defect = _product_defect(t, inv) if ok_a else "not checked: (a) failed"
    clauses.append(("b:entrywise", defect is None, defect))

    image = signed_tree_image(t, m)
    gmap = sg.sign_map()
    bad = [e for e, s in image.signs if gmap.get(e) != s]
    clauses.append(("c:subgraph", not bad,
                    f"image edges missing or mis-signed: {bad}"))

    h = sg
    for cut in negative_fundamental_cuts(t):
        h = switch(h, cut)
    ok_d = all(s == 1 for _, s in h.signs)
    clauses.append(("d:switching", ok_d,
                    "negative signs remain after switching"))

    phi_t = apply_involution(t, involution(t, m))
    ok_e = phi_t.edges <= sg.edge_set()
    clauses.append(("e:spanning", ok_e,
                    "phi(T) is not contained in the inverse graph"))
    return Report(clauses)


# ---------------------------------------------------------------------------
# serialization


def signed_graph_to_json(g: SignedGraph) -> str:
    return json.dumps(
        {"n": g.n,
         "edges": [{"u": u, "v": v, "sign": s} for (u, v), s in g.signs]},
        indent=2)


def signed_graph_to_dot(g: SignedGraph,
                        matching: Optional[Matching] = None,
                        name: str = "inverse") -> str:
    """DOT text: negative edges dashed, positive solid, matching-image
    edges bold."""
    matching = matching or frozenset()
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for (u, v), s in g.signs:
        style = "solid" if s == 1 else "dashed"
        if (u, v) in matching:
            style += ",bold"
        lines.append(f'  {u} -- {v} [style="{style}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_to_json(a: list[list[int]]) -> str:
    return json.dumps(a)
