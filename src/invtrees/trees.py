"""Labeled trees, perfect matchings, the matching involution, paths and
canonical forms.

Vertices are the integers 0..n-1.  Edges are stored as sorted tuples
(u, v) with u < v.  All values are immutable; every operation is a pure
function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import NotATree, NotPerfect, ParseError, SameVertex

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to a sorted tuple."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Tree:
    """A labeled tree on vertex set {0..n-1}."""

    n: int
    edges: frozenset  # of Edge
    _adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise NotATree("vertex count must be positive")
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise NotATree(f"bad edge {e} for n={self.n}")
        if len(self.edges) != self.n - 1:
            raise NotATree(
                f"{len(self.edges)} edges, expected {self.n - 1}")
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        adj = tuple(tuple(sorted(a)) for a in adj)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.n:
            raise NotATree("graph is disconnected")
        object.__setattr__(self, "_adj", adj)

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def tree(n: int, edges: Iterable[Iterable[int]]) -> Tree:
    """Build a Tree from any iterable of vertex pairs."""
    return Tree(n, frozenset(edge(u, v) for u, v in edges))


def path_tree(n: int) -> Tree:
    """The path 0-1-...-(n-1)."""
    return tree(n, ((i, i + 1) for i in range(n - 1)))


def star_tree(n: int) -> Tree:
    """The star with center 0."""
    return tree(n, ((0, i) for i in range(1, n)))


# ---------------------------------------------------------------------------
# edge-list text format


def parse_tree(text: str) -> Tree:
    """Parse the `.elist` format: first line n, then one "u v" per line.

    Lines starting with '#' and blank lines are ignored; edge order is
    irrelevant.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be the vertex count: {lines[0]!r}")
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex in {ln!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in {ln!r}")
        if u == v:
            raise NotATree(f"self-loop {ln!r}")
        if edge(u, v) in edges:
            raise NotATree(f"duplicate edge {ln!r}")
        edges.add(edge(u, v))
    return Tree(n, frozenset(edges))


def format_tree(t: Tree) -> str:
    """Serialize a tree back to `.elist` text (deterministic order)."""
    lines = [str(t.n)]
    lines += [f"{u} {v}" for u, v in t.sorted_edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# perfect matchings and the involution

Matching = frozenset  # of Edge


def perfect_matching(t: Tree) -> Optional[Matching]:
    """The unique perfect matching of a tree, or None (see
    `leaf_up_matching`, run on `leaf_to_root(t)`)."""
    return leaf_up_matching(*leaf_to_root(t))


def leaf_up_matching(order: Iterable[int],
                     parent: Sequence[int]) -> Optional[Matching]:
    """The perfect matching of the rooted tree given by `parent` (-1 at
    the root), or None.

    `order` lists every vertex after all of its children.  A vertex still
    unmatched when reached has matched none of its children, so it must
    take its parent; if the parent is taken already, or it is the root,
    there is no perfect matching.
    """
    matched = [False] * len(parent)
    pairs = []
    for v in order:
        if matched[v]:
            continue
        p = parent[v]
        if p < 0 or matched[p]:
            return None
        matched[v] = matched[p] = True
        pairs.append((v, p))
    return frozenset(edge(v, p) for v, p in pairs)


Involution = tuple  # perm as tuple, perm[v] = matched partner of v


def involution(t: Tree, m: Matching) -> Involution:
    """The fixed-point-free involution swapping the ends of every
    matching edge."""
    perm = [-1] * t.n
    for u, v in m:
        perm[u] = v
        perm[v] = u
    if -1 in perm:
        raise NotPerfect("matching does not cover every vertex")
    return tuple(perm)


def apply_perm(t: Tree, perm: Sequence[int]) -> Tree:
    """Relabel a tree by a vertex permutation."""
    return tree(t.n, ((perm[u], perm[v]) for u, v in t.edges))


def apply_involution(t: Tree, phi: Involution) -> Tree:
    """The relabeled tree phi(T); isomorphic to T and fixes the matching
    edges setwise."""
    return apply_perm(t, phi)


# ---------------------------------------------------------------------------
# paths and alternation

VertexPath = tuple  # ordered vertex sequence


def tree_path(t: Tree, a: int, b: int) -> VertexPath:
    """The unique a-b path, as a vertex sequence."""
    if a == b:
        raise SameVertex(f"path endpoints coincide: {a}")
    adj = t.adjacency()
    parent = {a: None}
    q = deque([a])
    while q:
        v = q.popleft()
        if v == b:
            break
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                q.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def distances(t: Tree, a: int) -> list[int]:
    """The number of edges on the path from a to every vertex: one
    breadth-first pass."""
    adj = t.adjacency()
    dist = [-1] * t.n
    dist[a] = 0
    order = [a]  # grows while it is read
    for v in order:
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                order.append(w)
    return dist


def leaf_to_root(t: Tree) -> tuple[list[int], list[int]]:
    """T rooted at vertex 0: (order, parent), where `order` lists every
    vertex after all of its children (reversed breadth-first order) and
    parent[0] is -1.  Iterative, so any depth is fine."""
    adj = t.adjacency()
    parent = [-1] * t.n
    order = [0]  # breadth-first from vertex 0: grows while it is read
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    order.reverse()
    return order, parent


def path_edges(path: VertexPath) -> list[Edge]:
    return [edge(path[i], path[i + 1]) for i in range(len(path) - 1)]


def is_alternating(path: VertexPath, m: Matching) -> bool:
    """True iff the path has 2k-1 edges alternating in/out of the
    matching, starting and ending with matching edges."""
    es = path_edges(path)
    if len(es) % 2 == 0:
        return False
    for i, e in enumerate(es):
        if (e in m) != (i % 2 == 0):
            return False
    return True


# ---------------------------------------------------------------------------
# canonical form (AHU)


def adjacency_code(adj, vertices: Optional[Iterable[int]] = None) -> bytes:
    """AHU code of the tree induced on `vertices` (default: every vertex
    of `adj`), rooted at its centre; a bicentral tree takes the smaller of
    its two codes.

    A rooted code is "(" + the sorted codes of the children + ")".  The
    pass is iterative: strip leaves to the centres, order the vertices
    breadth-first from them, then close the codes bottom-up.
    """
    if vertices is not None:  # relabel the induced tree to 0..k-1
        index = {v: i for i, v in enumerate(vertices)}
        adj = [[index[w] for w in adj[v] if w in index] for v in index]
    n = len(adj)
    deg = [len(a) for a in adj]
    centres = [v for v in range(n) if deg[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(centres)
        layer, centres = centres, []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    centres.append(w)
    # each centre's parent is the other centre (itself if it is alone),
    # so the breadth-first pass never crosses the central edge
    parent = [-1] * n
    for c, other in zip(centres, reversed(centres)):
        parent[c] = other
    order = list(centres)
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    kids = [[] for _ in range(n)]
    for v in reversed(order[len(centres):]):
        subs = kids[v]
        subs.sort()
        kids[parent[v]].append(b"(" + b"".join(subs) + b")")
    if len(centres) == 1:
        return b"(" + b"".join(sorted(kids[centres[0]])) + b")"
    # rooted at one centre, the other centre's half is one more child
    halves = [b"(" + b"".join(sorted(kids[c])) + b")" for c in centres]
    return min(b"(" + b"".join(sorted(kids[c] + [other])) + b")"
               for c, other in zip(centres, reversed(halves)))


def canonical_code(t: Tree) -> bytes:
    """Canonical code of the isomorphism class (see `adjacency_code`)."""
    return adjacency_code(t.adjacency())


def trees_isomorphic(a: Tree, b: Tree) -> bool:
    return a.n == b.n and canonical_code(a) == canonical_code(b)


# ---------------------------------------------------------------------------
# rooted products


def rooted_product_k2(base: Tree) -> Tree:
    """Attach one pendant vertex to every vertex of the base tree.

    Vertex i gets pendant n+i; the pendant edges form the unique perfect
    matching of the result.
    """
    n = base.n
    edges = set(base.edges)
    edges.update(edge(i, n + i) for i in range(n))
    return Tree(2 * n, frozenset(edges))


def elongated_caterpillar(n: int) -> Tree:
    """The rooted product of the n-vertex path with n pendant edges."""
    if n < 1:
        raise ValueError("n must be positive")
    return rooted_product_k2(path_tree(n))
