"""Eigenvalues of trees with certified accuracy.

Every eigenvalue question is answered by exact inertia counting
(Jacobs and Trevisan, "Locating the eigenvalues of trees", Linear
Algebra Appl. 434, 2011): one leaf-to-root pass over A(T) - xI in
`Fraction` arithmetic counts the eigenvalues below, at and above a
rational x, in O(n) operations and without recursion.  Bisection on
these counts brackets any eigenvalue, hits every integer eigenvalue
exactly (the brackets start from a power of two) and reads
multiplicities off the counts.  `TreeEigenvalue` is the one certified
root type.  The characteristic polynomial (`inverse.char_poly`, one pass
over the same leaf-to-root order, `trees.leaf_to_root`) is used only
where counts cannot decide: to confirm that a cluster of equal counts is
one irrational eigenvalue, and, through `polynomials.compare_roots`, to
decide equality exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polynomials as pol
from .errors import OddOrder
from .inverse import char_poly
from .trees import Tree, leaf_to_root

DEFAULT_TOL = 1e-12


class _Counter:
    """One tree's leaf-to-root order for repeated inertia counts, its
    power-of-two eigenvalue bound, and the Sturm chain of its squarefree
    characteristic polynomial, built on first use."""

    def __init__(self, t: Tree):
        self.tree = t
        self.order, self.parent = leaf_to_root(t)
        # |eigenvalue| <= max degree < bound
        self.bound = 1 << max(len(a) for a in t.adjacency()).bit_length()
        self._chain = None

    def inertia(self, x: Fraction) -> tuple[int, int, int]:
        parent = self.parent
        d = [-x] * len(parent)  # diagonal of A - xI, reduced in place
        zero_child = [-1] * len(parent)
        for v in self.order:
            c = zero_child[v]
            if c >= 0:
                # a zero child c: the block on {c, v} is congruent to
                # diag(2, -1/2) and row c clears the edge to v's parent
                d[c], d[v] = 2, Fraction(-1, 2)
            elif parent[v] >= 0:
                if d[v]:
                    d[parent[v]] -= 1 / d[v]
                else:
                    zero_child[parent[v]] = v
        below = sum(1 for a in d if a < 0)
        at = d.count(0)
        return below, at, len(d) - below - at

    @property
    def chain(self) -> list:
        if self._chain is None:
            self._chain = pol.sturm_sequence(
                pol.squarefree_part(char_poly(self.tree)))
        return self._chain


def inertia(t: Tree, x) -> tuple[int, int, int]:
    """(below, at, above): how many eigenvalues of A(T), with
    multiplicity, are less than, equal to and greater than the rational
    x.  Exact; one pass over the tree."""
    return _Counter(t).inertia(Fraction(x))


class TreeEigenvalue:
    """The k-th smallest eigenvalue (k from 0) of A(T), certified.

    Either `exact` is set (lo == hi == exact) or lo < value < hi; the
    eigenvalues of A(T) equal to `exact`, or strictly between lo and hi,
    are exactly those with indices first..stop-1, k among them.
    `refine`, `value` and `multiplicity` narrow the bracket by bisection
    on inertia counts.  It is the package's one certified root type:
    `polynomials.compare_roots` compares two of them, with `poly` the
    squarefree characteristic polynomial.
    """

    def __init__(self, t: Tree, k: int, counter: _Counter | None = None):
        if not 0 <= k < t.n:
            raise IndexError(f"eigenvalue index {k} outside 0..{t.n - 1}")
        self.tree, self.k = t, k
        self._counter = counter or _Counter(t)
        bound = Fraction(self._counter.bound)
        self.lo, self.hi = -bound, bound
        self.first, self.stop = 0, t.n
        self.exact = None
        self._one_root = False  # Sturm count 1 on (lo, hi] seen

    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def poly(self) -> list:
        """The squarefree characteristic polynomial of the tree."""
        return self._counter.chain[0]

    def _parts(self):
        """Bisect at the midpoint: (lo, hi, first, stop) for the open
        lower half, the midpoint itself and the open upper half."""
        mid = (self.lo + self.hi) / 2
        below, at, _ = self._counter.inertia(mid)
        return ((self.lo, mid, self.first, below),
                (mid, mid, below, below + at),
                (mid, self.hi, below + at, self.stop))

    def _narrow(self, lo, hi, first, stop) -> None:
        self.lo, self.hi, self.first, self.stop = lo, hi, first, stop
        if lo == hi:
            self.exact = lo

    def _split(self) -> list[TreeEigenvalue]:
        """The non-empty parts after one bisection, each as the eigenvalue
        of lowest index in it."""
        out = []
        for lo, hi, first, stop in self._parts():
            if first < stop:
                part = TreeEigenvalue(self.tree, first, self._counter)
                part._narrow(lo, hi, first, stop)
                out.append(part)
        return out

    def _resolved(self) -> bool:
        """Whether every eigenvalue in the bracket equals this one: an
        exact hit, a single eigenvalue, or a bracket narrower than
        EXACT_TEST_WIDTH holding one root of the squarefree polynomial."""
        if self.exact is not None or self.stop - self.first == 1:
            return True
        if not self._one_root and self.width() <= pol.EXACT_TEST_WIDTH:
            self._one_root = pol.count_roots(self._counter.chain, self.lo,
                                             self.hi) == 1
        return self._one_root

    def refine(self, width) -> None:
        """Bisect until the bracket is at most `width` wide."""
        while self.exact is None and self.hi - self.lo > width:
            for lo, hi, first, stop in self._parts():
                if first <= self.k < stop:
                    self._narrow(lo, hi, first, stop)
                    break

    @property
    def multiplicity(self) -> int:
        while not self._resolved():
            self.refine(self.width() / 2)
        return self.stop - self.first

    def value(self, tol: float = DEFAULT_TOL) -> float:
        if not tol > 0:
            raise ValueError("tol must be positive")
        self.refine(Fraction(tol))
        return float((self.lo + self.hi) / 2)

    def __float__(self) -> float:
        return self.value()


@dataclass
class Spectrum:
    """Sorted eigenvalues with certified brackets."""

    roots: list  # TreeEigenvalue per distinct eigenvalue, ascending
    tol: float = DEFAULT_TOL

    @property
    def values(self) -> list[float]:
        """All eigenvalues (with multiplicity), ascending floats."""
        out = []
        for r in self.roots:
            out.extend([r.value(self.tol)] * r.multiplicity)
        return out

    def __len__(self) -> int:
        return sum(r.multiplicity for r in self.roots)


def spectrum(t: Tree, tol: float = DEFAULT_TOL) -> Spectrum:
    """All eigenvalues of A(T), one certified root per distinct
    eigenvalue, each refined to width <= tol."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    roots, pending = [], [TreeEigenvalue(t, 0)]
    while pending:
        r = pending.pop()
        if r._resolved():
            roots.append(r)
        else:
            pending.extend(r._split())
    roots.sort(key=lambda r: r.k)
    width = Fraction(tol)
    for r in roots:
        r.refine(width)
    return Spectrum(roots, tol)


def median_root(t: Tree) -> TreeEigenvalue:
    """The median eigenvalue as an unrefined certified root: index n/2
    from 0 in ascending order, the smallest non-negative eigenvalue."""
    if t.n % 2 == 1:
        raise OddOrder("median eigenvalue defined for even order only")
    return TreeEigenvalue(t, t.n // 2)


def median_eigenvalue(t: Tree, tol: float = DEFAULT_TOL) -> float:
    """The n-th largest eigenvalue of a tree on 2n vertices (the
    positive median; equals minus the (n+1)-th by bipartite symmetry)."""
    return median_root(t).value(tol)


def compare_medians(a: Tree, b: Tree) -> int:
    """Certified comparison of the two median eigenvalues (-1, 0, +1)."""
    return pol.compare_roots(median_root(a), median_root(b))


def path_eigenvalues(n: int) -> list[float]:
    """Closed form for the n-vertex path: 2 cos(pi j / (n+1))."""
    return sorted(2 * math.cos(math.pi * j / (n + 1))
                  for j in range(1, n + 1))


def rooted_product_spectrum(base: Tree, tol: float = DEFAULT_TOL) -> list[float]:
    """Eigenvalues of the rooted product of a base tree with pendant
    edges: (theta +- sqrt(theta^2 + 4)) / 2 over eigenvalues theta of the
    base."""
    out = []
    for theta in spectrum(base, tol).values:
        d = math.sqrt(theta * theta + 4)
        out.extend([(theta - d) / 2, (theta + d) / 2])
    return sorted(out)


def rooted_product_char_poly(base: Tree) -> list[int]:
    """Exact expansion of t^n * phi(base, (t^2 - 1)/t): substitute the
    rational function and clear denominators."""
    coeffs = char_poly(base)
    n = base.n
    result = []
    s = [-1, 0, 1]  # t^2 - 1
    power = [1]
    for k, c in enumerate(coeffs):
        # c * (t^2-1)^k * t^(n-k)
        term = pol.scale(power, c)
        term = pol.mul(term, [0] * (n - k) + [1]) if n - k else term
        result = pol.add(result, term)
        power = pol.mul(power, s)
    return result


def caterpillar_median_bound(n: int, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Median eigenvalue of the elongated caterpillar on 2n vertices and
    the universal lower bound 1/(1 + sqrt(2)) = sqrt(2) - 1."""
    from .trees import elongated_caterpillar

    median = median_eigenvalue(elongated_caterpillar(n), tol)
    bound = math.sqrt(2) - 1
    assert median >= bound - tol
    return median, bound
