"""Exact univariate polynomial arithmetic, Sturm sequences and exact
comparison of certified eigenvalues.

Polynomials are coefficient lists in ascending degree order.  Integer
polynomials stay in int; intermediate quotients use Fraction, so every
computation here is exact.  Tree eigenvalues are located by inertia
counting in `spectral`; this module supplies the arithmetic behind
`char_poly` and the rooted-product identities, Sturm counts of distinct
roots, and the gcd test that decides equality once two root brackets are
narrow and still overlap (`compare_roots`).  It defines no root type of
its own: `compare_roots` compares `spectral.TreeEigenvalue`s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from typing import Optional, Sequence

Poly = list  # coefficients, ascending


def trim(p: Sequence) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Poly) -> int:
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, [-c for c in q])


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def scale(p: Poly, c) -> Poly:
    return trim([c * a for a in p])


def evaluate(p: Poly, x):
    """Horner evaluation; exact for int/Fraction arguments."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return trim([i * c for i, c in enumerate(p)][1:])


def divmod_exact(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Polynomial division over the rationals."""
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    lead = Fraction(q[-1])
    while len(rem) >= len(q) and any(rem):
        rem = trim(rem)
        if len(rem) < len(q):
            break
        k = len(rem) - len(q)
        coef = rem[-1] / lead
        quo[k] = coef
        for i, c in enumerate(q):
            rem[k + i] -= coef * c
        rem.pop()
    return trim(quo), trim(rem)


def to_primitive_int(p: Poly) -> Poly:
    """Clear denominators and divide out the content; make the leading
    coefficient positive."""
    p = trim(p)
    if not p:
        return []
    denom = 1
    for c in p:
        if isinstance(c, Fraction):
            denom = denom * c.denominator // int_gcd(denom, c.denominator)
    ints = [int(c * denom) for c in p]
    g = 0
    for c in ints:
        g = int_gcd(g, abs(c))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive integer gcd via the Euclidean algorithm over Q."""
    a, b = trim(list(p)), trim(list(q))
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    return to_primitive_int(a) if a else []


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), as a primitive integer polynomial."""
    g = poly_gcd(p, derivative(p))
    if degree(g) < 1:
        return to_primitive_int(p)
    q, r = divmod_exact(p, g)
    assert not r
    return to_primitive_int(q)


# ---------------------------------------------------------------------------
# Sturm sequences


def sturm_sequence(p: Poly) -> list[Poly]:
    """Sturm chain of a squarefree integer polynomial (primitive integer
    entries, signs preserved)."""
    chain = [to_primitive_int(p), to_primitive_int(derivative(p))]
    while degree(chain[-1]) > 0:
        _, r = divmod_exact(chain[-2], chain[-1])
        if not r:
            break
        neg = to_primitive_int(r)
        # to_primitive_int normalizes the sign; restore -rem's true sign
        if (r[-1] > 0) == (neg[-1] > 0):
            neg = [-c for c in neg]
        chain.append(neg)
    return [c for c in chain if c]


def sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    return sign_variations(chain, a) - sign_variations(chain, b)


# ---------------------------------------------------------------------------
# exact comparison of certified roots

# below this bracket width compare_roots asks the polynomials whether two
# overlapping roots are equal, and tree eigenvalues confirm a cluster
EXACT_TEST_WIDTH = Fraction(1, 2 ** 32)


def _same_root(a, b) -> Optional[bool]:
    """Exact equality of two roots whose brackets overlap, or None while a
    bracket still holds another root of its polynomial."""
    for r in (a, b):
        if count_roots(sturm_sequence(r.poly), r.lo, r.hi) != 1:
            return None
    g = poly_gcd(a.poly, b.poly)  # squarefree, as both polys are
    if degree(g) < 1:
        return False
    # a root of g in the overlap is a's root and b's root
    return count_roots(sturm_sequence(g), max(a.lo, b.lo),
                       min(a.hi, b.hi)) >= 1


def compare_roots(a, b) -> int:
    """Certified comparison of two real algebraic numbers: -1, 0 or +1.

    `a` and `b` are `spectral.TreeEigenvalue`s: `exact`, or
    lo < root < hi, with `refine(width)` to narrow the bracket and `poly`
    a squarefree integer polynomial with no other root in (lo, hi] once
    it is narrow enough.
    Both brackets are refined only until they are disjoint.  If both are
    narrower than EXACT_TEST_WIDTH and still overlap, equality is decided
    exactly by the gcd of the two polynomials."""
    width = max(a.width(), b.width())
    tested = False
    for _ in range(200):
        if a.exact is not None and b.exact is not None:
            return (a.exact > b.exact) - (a.exact < b.exact)
        # at most one is exact, so touching brackets are strictly ordered
        if a.hi <= b.lo:
            return -1
        if b.hi <= a.lo:
            return 1
        if (not tested and width <= EXACT_TEST_WIDTH
                and a.exact is None and b.exact is None):
            same = _same_root(a, b)
            if same:
                return 0
            tested = same is not None
        width /= 2
        a.refine(width)
        b.refine(width)
    raise RuntimeError("root comparison did not converge")
