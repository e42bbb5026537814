import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_trees
from invtrees.enumeration import enumerate_invertible, enumerate_trees
from invtrees.errors import OddOrder
from invtrees.inverse import (adjacency_matrix, char_poly, inverse_graph,
                              inverse_signed_graph)
from invtrees import polynomials
from invtrees.polynomials import compare_roots
from invtrees.spectral import (TreeEigenvalue, caterpillar_median_bound,
                               compare_medians, inertia, median_eigenvalue,
                               median_root, path_eigenvalues,
                               rooted_product_char_poly,
                               rooted_product_spectrum, spectrum)
from invtrees.trees import (elongated_caterpillar, path_tree,
                            rooted_product_k2, star_tree, tree)

GOLDEN = (1 + math.sqrt(5)) / 2


class TestSpectrum:
    def test_p2(self):
        assert spectrum(path_tree(2)).values == pytest.approx([-1.0, 1.0])

    def test_p4(self):
        expect = sorted([GOLDEN, -GOLDEN, GOLDEN - 1, 1 - GOLDEN])
        assert spectrum(path_tree(4)).values == pytest.approx(
            expect, abs=1e-11)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_path_closed_form(self, n):
        got = spectrum(path_tree(n)).values
        assert got == pytest.approx(path_eigenvalues(n), abs=1e-9)

    def test_multiplicities(self):
        # star K_{1,3}: eigenvalue 0 twice
        spec = spectrum(star_tree(4))
        assert spec.values == pytest.approx(
            [-math.sqrt(3), 0.0, 0.0, math.sqrt(3)], abs=1e-11)

    def test_repeated_eigenvalues(self):
        # spider with three length-2 legs: +-1 are double eigenvalues
        spider = tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        spec = spectrum(spider)
        assert len(spec.values) == 7
        mults = {round(r.value(), 6): r.multiplicity for r in spec.roots}
        assert mults[1.0] == 2 and mults[-1.0] == 2
        ref = sorted(np.linalg.eigvalsh(
            np.array(adjacency_matrix(spider), dtype=float)))
        assert spec.values == pytest.approx(ref, abs=1e-9)

    @given(random_trees(max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_bipartite_symmetry(self, t):
        values = spectrum(t).values
        assert len(values) == t.n
        for i, v in enumerate(values):
            assert v == pytest.approx(-values[t.n - 1 - i], abs=2e-12)

    @given(random_trees(min_n=2, max_n=14))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_dense_eigensolver(self, t):
        got = spectrum(t).values
        ref = sorted(np.linalg.eigvalsh(np.array(adjacency_matrix(t),
                                                 dtype=float)))
        assert got == pytest.approx(ref, abs=1e-9)


class TestMedian:
    def test_p2(self):
        assert median_eigenvalue(path_tree(2)) == pytest.approx(1.0)

    def test_p6(self):
        assert median_eigenvalue(path_tree(6)) == pytest.approx(
            2 * math.cos(3 * math.pi / 7), abs=1e-9)

    def test_t6(self):
        assert median_eigenvalue(elongated_caterpillar(3)) == pytest.approx(
            (math.sqrt(6) - math.sqrt(2)) / 2, abs=1e-9)

    def test_odd_order(self):
        with pytest.raises(OddOrder):
            median_eigenvalue(path_tree(5))

    def test_certified_comparison(self):
        assert compare_medians(path_tree(6), elongated_caterpillar(3)) == -1
        assert compare_medians(path_tree(6), path_tree(6)) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_path_minimizes(self, n):
        # unique minimizer of the median among invertible classes
        path_med = median_root(path_tree(2 * n))
        for t in enumerate_invertible(2 * n).values():
            cmp = compare_roots(median_root(t), path_med)
            if t.edges == path_tree(2 * n).edges or _is_path(t):
                assert cmp == 0
            else:
                assert cmp > 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_caterpillar_maximizes(self, n):
        cat_med = median_root(elongated_caterpillar(n))
        for t in enumerate_invertible(2 * n).values():
            cmp = compare_roots(median_root(t), cat_med)
            if _is_caterpillar_t2n(t, n):
                assert cmp == 0
            else:
                assert cmp < 0


def _is_path(t):
    return max(t.degree(v) for v in range(t.n)) <= 2


def _is_caterpillar_t2n(t, n):
    from invtrees.trees import trees_isomorphic

    return trees_isomorphic(t, elongated_caterpillar(n))


class TestReciprocity:
    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10, 12])
    def test_inverse_spectrum(self, two_n):
        # lambda in spec(T) iff 1/lambda in spec of the signed inverse
        for t in enumerate_invertible(two_n).values():
            spec = spectrum(t).values
            inv_spec = sorted(np.linalg.eigvalsh(
                np.array(inverse_signed_graph(t).matrix(), dtype=float)))
            recip = sorted(1 / v for v in spec)
            assert recip == pytest.approx(inv_spec, abs=1e-9)


class TestRootedProduct:
    def test_k1(self):
        assert rooted_product_spectrum(tree(1, [])) == pytest.approx(
            [-1.0, 1.0])

    def test_p2_matches_p4(self):
        assert rooted_product_spectrum(path_tree(2)) == pytest.approx(
            spectrum(path_tree(4)).values, abs=2e-12)

    def test_p3_values(self):
        got = rooted_product_spectrum(path_tree(3))
        r6, r2 = math.sqrt(6), math.sqrt(2)
        expect = sorted([1, -1, (r6 + r2) / 2, -(r6 + r2) / 2,
                         (r6 - r2) / 2, -(r6 - r2) / 2])
        assert got == pytest.approx(expect, abs=1e-9)

    @given(random_trees(max_n=6))
    @settings(max_examples=25, deadline=None)
    def test_matches_direct_spectrum(self, t):
        direct = spectrum(rooted_product_k2(t)).values
        assert rooted_product_spectrum(t) == pytest.approx(
            direct, abs=2e-12)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_char_poly_identity_exhaustive(self, n):
        from invtrees.enumeration import enumerate_trees

        for t in enumerate_trees(n).values():
            assert rooted_product_char_poly(t) == \
                char_poly(rooted_product_k2(t))


class TestCaterpillarBound:
    def test_n1(self):
        median, bound = caterpillar_median_bound(1)
        assert median == pytest.approx(1.0)
        assert bound == pytest.approx(0.4142136, abs=1e-7)

    def test_n3(self):
        median, bound = caterpillar_median_bound(3)
        assert median == pytest.approx(0.5176381, abs=1e-7)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bound_holds(self, n):
        median, bound = caterpillar_median_bound(n)
        assert median >= bound - 1e-12


SPIDER10 = tree(10, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6),
                     (0, 7), (7, 8), (8, 9)])  # three 3-vertex legs


def _neighbouring_medians(two_n):
    """(gap, s, t) for the classes on two_n vertices taken in ascending
    order of their numpy medians, s and t next to each other."""
    medians = sorted(((_eigenvalues(adjacency_matrix(t))[two_n // 2], t)
                      for t in enumerate_invertible(two_n).values()),
                     key=lambda pair: pair[0])
    return [(y - x, s, t) for (x, s), (y, t) in zip(medians, medians[1:])]


class TestRootIsolation:
    def test_compare_equal_irrational(self, monkeypatch):
        # sqrt(2) is simple in P3 and double in the spider: equality is
        # decided by the gcd of two different squarefree polynomials
        a = TreeEigenvalue(path_tree(3), 2)
        b = TreeEigenvalue(SPIDER10, 7)
        assert a.poly != b.poly
        same_root, decided = polynomials._same_root, []

        def spy(x, y):
            decided.append(same_root(x, y))
            return decided[-1]

        monkeypatch.setattr(polynomials, "_same_root", spy)
        assert compare_roots(a, b) == 0
        assert decided == [True]
        assert a.value() == pytest.approx(math.sqrt(2), abs=1e-11)

    def test_compare_equal_medians(self):
        # two pairs of non-isomorphic classes at 12 share a median
        equal = [(s, t) for gap, s, t in _neighbouring_medians(12)
                 if gap < 1e-9]
        assert len(equal) == 2
        for s, t in equal:
            assert compare_medians(s, t) == compare_medians(t, s) == 0

    def test_compare_close(self):
        # every other neighbouring pair at 12 is ordered as numpy orders
        # it, the closest (about 2.2e-4 apart) included
        distinct = [(gap, s, t) for gap, s, t in _neighbouring_medians(12)
                    if gap >= 1e-9]
        assert 2e-4 < min(gap for gap, _, _ in distinct) < 3e-4
        for _, s, t in distinct:
            assert compare_medians(s, t) == -1
            assert compare_medians(t, s) == 1


def _eigenvalues(matrix):
    return np.linalg.eigvalsh(np.array(matrix, dtype=float))


class TestInertia:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_match_dense_eigensolver(self, n):
        rng = random.Random(n)
        for t in enumerate_trees(n).values():
            ev = _eigenvalues(adjacency_matrix(t))
            points = [0, 1, -1, 2, -2] + [
                Fraction(rng.randint(-400, 400), rng.randint(1, 150))
                for _ in range(5)]
            for x in points:
                below = int(np.sum(ev < float(x) - 1e-9))
                at = int(np.sum(abs(ev - float(x)) <= 1e-9))
                assert inertia(t, x) == (below, at, n - below - at)

    @pytest.mark.parametrize("two_n", [12, 14])
    def test_median_is_reciprocal_inverse_radius(self, two_n):
        # switching preserves the spectrum, so the smallest positive
        # eigenvalue of T is 1 / rho of the unsigned inverse graph
        for t in enumerate_invertible(two_n).values():
            g = inverse_graph(t)
            a = [[0] * g.n for _ in range(g.n)]
            for u, v in g.edges:
                a[u][v] = a[v][u] = 1
            rho = max(_eigenvalues(a))
            assert median_eigenvalue(t) == pytest.approx(1 / rho, abs=1e-11)

    def test_irrational_multiple_eigenvalue(self):
        # spider with three 3-vertex legs: +-sqrt(2) and 0 twice each
        spec = spectrum(SPIDER10)
        mults = {round(r.value(), 6): r.multiplicity for r in spec.roots}
        r2 = round(math.sqrt(2), 6)
        assert mults[r2] == mults[-r2] == mults[0.0] == 2
        assert spec.values == pytest.approx(
            sorted(_eigenvalues(adjacency_matrix(SPIDER10))), abs=1e-11)
        # one eigenvalue at a time, from an unrefined bracket
        root = TreeEigenvalue(SPIDER10, 7)
        assert root.exact is None and root.multiplicity == 2
        assert root.value() == pytest.approx(math.sqrt(2), abs=1e-11)
        zero = TreeEigenvalue(SPIDER10, 4)
        assert zero.multiplicity == 2 and zero.exact == 0
