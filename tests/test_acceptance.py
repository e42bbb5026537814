"""End-to-end acceptance checks.

Each test sweeps the relevant exhaustive range, checks the claimed
property at its stated tolerance, and prints a one-line summary so a
plain ``pytest -v -s tests/test_acceptance.py`` run reads as a
checklist.
"""

import json
import math
from pathlib import Path

import pytest

from invtrees.enumeration import enumerate_invertible
from invtrees.inverse import (adjacency_matrix, exact_inverse,
                              inverse_graph, inverse_signed_graph,
                              is_identity, matmul, negative_cut_counts,
                              verify_godsil)
from invtrees.polynomials import compare_roots
from invtrees.poset import (build_poset, exchange_candidates,
                            is_rooted_product_k2, is_self_inverse,
                            maximal_elements, minimal_elements,
                            mobius_function, poset_to_json, tree_exchange,
                            verify_exchange_lemma, witness_non_minimal)
from invtrees.spectral import (caterpillar_median_bound, median_root,
                               path_eigenvalues, rooted_product_char_poly,
                               spectrum)
from invtrees.inverse import char_poly
from invtrees.trees import (apply_involution, canonical_code, distances,
                            elongated_caterpillar, involution, path_tree,
                            perfect_matching, rooted_product_k2,
                            trees_isomorphic)


def report(line):
    print(f"\n[acceptance] {line}")


def test_exact_inverse_is_identity_product():
    """A(T)^-1 A(T) = I as exact integers, every invertible class
    through 14 vertices."""
    checked = 0
    for two_n in range(2, 15, 2):
        for t in enumerate_invertible(two_n).values():
            a = adjacency_matrix(t)
            inv = exact_inverse(t)
            assert is_identity(matmul(inv, a))
            assert is_identity(matmul(a, inv))
            signed = inverse_signed_graph(t).matrix()
            assert signed == inv
            checked += 1
    report(f"exact inverse: {checked} classes through 14 vertices, "
           "A^-1 A = A A^-1 = I exactly")


def test_structure_theorem_all_clauses():
    """Entrywise description, signed subgraph, cut-switching and
    spanning-tree clauses, plus the m-1 negative-cut count, every
    invertible class through 14 vertices."""
    checked = cuts = 0
    for two_n in range(2, 15, 2):
        for t in enumerate_invertible(two_n).values():
            rep = verify_godsil(t)
            assert rep.passed, rep.first_failure
            m = perfect_matching(t)
            phi_t = apply_involution(t, involution(t, m))
            counts = negative_cut_counts(t)
            assert set(counts) == inverse_graph(t).edges - phi_t.edges
            # a path of 2m vertices is at distance 2m-1
            dist = [distances(t, a) for a in range(t.n)]
            for (u, v), count in counts.items():
                assert count == (dist[u][v] - 1) // 2
                cuts += 1
            checked += 1
    report(f"structure theorem: all clauses on {checked} classes, "
           f"{cuts} non-spanning edges match the m-1 cut count")


def test_exchange_lemma_certified():
    """Every exchange move through 10 vertices: inverse edges shrink
    strictly, the lost edge is the involution image of the removed
    edge, and the median eigenvalue increase is certified."""
    moves = 0
    for two_n in range(2, 11, 2):
        for t in enumerate_invertible(two_n).values():
            for mv in exchange_candidates(t):
                rep = verify_exchange_lemma(t, mv)
                assert rep.passed, (two_n, mv, rep.first_failure)
                moves += 1
    report(f"exchange: {moves} moves through 10 vertices verified with "
           "certified median separation")


def test_small_posets():
    one = build_poset(1)
    two = build_poset(2)
    assert len(one.nodes) == 1 and not one.covers
    assert trees_isomorphic(one.nodes[0].representative, path_tree(2))
    assert len(two.nodes) == 1 and not two.covers
    assert trees_isomorphic(two.nodes[0].representative, path_tree(4))

    three = build_poset(3)
    assert len(three.nodes) == 2 and len(three.covers) == 1
    lo, hi = three.covers[0]
    assert trees_isomorphic(three.nodes[lo].representative, path_tree(6))
    assert trees_isomorphic(three.nodes[hi].representative,
                            elongated_caterpillar(3))
    med_lo = three.nodes[lo].median.value()
    med_hi = three.nodes[hi].median.value()
    assert med_lo == pytest.approx(0.4450419, abs=1e-6)
    assert med_hi == pytest.approx(0.5176381, abs=1e-6)
    assert compare_roots(three.nodes[lo].median, three.nodes[hi].median) == -1
    report("posets on 2, 4 vertices are singletons; 6 vertices is the "
           f"chain {med_lo:.7f} < {med_hi:.7f}")


def test_extremal_characterizations():
    """Through 12 vertices: maximal = self-inverse = rooted product
    with an edge, minimal = the path, and the median eigenvalue is
    uniquely maximized/minimized by the long caterpillar/path."""
    for n in range(1, 7):
        p = build_poset(n)
        maxima = {p.nodes[i].code for i in maximal_elements(p)}
        selfinv = {node.code for node in p.nodes
                   if is_self_inverse(node.representative)}
        rooted = {node.code for node in p.nodes
                  if is_rooted_product_k2(node.representative)[0]}
        assert maxima == selfinv == rooted
        minima = {p.nodes[i].code for i in minimal_elements(p)}
        assert minima == {canonical_code(path_tree(2 * n))}

        cat_med = median_root(elongated_caterpillar(n))
        path_med = median_root(path_tree(2 * n))
        cat_code = canonical_code(elongated_caterpillar(n))
        path_code = canonical_code(path_tree(2 * n))
        for node in p.nodes:
            if node.code not in (cat_code, path_code):
                assert compare_roots(node.median, cat_med) == -1
                assert compare_roots(node.median, path_med) == 1
    report("extremal elements through 12 vertices: maxima are exactly "
           "the self-inverse rooted products, the path is the unique "
           "minimum and the long caterpillar the unique median maximizer")


def test_closed_form_spectra():
    """Exact rooted-product characteristic polynomials, closed-form
    path spectra at 1e-9, and the sqrt(2)-1 median lower bound."""
    from invtrees.enumeration import enumerate_trees

    for n in range(1, 8):
        for t in enumerate_trees(n).values():
            assert rooted_product_char_poly(t) == \
                char_poly(rooted_product_k2(t))
    for n in range(2, 15):
        assert spectrum(path_tree(n)).values == pytest.approx(
            path_eigenvalues(n), abs=1e-9)
    floor = math.sqrt(2) - 1
    for n in range(1, 11):
        median, bound = caterpillar_median_bound(n)
        assert bound == pytest.approx(floor, abs=1e-12)
        assert median >= floor - 1e-12
    report("closed forms: rooted-product polynomials exact through base "
           "order 7, path spectra at 1e-9 through 14 vertices, "
           "caterpillar medians above sqrt(2)-1 through 20 vertices")


def test_non_minimality_witnesses():
    """Every non-path invertible tree through 12 vertices has a
    constructive predecessor whose exchange reproduces it."""
    found = 0
    for two_n in range(2, 13, 2):
        for t in enumerate_invertible(two_n).values():
            witness = witness_non_minimal(t)
            if max(t.degree(v) for v in range(t.n)) <= 2:
                assert witness is None
                continue
            t_prime, move = witness
            assert trees_isomorphic(tree_exchange(t_prime, move), t)
            found += 1
    report(f"witnesses: {found} non-path classes through 12 vertices "
           "each rebuilt by one exchange from their witness")


def test_poset_regression_fixture():
    """The 8-vertex Hasse diagram, medians and Moebius table match the
    frozen fixture byte for byte."""
    with open(Path(__file__).parent / "data" / "poset_n4.json") as fh:
        frozen = json.load(fh)
    p = build_poset(4)
    fresh = json.loads(poset_to_json(p))
    assert fresh == frozen
    mu = mobius_function(p)
    nonzero = [[i, j, v] for (i, j), v in sorted(mu.items())
               if v and i != j]
    assert nonzero == frozen["mobius"]
    report(f"regression: 8-vertex poset ({len(fresh['nodes'])} nodes, "
           f"{len(fresh['covers'])} covers) matches the frozen fixture")
