import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_trees
from invtrees import inverse
from invtrees import polynomials as pol
from invtrees.enumeration import enumerate_invertible, enumerate_trees
from invtrees.errors import NotInvertible, NotSpanningTreeEdge, Singular
from invtrees.inverse import (Cut, Graph, adjacency_matrix, char_poly,
                              exact_inverse, fundamental_cut,
                              inverse_entry, inverse_graph,
                              inverse_signed_graph, invert_unimodular,
                              is_identity, matmul, matrix_to_json,
                              negative_cut_count, negative_cut_counts,
                              negative_fundamental_cuts, signed_graph_to_dot,
                              signed_graph_to_json, signed_tree_image,
                              switch, underlying_graph, verify_godsil,
                              SignedGraph)
from invtrees.trees import (apply_involution, apply_perm,
                            elongated_caterpillar, involution,
                            is_alternating, path_tree, perfect_matching,
                            rooted_product_k2, star_tree, tree, tree_path)


class TestCharPoly:
    def test_p2(self):
        assert char_poly(path_tree(2)) == [-1, 0, 1]

    def test_p4(self):
        # determinant expansion of tI - A(P4)
        assert char_poly(path_tree(4)) == [1, 0, -3, 0, 1]

    def test_star(self):
        # K_{1,3}: t^4 - 3t^2
        assert char_poly(star_tree(4)) == [0, 0, -3, 0, 1]

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
    def test_constant_coefficient_sign(self, two_n):
        n = two_n // 2
        for t in enumerate_invertible(two_n).values():
            assert char_poly(t)[0] == (-1) ** n

    @pytest.mark.parametrize("n", range(1, 11))
    def test_constant_term_iff_matching(self, n):
        for t in enumerate_trees(n).values():
            has_matching = perfect_matching(t) is not None
            assert (char_poly(t)[0] != 0) == has_matching

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        for t in enumerate_trees(n).values():
            expect = sympy.Matrix(adjacency_matrix(t)).charpoly().all_coeffs()
            assert char_poly(t) == [int(c) for c in reversed(expect)]

    def test_deep_path(self):
        # P_k = x P_(k-1) - P_(k-2), with P_0 = 1 and P_1 = x
        prev, cur = [1], [0, 1]
        for _ in range(1199):
            prev, cur = cur, pol.sub([0] + cur, prev)
        assert char_poly(path_tree(1200)) == cur

    @given(random_trees(max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_monic_degree_n(self, t):
        p = char_poly(t)
        assert len(p) == t.n + 1 and p[-1] == 1
        # bipartite: only coefficients of t^(n-2k) are nonzero
        assert all(c == 0 for i, c in enumerate(p) if (t.n - i) % 2)


class TestInverseEntry:
    def setup_method(self):
        self.t = path_tree(4)
        self.m = perfect_matching(self.t)

    def test_matched_edge(self):
        assert inverse_entry(self.t, self.m, 0, 1) == 1

    def test_long_alternating(self):
        assert inverse_entry(self.t, self.m, 0, 3) == -1

    def test_same_side(self):
        assert inverse_entry(self.t, self.m, 0, 2) == 0

    def test_diagonal(self):
        assert inverse_entry(self.t, self.m, 2, 2) == 0


class TestExactInverse:
    def test_p2(self):
        assert exact_inverse(path_tree(2)) == [[0, 1], [1, 0]]

    def test_p4(self):
        inv = exact_inverse(path_tree(4))
        assert inv == [[0, 1, 0, -1],
                       [1, 0, 0, 0],
                       [0, 0, 0, 1],
                       [-1, 0, 1, 0]]

    def test_star_singular(self):
        with pytest.raises(Singular):
            exact_inverse(star_tree(4))

    def test_non_unimodular_rejected(self):
        with pytest.raises(Singular):
            invert_unimodular([[2, 0], [0, 1]])

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10, 12, 14])
    def test_product_is_identity(self, two_n):
        for t in enumerate_invertible(two_n).values():
            assert is_identity(matmul(exact_inverse(t),
                                      adjacency_matrix(t)))


class TestSignedInverse:
    def test_p2(self):
        assert inverse_signed_graph(path_tree(2)).signs == (((0, 1), 1),)

    def test_p4(self):
        sg = inverse_signed_graph(path_tree(4))
        assert sg.sign_map() == {(0, 1): 1, (2, 3): 1, (0, 3): -1}

    def test_t6_edges(self):
        # T6 is self-inverse: exactly its 5 edges, matching images
        # positive, the rest negative
        t6 = elongated_caterpillar(3)
        sg = inverse_signed_graph(t6)
        assert len(sg.signs) == 5
        assert sorted(s for _, s in sg.signs) == [-1, -1, 1, 1, 1]

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            inverse_signed_graph(star_tree(4))

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10, 12, 14])
    def test_matches_oracle(self, two_n):
        for t in enumerate_invertible(two_n).values():
            assert inverse_signed_graph(t).matrix() == exact_inverse(t)

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10, 12, 14])
    def test_sweep_matches_inverse_entry(self, two_n):
        for t in enumerate_invertible(two_n).values():
            assert inverse_signed_graph(t).signs == _entries(t)

    @given(random_trees(max_n=20), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_sweep_on_relabelled_rooted_products(self, base, rng):
        t = rooted_product_k2(base)
        perm = list(range(t.n))
        rng.shuffle(perm)
        t = apply_perm(t, perm)
        assert inverse_signed_graph(t).signs == _entries(t)

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
    def test_zero_pattern(self, two_n):
        # zero diagonal and zero between same-side vertices
        for t in enumerate_invertible(two_n).values():
            inv = exact_inverse(t)
            side = _bipartition(t)
            for a in range(t.n):
                assert inv[a][a] == 0
                for b in range(t.n):
                    if side[a] == side[b]:
                        assert inv[a][b] == 0


def _entries(t):
    """The non-zero entries above the diagonal, pair by pair."""
    m = perfect_matching(t)
    entries = ((a, b, inverse_entry(t, m, a, b))
               for a in range(t.n) for b in range(a + 1, t.n))
    return tuple(((a, b), s) for a, b, s in entries if s)


def _bipartition(t):
    side = [0] * t.n
    stack = [0]
    seen = {0}
    while stack:
        v = stack.pop()
        for w in t.adjacency()[v]:
            if w not in seen:
                seen.add(w)
                side[w] = 1 - side[v]
                stack.append(w)
    return side


class TestUnderlyingGraph:
    def test_p2(self):
        g = inverse_graph(path_tree(2))
        assert g.edges == frozenset({(0, 1)})

    def test_p4_is_path(self):
        g = inverse_graph(path_tree(4))
        assert g.sorted_edges() == [(0, 1), (0, 3), (2, 3)]

    def test_p6_edge_count(self):
        # phi(P6) plus the single length-5 alternating pair {0,5}
        assert len(inverse_graph(path_tree(6)).edges) == 6

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
    def test_edge_criterion(self, two_n):
        # {u, v} is an inverse edge iff the u-v path alternates; checked
        # against the integer oracle, not the combinatorial construction
        for t in enumerate_invertible(two_n).values():
            m = perfect_matching(t)
            inv = exact_inverse(t)
            for u in range(t.n):
                for v in range(u + 1, t.n):
                    alt = is_alternating(tree_path(t, u, v), m)
                    assert (inv[u][v] != 0) == alt


class TestSignedTreeImage:
    def test_p2(self):
        t = path_tree(2)
        img = signed_tree_image(t, perfect_matching(t))
        assert img.signs == (((0, 1), 1),)

    def test_p4(self):
        t = path_tree(4)
        img = signed_tree_image(t, perfect_matching(t))
        assert img.sign_map() == {(0, 1): 1, (2, 3): 1, (0, 3): -1}

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10, 12])
    def test_signed_subgraph(self, two_n):
        for t in enumerate_invertible(two_n).values():
            m = perfect_matching(t)
            full = inverse_signed_graph(t).sign_map()
            for e, s in signed_tree_image(t, m).signs:
                assert full[e] == s

    @pytest.mark.parametrize("two_n", [4, 6, 8, 10])
    def test_negative_edges_are_length3_paths(self, two_n):
        for t in enumerate_invertible(two_n).values():
            m = perfect_matching(t)
            phi = involution(t, m)
            negatives = {e for e, s in signed_tree_image(t, m).signs
                         if s == -1}
            # a length-3 alternating u-v path corresponds one-to-one to
            # the non-matching tree edge {phi(u), phi(v)} whose image
            # {u, v} is the negative edge
            length3 = set()
            for u in range(t.n):
                for v in range(u + 1, t.n):
                    path = tree_path(t, u, v)
                    if len(path) == 4 and is_alternating(path, m):
                        assert t.has_edge(phi[u], phi[v])
                        length3.add((u, v))
            assert negatives == length3


class TestCuts:
    def test_p2(self):
        g = Graph(2, frozenset({(0, 1)}))
        assert fundamental_cut(g, frozenset({(0, 1)}), (0, 1)).side == \
            frozenset({0})

    def test_p4_inverse(self):
        g = inverse_graph(path_tree(4))
        cut = fundamental_cut(g, frozenset({(0, 1), (0, 3), (2, 3)}), (0, 1))
        assert cut.side == frozenset({1})
        assert [e for e in g.sorted_edges() if cut.crosses(e)] == [(0, 1)]

    def test_not_spanning_edge(self):
        g = inverse_graph(path_tree(4))
        with pytest.raises(NotSpanningTreeEdge):
            fundamental_cut(g, frozenset({(0, 1), (0, 3), (2, 3)}), (1, 2))

    @pytest.mark.parametrize("two_n", [4, 6, 8, 10, 12])
    def test_negative_cut_counts(self, two_n):
        # non-spanning inverse edge {v, w} whose alternating v-w path in
        # T has 2m vertices lies in exactly m-1 negative fundamental cuts
        for t in enumerate_invertible(two_n).values():
            phi_t = apply_involution(t, involution(t, perfect_matching(t)))
            for e in inverse_graph(t).sorted_edges():
                if e in phi_t.edges:
                    continue
                path = tree_path(t, e[0], e[1])
                assert len(path) % 2 == 0
                k = len(path) // 2
                assert negative_cut_count(t, e) == k - 1

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10, 12, 14])
    def test_all_counts_match_cuts(self, two_n):
        for t in enumerate_invertible(two_n).values():
            _check_cut_counts(t)

    @given(random_trees(max_n=12), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_all_counts_on_relabelled_rooted_products(self, base, rng):
        t = rooted_product_k2(base)
        perm = list(range(t.n))
        rng.shuffle(perm)
        _check_cut_counts(apply_perm(t, perm))


def _check_cut_counts(t):
    """negative_cut_counts against the cuts themselves, edge by edge."""
    phi_t = apply_involution(t, involution(t, perfect_matching(t)))
    cuts = negative_fundamental_cuts(t)
    counts = negative_cut_counts(t)
    assert set(counts) == inverse_graph(t).edges - phi_t.edges
    for e, count in counts.items():
        assert count == sum(c.crosses(e) for c in cuts)
        assert negative_cut_count(t, e) == count


class TestSwitching:
    def test_switch_twice(self):
        sg = inverse_signed_graph(path_tree(6))
        cut = Cut(frozenset({0, 2}))
        assert switch(switch(sg, cut), cut) == sg

    def test_single_edge(self):
        sg = SignedGraph.from_dict(2, {(0, 1): 1})
        assert switch(sg, Cut(frozenset({0}))).sign_map() == {(0, 1): -1}

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10, 12])
    def test_negative_cuts_neutralize(self, two_n):
        for t in enumerate_invertible(two_n).values():
            h = inverse_signed_graph(t)
            for cut in negative_fundamental_cuts(t):
                h = switch(h, cut)
            assert all(s == 1 for _, s in h.signs)


class TestVerifyGodsil:
    def test_p2(self):
        assert verify_godsil(path_tree(2)).passed

    def test_p6(self):
        report = verify_godsil(path_tree(6))
        assert report.passed and report.first_failure is None
        assert [name for name, _, _ in report.clauses] == \
            ["a:entries", "b:entrywise", "c:subgraph", "d:switching",
             "e:spanning"]

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            verify_godsil(star_tree(4))

    @pytest.mark.parametrize("fault", ["flip", "drop", "add"])
    def test_certificate_catches_one_wrong_entry(self, monkeypatch, fault):
        # every single-entry fault in the signed inverse of every class at
        # 8 vertices passes (a) but fails A S = I, clause (b)
        real = inverse.inverse_signed_graph
        for t in enumerate_invertible(8).values():
            signs = real(t).sign_map()
            if fault == "add":
                pairs = [(u, v) for u in range(t.n)
                         for v in range(u + 1, t.n) if (u, v) not in signs]
                faults = [{**signs, p: s} for p in pairs for s in (1, -1)]
            elif fault == "flip":
                faults = [{**signs, e: -s} for e, s in signs.items()]
            else:
                faults = [{f: s for f, s in signs.items() if f != e}
                          for e in signs]
            for bad in faults:
                monkeypatch.setattr(
                    inverse, "inverse_signed_graph",
                    lambda t, bad=bad: SignedGraph.from_dict(t.n, bad))
                report = verify_godsil(t)
                assert [(name, ok) for name, ok, _ in report.clauses[:2]] \
                    == [("a:entries", True), ("b:entrywise", False)]
                assert report.first_failure.startswith("b:entrywise: ")


class TestSerialization:
    def test_json(self):
        sg = inverse_signed_graph(path_tree(4))
        data = json.loads(signed_graph_to_json(sg))
        assert data["n"] == 4
        assert {"u": 0, "v": 3, "sign": -1} in data["edges"]

    def test_dot_styles(self):
        t = path_tree(4)
        sg = inverse_signed_graph(t)
        dot = signed_graph_to_dot(sg, matching=perfect_matching(t))
        assert '0 -- 3 [style="dashed"]' in dot
        assert '0 -- 1 [style="solid,bold"]' in dot

    def test_matrix_json(self):
        assert json.loads(matrix_to_json([[0, 1], [1, 0]])) == \
            [[0, 1], [1, 0]]

    def test_underlying(self):
        sg = inverse_signed_graph(path_tree(4))
        assert underlying_graph(sg).edges == sg.edge_set()
