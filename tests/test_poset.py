import json
from pathlib import Path

import pytest

from invtrees.enumeration import enumerate_invertible
from invtrees.errors import EdgeAlreadyPresent, InvalidMove, NotInvertible
from invtrees.inverse import inverse_graph
from invtrees.poset import (ExchangeMove, build_poset, exchange_candidates,
                            fundamental_cycle, is_rooted_product_k2,
                            is_self_inverse, maximal_elements,
                            minimal_elements, mobius_function, poset_to_dot,
                            poset_to_json, tree_exchange,
                            verify_exchange_lemma, witness_non_minimal)
from invtrees.trees import (canonical_code, elongated_caterpillar,
                            path_tree, perfect_matching, star_tree, tree,
                            trees_isomorphic)

T6 = elongated_caterpillar(3)

# the worked eight-vertex exchange example: matching {01, 23, 45, 67},
# alternating path 7-6-2-3-4-5, e = {7,5}, phi(e) = {6,4}, f = {6,2}
FIG2 = tree(8, [(6, 7), (2, 6), (2, 3), (3, 4), (4, 5), (0, 2), (0, 1)])


class TestFundamentalCycle:
    def test_p4_long(self):
        assert set(fundamental_cycle(path_tree(4), (0, 3))) == \
            {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_p4_short(self):
        assert set(fundamental_cycle(path_tree(4), (0, 2))) == \
            {(0, 1), (1, 2), (0, 2)}

    def test_existing_edge(self):
        with pytest.raises(EdgeAlreadyPresent):
            fundamental_cycle(path_tree(4), (1, 2))

    def test_alternating_path_shape(self):
        # cycle of phi(e) = the alternating path minus its two matching
        # end edges, plus phi(e) itself
        cycle = set(fundamental_cycle(FIG2, (4, 6)))
        assert cycle == {(2, 6), (2, 3), (3, 4), (4, 6)}


class TestCandidates:
    def test_p4_empty(self):
        assert exchange_candidates(path_tree(4)) == []

    def test_t6_empty(self):
        assert len(inverse_graph(T6).edges) == 5
        assert exchange_candidates(T6) == []

    def test_p6_produces_t6(self):
        moves = exchange_candidates(path_tree(6))
        assert moves
        results = [tree_exchange(path_tree(6), mv) for mv in moves]
        assert any(trees_isomorphic(r, T6) for r in results)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            exchange_candidates(star_tree(4))


class TestTreeExchange:
    def test_figure2_move(self):
        move = ExchangeMove(add=(4, 6), remove=(2, 6),
                            source_inverse_edge=(5, 7))
        new = tree_exchange(FIG2, move)
        assert perfect_matching(new) == perfect_matching(FIG2)
        # phi(f) = {7,3} is not an edge of the new inverse graph
        assert (3, 7) in inverse_graph(FIG2).edges
        assert (3, 7) not in inverse_graph(new).edges

    def test_matching_preserved(self):
        for two_n in (6, 8):
            for t in enumerate_invertible(two_n).values():
                m = perfect_matching(t)
                for mv in exchange_candidates(t):
                    assert perfect_matching(tree_exchange(t, mv)) == m

    def test_invalid_moves_diagnosed(self):
        t = path_tree(6)
        good = exchange_candidates(t)[0]
        with pytest.raises(InvalidMove, match="matching edge"):
            tree_exchange(t, ExchangeMove(good.add, (0, 1),
                                          good.source_inverse_edge))
        for source in [(1, 2), (0, 99), (3, 3), (-1, 2)]:
            with pytest.raises(InvalidMove,
                               match="not in the inverse graph"):
                tree_exchange(t, ExchangeMove(good.add, good.remove, source))
        with pytest.raises(InvalidMove, match="already in the tree"):
            tree_exchange(t, ExchangeMove((2, 3), (1, 2), (2, 3)))


class TestExchangeLemma:
    def test_p6_to_t6(self):
        moves = exchange_candidates(path_tree(6))
        for mv in moves:
            report = verify_exchange_lemma(path_tree(6), mv)
            assert report.passed, report.first_failure

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
    def test_exhaustive(self, two_n):
        for t in enumerate_invertible(two_n).values():
            for mv in exchange_candidates(t):
                report = verify_exchange_lemma(t, mv)
                assert report.passed, (two_n, mv, report.first_failure)

    @pytest.mark.parametrize("two_n", [4, 6, 8, 10])
    def test_inverse_edges_decrease_along_steps(self, two_n):
        for t in enumerate_invertible(two_n).values():
            before = len(inverse_graph(t).edges)
            for mv in exchange_candidates(t):
                assert len(inverse_graph(tree_exchange(t, mv)).edges) \
                    < before


class TestPoset:
    def test_trivial_orders(self):
        for n in (1, 2):
            p = build_poset(n)
            assert len(p.nodes) == 1 and p.covers == []
            assert trees_isomorphic(p.nodes[0].representative,
                                    path_tree(2 * n))

    def test_n3_chain(self):
        p = build_poset(3)
        assert len(p.nodes) == 2 and len(p.covers) == 1
        lo, hi = p.covers[0]
        assert trees_isomorphic(p.nodes[lo].representative, path_tree(6))
        assert trees_isomorphic(p.nodes[hi].representative, T6)
        assert p.nodes[lo].median.value() == pytest.approx(
            0.4450419, abs=1e-6)
        assert p.nodes[hi].median.value() == pytest.approx(
            0.5176381, abs=1e-6)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_antisymmetry(self, n):
        p = build_poset(n)
        for (i, j) in p.relation:
            assert (j, i) not in p.relation

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_covers_certified_monotone(self, n):
        from invtrees.polynomials import compare_roots

        p = build_poset(n)
        for i, j in p.covers:
            assert compare_roots(p.nodes[i].median, p.nodes[j].median) == -1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_covers_are_reduction(self, n):
        p = build_poset(n)
        covers = set(p.covers)
        assert covers <= p.relation
        for i, j in covers:
            assert not any((i, k) in p.relation and (k, j) in p.relation
                           for k in range(len(p.nodes)))

    def test_n4_regression_fixture(self):
        # frozen after the first exhaustive build; regenerated each run
        with open(Path(__file__).parent / "data" / "poset_n4.json") as fh:
            frozen = json.load(fh)
        fresh = json.loads(poset_to_json(build_poset(4)))
        assert fresh == frozen
        assert len(fresh["nodes"]) == 5
        assert len(fresh["covers"]) == 4


class TestExtremal:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_three_way_equivalence(self, n):
        p = build_poset(n)
        maxima = {p.nodes[i].code for i in maximal_elements(p)}
        selfinv = {node.code for node in p.nodes
                   if is_self_inverse(node.representative)}
        rooted = {node.code for node in p.nodes
                  if is_rooted_product_k2(node.representative)[0]}
        assert maxima == selfinv == rooted

    @pytest.mark.parametrize("n", range(1, 7))
    def test_paths_are_the_minima(self, n):
        p = build_poset(n)
        minima = {p.nodes[i].code for i in minimal_elements(p)}
        assert minima == {canonical_code(path_tree(2 * n))}

    def test_self_inverse_examples(self):
        assert is_self_inverse(path_tree(4))
        assert not is_self_inverse(path_tree(6))
        assert is_self_inverse(T6)

    def test_rooted_product_detection(self):
        flag, base = is_rooted_product_k2(T6)
        assert flag and trees_isomorphic(base, path_tree(3))
        assert is_rooted_product_k2(path_tree(6)) == (False, None)

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10, 12])
    def test_equivalence_sweep(self, two_n):
        from invtrees.trees import rooted_product_k2

        for t in enumerate_invertible(two_n).values():
            flag, base = is_rooted_product_k2(t)
            assert flag == is_self_inverse(t)
            if flag:
                assert trees_isomorphic(rooted_product_k2(base), t)


class TestWitness:
    def test_t6(self):
        t_prime, move = witness_non_minimal(T6)
        assert trees_isomorphic(tree_exchange(t_prime, move), T6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_paths_have_none(self, n):
        assert witness_non_minimal(path_tree(2 * n)) is None

    @pytest.mark.parametrize("two_n", [6, 8, 10, 12])
    def test_round_trip_sweep(self, two_n):
        for t in enumerate_invertible(two_n).values():
            got = witness_non_minimal(t)
            if max(t.degree(v) for v in range(t.n)) <= 2:
                assert got is None
                continue
            t_prime, move = got
            assert trees_isomorphic(tree_exchange(t_prime, move), t)


class TestMobius:
    def test_chain(self):
        p = build_poset(3)
        mu = mobius_function(p)
        lo, hi = p.covers[0]
        assert mu[(lo, lo)] == mu[(hi, hi)] == 1
        assert mu[(lo, hi)] == -1
        assert mu[(hi, lo)] == 0

    def test_n4_table_frozen(self):
        with open(Path(__file__).parent / "data" / "poset_n4.json") as fh:
            frozen = json.load(fh)
        mu = mobius_function(build_poset(4))
        nonzero = [[i, j, v] for (i, j), v in sorted(mu.items())
                   if v and i != j]
        assert nonzero == frozen["mobius"]


class TestExport:
    def test_dot(self):
        dot = poset_to_dot(build_poset(3))
        assert dot.startswith("digraph hasse") and "0 -> 1" in dot

    def test_json_schema(self):
        data = json.loads(poset_to_json(build_poset(3)))
        assert set(data) == {"n", "nodes", "covers", "mobius"}
        assert set(data["nodes"][0]) == {"code", "edges", "median",
                                         "maximal", "minimal"}
