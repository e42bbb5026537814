import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_perfect_matchings, labeled_trees, random_trees
from invtrees.errors import NotATree, ParseError, SameVertex
from invtrees.trees import (Tree, apply_involution, apply_perm,
                            canonical_code, distances, edge,
                            elongated_caterpillar, format_tree, involution,
                            is_alternating, parse_tree, path_tree,
                            perfect_matching, rooted_product_k2, star_tree,
                            tree, tree_path, trees_isomorphic)

# spider: center 0 with arms 0-1-2, 0-3-4 and pendant 5
SPIDER = tree(6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])


class TestParse:
    def test_smallest(self):
        t = parse_tree("2\n0 1")
        assert t.n == 2 and t.edges == frozenset({(0, 1)})

    def test_path(self):
        assert parse_tree("4\n0 1\n1 2\n2 3") == path_tree(4)

    def test_disconnected(self):
        with pytest.raises(NotATree):
            parse_tree("4\n0 1\n2 3")

    def test_comments_and_order(self):
        t = parse_tree("# a path\n4\n\n2 3\n0 1\n1 2\n")
        assert t == path_tree(4)

    @pytest.mark.parametrize("text", ["", "x", "4\n0", "4\n0 9", "4\n1 1"])
    def test_bad_input(self, text):
        with pytest.raises((ParseError, NotATree)):
            parse_tree(text)

    def test_round_trip(self):
        t = SPIDER
        assert parse_tree(format_tree(t)) == t


class TestPerfectMatching:
    def test_path4(self):
        assert perfect_matching(path_tree(4)) == frozenset({(0, 1), (2, 3)})

    def test_star_absent(self):
        assert perfect_matching(star_tree(4)) is None

    def test_spider(self):
        assert perfect_matching(SPIDER) == frozenset(
            {(0, 5), (1, 2), (3, 4)})

    def test_single_vertex(self):
        assert perfect_matching(tree(1, [])) is None

    @pytest.mark.parametrize("n", range(2, 13))
    def test_unique_when_present(self, n):
        # exhaustive matching enumeration on every isomorphism class
        from invtrees.enumeration import enumerate_trees

        seen = 0
        for t in enumerate_trees(n).values():
            ms = all_perfect_matchings(t)
            assert len(ms) <= 1
            got = perfect_matching(t)
            if ms:
                assert got == ms[0]
                seen += 1
            else:
                assert got is None
        if n % 2 == 0:
            assert seen > 0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_all_labelings_small(self, n):
        for t in labeled_trees(n):
            ms = all_perfect_matchings(t)
            assert perfect_matching(t) == (ms[0] if ms else None)


class TestInvolution:
    def test_p2(self):
        assert involution(path_tree(2), frozenset({(0, 1)})) == (1, 0)

    def test_p4(self):
        m = perfect_matching(path_tree(4))
        assert involution(path_tree(4), m) == (1, 0, 3, 2)

    def test_matched_pair_relation(self):
        # matching pairs {6,7} and {4,5} make phi swap 7<->6 and 5<->4
        t = tree(8, [(6, 7), (2, 6), (2, 3), (3, 4), (4, 5), (0, 2), (0, 1)])
        phi = involution(t, perfect_matching(t))
        assert phi[7] == 6 and phi[5] == 4

    def test_apply_p4(self):
        t = path_tree(4)
        phi = involution(t, perfect_matching(t))
        assert apply_involution(t, phi).edges == frozenset(
            {(0, 1), (0, 3), (2, 3)})

    @given(random_trees(min_n=2, max_n=12))
    @settings(max_examples=60, deadline=None)
    def test_apply_twice_is_identity(self, t):
        m = perfect_matching(t)
        if m is None:
            return
        phi = involution(t, m)
        assert apply_involution(apply_involution(t, phi), phi) == t

    def test_fixes_matching(self):
        t = SPIDER
        m = perfect_matching(t)
        image = apply_involution(t, involution(t, m))
        assert m <= image.edges


class TestPaths:
    def test_p4_ends(self):
        assert tree_path(path_tree(4), 0, 3) == (0, 1, 2, 3)

    def test_p4_adjacent(self):
        assert tree_path(path_tree(4), 1, 2) == (1, 2)

    def test_spider(self):
        assert tree_path(SPIDER, 2, 5) == (2, 1, 0, 5)

    def test_same_vertex(self):
        with pytest.raises(SameVertex):
            tree_path(path_tree(4), 2, 2)

    def test_spider_distances(self):
        assert distances(SPIDER, 2) == [2, 1, 0, 3, 4, 3]

    @given(random_trees(max_n=16))
    @settings(max_examples=40, deadline=None)
    def test_distances_match_paths(self, t):
        for a in range(t.n):
            assert distances(t, a) == [
                0 if b == a else len(tree_path(t, a, b)) - 1
                for b in range(t.n)]


class TestAlternating:
    M4 = frozenset({(0, 1), (2, 3)})

    def test_full_path(self):
        assert is_alternating((0, 1, 2, 3), self.M4)

    def test_single_non_matching_edge(self):
        assert not is_alternating((1, 2), self.M4)

    def test_even_length(self):
        assert not is_alternating((0, 1, 2), self.M4)

    @pytest.mark.parametrize("two_n", [2, 4, 6, 8, 10])
    def test_equivalent_to_deleted_matching(self, two_n):
        # alternating a-b path <=> T minus the path still has a perfect
        # matching (checked against the brute-force matcher)
        from invtrees.enumeration import enumerate_invertible

        for t in enumerate_invertible(two_n).values():
            m = perfect_matching(t)
            for a in range(t.n):
                for b in range(a + 1, t.n):
                    path = tree_path(t, a, b)
                    rest = set(range(t.n)) - set(path)
                    sub_edges = [e for e in t.edges
                                 if e[0] in rest and e[1] in rest]
                    has = _forest_has_perfect_matching(rest, sub_edges)
                    assert is_alternating(path, m) == has


def _forest_has_perfect_matching(vertices, edges) -> bool:
    if not vertices:
        return True
    vs = sorted(vertices)
    for subset in itertools.combinations(edges, len(vs) // 2):
        covered = [v for e in subset for v in e]
        if sorted(covered) == vs:
            return True
    return len(vs) == 0


class TestCanonicalCode:
    def test_relabeled_paths(self):
        a = path_tree(4)
        b = tree(4, [(0, 2), (0, 3), (1, 3)])  # path 2-0-3-1
        assert canonical_code(a) == canonical_code(b)

    def test_path_vs_star(self):
        assert canonical_code(path_tree(4)) != canonical_code(star_tree(4))

    def test_six_vertex_classes(self):
        codes = {canonical_code(t) for t in labeled_trees(6)}
        assert len(codes) == 6

    @pytest.mark.parametrize("n", range(2, 7))
    def test_invariant_under_all_relabelings(self, n):
        from invtrees.enumeration import enumerate_trees

        for t in enumerate_trees(n).values():
            code = canonical_code(t)
            for perm in itertools.permutations(range(n)):
                assert canonical_code(apply_perm(t, perm)) == code

    @given(random_trees(min_n=7, max_n=10), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_invariant_sampled(self, t, rng):
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert canonical_code(apply_perm(t, perm)) == canonical_code(t)


class TestRootedProduct:
    def test_k1(self):
        assert rooted_product_k2(tree(1, [])) == path_tree(2)

    def test_p2_gives_p4(self):
        assert trees_isomorphic(rooted_product_k2(path_tree(2)),
                                path_tree(4))

    def test_p3_gives_spider(self):
        spider_221 = tree(6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
        assert trees_isomorphic(rooted_product_k2(path_tree(3)), spider_221)

    def test_caterpillar_small(self):
        assert elongated_caterpillar(1) == path_tree(2)
        assert trees_isomorphic(elongated_caterpillar(2), path_tree(4))
        assert trees_isomorphic(elongated_caterpillar(3),
                                rooted_product_k2(path_tree(3)))

    def test_pendants_are_the_matching(self):
        base = SPIDER
        t = rooted_product_k2(base)
        assert perfect_matching(t) == frozenset(
            edge(i, base.n + i) for i in range(base.n))
