import pytest

from conftest import labeled_trees
from invtrees.enumeration import (classes_to_json, enumerate_invertible,
                                  enumerate_trees)
from invtrees.errors import BoundExceeded, OddOrder
from invtrees.trees import (canonical_code, path_tree, perfect_matching,
                            tree, trees_isomorphic, elongated_caterpillar)

# unlabeled trees on 1..10 vertices
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]

# invertible classes on 2, 4, ..., 12 vertices; frozen after exhaustive
# generation, independently confirmed by a networkx matching sweep
INVERTIBLE_COUNTS = {2: 1, 4: 1, 6: 2, 8: 5, 10: 15, 12: 49}


@pytest.mark.parametrize("n,count", list(enumerate(TREE_COUNTS, start=1)))
def test_known_tree_counts(n, count):
    assert len(enumerate_trees(n)) == count


@pytest.mark.parametrize("n", [4, 6, 7])
def test_matches_prufer_enumeration(n):
    mine = set(enumerate_trees(n))
    brute = {canonical_code(t) for t in labeled_trees(n)}
    assert mine == brute


@pytest.mark.parametrize("n", range(1, 13))
def test_matches_networkx_free_trees(n):
    import networkx as nx
    oracle = {canonical_code(tree(n, g.edges()))
              for g in nx.nonisomorphic_trees(n)}
    assert set(enumerate_trees(n)) == oracle


@pytest.mark.parametrize("two_n", range(2, 13, 2))
def test_invertible_is_matched_subset(two_n):
    matched = {code: t.sorted_edges()
               for code, t in enumerate_trees(two_n).items()
               if perfect_matching(t) is not None}
    got = {code: t.sorted_edges()
           for code, t in enumerate_invertible(two_n).items()}
    assert list(got.items()) == list(matched.items())


@pytest.mark.parametrize("two_n,count", [(14, 180), (16, 701)])
def test_invertible_counts_beyond_fixture(two_n, count):
    assert len(enumerate_invertible(two_n, bound=16)) == count


def chain(k: int) -> bytes:
    return b"(" * k + b")" * k


def test_canonical_code_of_deep_path():
    # rooted at either centre: the 1500-vertex half sorts first
    assert canonical_code(path_tree(3000)) == (
        b"(" + chain(1500) + chain(1499) + b")")


def test_four_vertices_by_inspection():
    classes = list(enumerate_trees(4).values())
    assert len(classes) == 2
    degs = sorted(sorted(t.degree(v) for v in range(4)) for t in classes)
    assert degs == [[1, 1, 1, 3], [1, 1, 2, 2]]  # star and path


def test_codes_are_keys():
    for code, t in enumerate_trees(8).items():
        assert canonical_code(t) == code


@pytest.mark.parametrize("two_n,count", sorted(INVERTIBLE_COUNTS.items()))
def test_invertible_counts(two_n, count):
    classes = enumerate_invertible(two_n)
    assert len(classes) == count
    for t in classes.values():
        assert t.n % 2 == 0
        assert perfect_matching(t) is not None


def test_small_invertible_classes():
    only2 = list(enumerate_invertible(2).values())
    assert trees_isomorphic(only2[0], path_tree(2))
    only4 = list(enumerate_invertible(4).values())
    assert trees_isomorphic(only4[0], path_tree(4))
    six = list(enumerate_invertible(6).values())
    codes = {canonical_code(t) for t in six}
    assert codes == {canonical_code(path_tree(6)),
                     canonical_code(elongated_caterpillar(3))}


def test_odd_order_rejected():
    with pytest.raises(OddOrder):
        enumerate_invertible(7)


def test_bound_enforced():
    with pytest.raises(BoundExceeded):
        enumerate_trees(15)
    assert len(enumerate_trees(15, bound=15)) == 7741


def test_json_export_deterministic():
    a = classes_to_json(enumerate_trees(6))
    b = classes_to_json(enumerate_trees(6))
    assert a == b and '"n": 6' in a
