"""Inverses of trees with perfect matchings: exact inverse graphs,
signed-graph switching, tree-exchange and the induced partial order."""

from .enumeration import enumerate_invertible, enumerate_trees
from .errors import (BoundExceeded, EdgeAlreadyPresent, InvalidMove,
                     InvTreeError, NotATree, NotInvertible, NotPerfect,
                     NotSpanningTreeEdge, OddOrder, ParseError, SameVertex,
                     Singular)
from .inverse import (Cut, Graph, Report, SignedGraph,
                      adjacency_matrix, char_poly, exact_inverse,
                      fundamental_cut, inverse_entry, inverse_graph,
                      inverse_signed_graph, is_identity, matmul,
                      negative_cut_count, negative_cut_counts,
                      negative_fundamental_cuts,
                      signed_graph_to_dot, signed_graph_to_json,
                      signed_tree_image, switch, underlying_graph,
                      verify_godsil)
from .poset import (ExchangeMove, HassePoset, build_poset,
                    exchange_candidates, fundamental_cycle,
                    is_rooted_product_k2, is_self_inverse,
                    maximal_elements, minimal_elements, mobius_function,
                    poset_to_dot, poset_to_json, tree_exchange,
                    verify_exchange_lemma, witness_non_minimal)
from .spectral import (Spectrum, TreeEigenvalue, caterpillar_median_bound,
                       compare_medians, inertia, median_eigenvalue,
                       median_root, path_eigenvalues,
                       rooted_product_char_poly, rooted_product_spectrum,
                       spectrum)
from .trees import (Matching, Tree, apply_involution, canonical_code,
                    elongated_caterpillar, format_tree, involution,
                    is_alternating, parse_tree, path_tree,
                    perfect_matching, rooted_product_k2, star_tree, tree,
                    tree_path, trees_isomorphic)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
