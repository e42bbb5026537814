"""Invert a tree combinatorially and check it against exact linear algebra.

A tree has an invertible adjacency matrix exactly when it has a perfect
matching, and the inverse is again a (0, +-1) matrix: the signed
adjacency matrix of the "inverse graph".  This script builds that graph
edge by edge from alternating paths and compares it with the exact
integer matrix inverse.
"""

from invtrees import (adjacency_matrix, exact_inverse, inverse_entry,
                      inverse_signed_graph, path_tree, perfect_matching,
                      tree_path)

t = path_tree(6)
m = perfect_matching(t)
print(f"P6 edges: {t.sorted_edges()}")
print(f"perfect matching (unique in a tree): {sorted(m)}")

print("\nEntries of A(T)^-1 from alternating paths:")
for u in range(t.n):
    for v in range(u + 1, t.n):
        entry = inverse_entry(t, m, u, v)
        if entry:
            path = tree_path(t, u, v)
            print(f"  ({u},{v}) = {entry:+d}   path {path} "
                  f"({len(path)} vertices, alternates with the matching)")

sg = inverse_signed_graph(t)
print(f"\nsigned inverse graph: {dict(sg.signs)}")

inv = exact_inverse(t)
assert sg.matrix() == inv
a = adjacency_matrix(t)
print("matches the exact fraction-free matrix inverse, and "
      "A * A^-1 = I over the integers.")
assert all(sum(a[i][k] * inv[k][j] for k in range(6)) == (i == j)
           for i in range(6) for j in range(6))
