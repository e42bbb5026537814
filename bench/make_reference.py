"""Regenerate `spectrum_pool.json`: the tree shapes of the spectrum-large
workload and their reference spectra.

The shapes come from a fixed pool seed, so the file is reproducible.
Reference eigenvalues are computed independently of invtrees with
`numpy.linalg.eigvalsh` on the adjacency matrix.  numpy is needed only
here, never in a benchmark run.

    PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from invtrees import trees

POOL_SEED = 2018
SIZES = (16, 20)
RANDOM_PER_SIZE = 3
OUT = Path(__file__).resolve().parent / "spectrum_pool.json"


def random_recursive_tree(n: int, rng: random.Random) -> trees.Tree:
    return trees.tree(n, [(i, rng.randrange(i)) for i in range(1, n)])


def random_matched_tree(pairs: int, rng: random.Random) -> trees.Tree:
    """A random tree with a perfect matching: pair vertices (2i, 2i+1)
    joined along a random recursive tree on the pairs, each junction at a
    random end of each pair."""
    edges = [(2 * i, 2 * i + 1) for i in range(pairs)]
    for i in range(1, pairs):
        j = rng.randrange(i)
        edges.append((2 * i + rng.randrange(2), 2 * j + rng.randrange(2)))
    return trees.tree(2 * pairs, edges)


def pool(rng: random.Random) -> list[tuple[str, str, trees.Tree]]:
    """Per size a path, a caterpillar, a rooted product and random matched
    trees, no two of them isomorphic."""
    out = []
    seen = set()

    def fresh(draw):
        while True:
            t = draw()
            code = trees.canonical_code(t)
            if code not in seen:
                seen.add(code)
                return t

    for n in SIZES:
        out.append((f"path-{n}", "path", fresh(lambda: trees.path_tree(n))))
        out.append((f"caterpillar-{n}", "caterpillar",
                    fresh(lambda: trees.elongated_caterpillar(n // 2))))
        out.append((f"rooted-product-{n}", "rooted_product",
                    fresh(lambda: trees.rooted_product_k2(
                        random_recursive_tree(n // 2, rng)))))
        for k in range(RANDOM_PER_SIZE):
            out.append((f"random-{n}-{k}", "random",
                        fresh(lambda: random_matched_tree(n // 2, rng))))
    return out


def main() -> None:
    entries = []
    for name, family, t in pool(random.Random(POOL_SEED)):
        a = np.zeros((t.n, t.n))
        for u, v in t.edges:
            a[u, v] = a[v, u] = 1.0
        values = sorted(float(x) for x in np.linalg.eigvalsh(a))
        entries.append({"name": name, "family": family, "n": t.n,
                        "edges": t.sorted_edges(), "eigenvalues": values,
                        "median": values[t.n // 2]})
    OUT.write_text(json.dumps({"pool_seed": POOL_SEED, "trees": entries},
                              indent=1) + "\n")
    print(f"wrote {len(entries)} trees to {OUT.name}")


if __name__ == "__main__":
    main()
