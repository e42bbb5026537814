"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import enumeration, inverse, poset, spectral, trees
from .errors import (BoundExceeded, InvalidMove, InvTreeError, NotInvertible,
                     ParseError)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BOUND = 3


def _load_tree(path: str) -> trees.Tree:
    return trees.parse_tree(Path(path).read_text())


def cmd_enumerate(args) -> int:
    n = args.vertices
    if args.invertible_only:
        classes = enumeration.enumerate_invertible(n, args.bound)
    else:
        classes = enumeration.enumerate_trees(n, args.bound)
    if args.out:
        out = Path(args.out)
        if args.json:
            out.write_text(enumeration.classes_to_json(classes))
        else:
            out.mkdir(parents=True, exist_ok=True)
            for i, (_, t) in enumerate(sorted(classes.items())):
                (out / f"tree_{n}_{i:04d}.elist").write_text(
                    trees.format_tree(t))
        print(len(classes))
    elif args.json:
        print(enumeration.classes_to_json(classes))
        print(len(classes), file=sys.stderr)
    else:
        print(len(classes))
    return EXIT_OK


def cmd_invert(args) -> int:
    t = _load_tree(args.tree)
    sg = inverse.inverse_signed_graph(t)
    m = trees.perfect_matching(t)
    image = frozenset(e for e, s in inverse.signed_tree_image(t, m).signs)
    if args.format == "json":
        if args.signed:
            print(inverse.signed_graph_to_json(sg))
        else:
            g = inverse.underlying_graph(sg)
            print(json.dumps({"n": g.n, "edges": g.sorted_edges()}))
    elif args.format == "dot":
        print(inverse.signed_graph_to_dot(sg, matching=image if args.signed
                                          else None), end="")
    else:
        g = inverse.underlying_graph(sg)
        print(g.n)
        sign_map = sg.sign_map()
        for u, v in g.sorted_edges():
            if args.signed:
                print(f"{u} {v} {sign_map[(u, v)]:+d}")
            else:
                print(f"{u} {v}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    t = _load_tree(args.tree)
    if args.median and not args.json:
        print(f"{spectral.median_eigenvalue(t, args.tol):.7f}")
        return EXIT_OK
    values = spectral.spectrum(t, args.tol).values
    if args.json:
        median = values[t.n // 2] if t.n % 2 == 0 else None
        print(json.dumps({"values": values, "median": median,
                          "tol": args.tol}))
    else:
        for v in values:
            print(f"{v:.7f}")
    return EXIT_OK


def _parse_pair(text: str, t: trees.Tree) -> tuple[int, int]:
    """The vertex pair "u,v" of t, as a sorted edge."""
    try:
        u, v = (int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"expected two vertices u,v, got {text!r}")
    if not (0 <= u < t.n and 0 <= v < t.n):
        raise ParseError(f"vertex out of range 0..{t.n - 1} in {text!r}")
    return trees.edge(u, v)


def cmd_exchange(args) -> int:
    t = _load_tree(args.tree)
    m = trees.perfect_matching(t)
    if m is None:
        raise NotInvertible("no perfect matching")
    phi = trees.involution(t, m)
    q = _parse_pair(args.add, t)
    q_phi = trees.edge(phi[q[0]], phi[q[1]])
    inv_edges = inverse.inverse_graph(t).edges
    # accept either the inverse-graph edge e or its image phi(e);
    # prefer reading the argument as the edge actually added
    if q_phi in inv_edges and q not in t.edges:
        add, source = q, q_phi
    elif q in inv_edges and q_phi not in t.edges:
        add, source = q_phi, q
    else:
        raise InvalidMove(
            f"{q} is neither a usable inverse-graph edge nor the image "
            "of one")
    move = poset.ExchangeMove(add=add, remove=_parse_pair(args.remove, t),
                              source_inverse_edge=source)
    result = poset.tree_exchange(t, move)
    print(trees.format_tree(result), end="")
    return EXIT_OK


def cmd_poset(args) -> int:
    p = poset.build_poset(args.n, args.bound)
    if args.format == "dot":
        print(poset.poset_to_dot(p), end="")
    else:
        print(poset.poset_to_json(p))
    return EXIT_OK


def cmd_verify(args) -> int:
    failures = []
    checked = 0
    for n in range(1, args.max_n + 1):
        classes = enumeration.enumerate_invertible(2 * n, args.bound)
        for code, t in sorted(classes.items()):
            checked += 1
            label = f"2n={2 * n} class={code.decode()}"
            report = inverse.verify_godsil(t)
            if not report.passed:
                failures.append(f"{label} godsil {report.first_failure}")
            # an edge at tree distance 2m-1 lies in m-1 negative cuts
            dist = [trees.distances(t, a) for a in range(t.n)]
            for (u, v), count in inverse.negative_cut_counts(t).items():
                if count != (dist[u][v] - 1) // 2:
                    failures.append(
                        f"{label} negative-cut count at {(u, v)}")
            for move in poset.exchange_candidates(t):
                rep = poset.verify_exchange_lemma(t, move)
                if not rep.passed:
                    failures.append(
                        f"{label} exchange {move} {rep.first_failure}")
            if poset.is_self_inverse(t) != poset.is_rooted_product_k2(t)[0]:
                failures.append(f"{label} self-inverse/rooted-product "
                                "classifications disagree")
            if max(t.degree(v) for v in range(t.n)) >= 3:
                t_prime, move = poset.witness_non_minimal(t)
                back = poset.tree_exchange(t_prime, move)
                if not trees.trees_isomorphic(back, t):
                    failures.append(f"{label} witness round-trip failed")
        # extremal characterization at this order
        p = poset.build_poset(n, args.bound)
        maxima = {p.nodes[i].code for i in poset.maximal_elements(p)}
        selfinv = {c for c, t in classes.items() if poset.is_self_inverse(t)}
        if maxima != selfinv:
            failures.append(f"2n={2 * n} maximal != self-inverse")
        minima = {p.nodes[i].code for i in poset.minimal_elements(p)}
        path_code = trees.canonical_code(trees.path_tree(2 * n))
        if minima != {path_code}:
            failures.append(f"2n={2 * n} minimal elements are not the path")
    print(f"checked {checked} classes up to 2n={2 * args.max_n}")
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return EXIT_VERIFY_FAILED
    print("all checks passed")
    return EXIT_OK


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invtree",
        description="Inverses of trees with perfect matchings.")
    parser.add_argument("--bound", type=int,
                        help="max vertex count for enumeration (default: "
                             f"env {enumeration.ENV_BOUND} or "
                             f"{enumeration.DEFAULT_BOUND})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list tree classes")
    p.add_argument("--vertices", type=_positive_int, required=True)
    p.add_argument("--invertible-only", action="store_true")
    p.add_argument("--out", help="directory for .elist files or JSON path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("invert", help="inverse graph of a tree")
    p.add_argument("tree", help="path to .elist file")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--format", choices=("elist", "dot", "json"),
                   default="elist")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("spectrum", help="certified eigenvalues")
    p.add_argument("tree")
    p.add_argument("--median", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tol", type=_positive_float,
                   default=spectral.DEFAULT_TOL)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("exchange", help="apply one tree-exchange move")
    p.add_argument("tree")
    p.add_argument("--add", required=True, metavar="u,v",
                   help="inverse-graph edge e or its image phi(e)")
    p.add_argument("--remove", required=True, metavar="x,y")
    p.set_defaults(func=cmd_exchange)

    p = sub.add_parser("poset", help="Hasse diagram of the exchange order")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="half the vertex count")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("verify", help="machine-check every lemma")
    p.add_argument("--max-n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (InvTreeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
