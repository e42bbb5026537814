"""The four benchmark workloads and their correctness gates.

Each workload has `prepare(seed, workdir)`, run before the timer starts
(set-up), which returns the timed job as a zero-argument callable, and
`check(outcome, full)`, run after the timer stops, which returns
`(attempted, failures)`.  Jobs reach invtrees only through its public
functions and `cli.main`, looked up at call time so that a traced run
sees its wrappers.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

from invtrees import cli, enumeration, inverse, poset, trees

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "spectrum_pool.json"
TOL = 1e-9

# invertible classes at 2n = 2, 4, ..., 14 and free trees at 14 (OEIS
# A000055); edges are the non-spanning inverse-graph edges at 14
CENSUS_CLASSES = {2: 1, 4: 1, 6: 2, 8: 5, 10: 15, 12: 49, 14: 180}
CENSUS_FREE_TREES_14 = 3159
CENSUS_EDGES_14 = 862
POSET_NODES, POSET_COVERS = 180, 573


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# verify-sweep: the users' main job


def prepare_verify(seed: int, workdir: Path):
    def job():
        rc, out = _quiet_main(["verify", "--max-n", "5"])
        return {"rc": rc, "out": out, "items_ms": []}
    return job


def check_verify(outcome: dict, full: bool):
    failures = []
    if outcome["rc"] != 0:
        failures.append(f"verify exited {outcome['rc']}")
    for line in ("checked 24 classes up to 2n=10", "all checks passed"):
        if line not in outcome["out"].splitlines():
            failures.append(f"verify output lacks {line!r}")
    return 1, failures


# ---------------------------------------------------------------------------
# census-14: enumeration plus the combinatorial inverse, no eigenvalues


def _census_item(t) -> tuple[bool, int, int]:
    """One class through all its checks: (Godsil clauses pass, non-spanning
    inverse edges, edges whose negative-cut count is not m - 1)."""
    passed = inverse.verify_godsil(t).passed
    m = trees.perfect_matching(t)
    phi_t = trees.apply_involution(t, trees.involution(t, m))
    edges = wrong = 0
    for e in inverse.inverse_graph(t).sorted_edges():
        if e in phi_t.edges:
            continue
        edges += 1
        m_half = len(trees.tree_path(t, e[0], e[1])) // 2
        if inverse.negative_cut_count(t, e) != m_half - 1:
            wrong += 1
    return passed, edges, wrong


def prepare_census(seed: int, workdir: Path):
    rng = random.Random(seed)

    def job():
        counts = {}
        for two_n in CENSUS_CLASSES:
            classes = enumeration.enumerate_invertible(two_n)
            counts[two_n] = len(classes)
        items = sorted(classes.items())  # the classes at 2n = 14
        rng.shuffle(items)
        results, items_ms = [], []
        for code, t in items:
            t0 = time.perf_counter()
            try:
                results.append((code, _census_item(t)))
            except Exception as exc:  # counted as a failed item
                results.append((code, repr(exc)))
            items_ms.append(_ms_since(t0))
        return {"counts": counts, "results": results, "items_ms": items_ms}
    return job


def check_census(outcome: dict, full: bool):
    failures = []
    if outcome["counts"] != CENSUS_CLASSES:
        failures.append(f"class counts {outcome['counts']}")
    edges = 0
    for code, res in outcome["results"]:
        if isinstance(res, str):
            failures.append(f"class {code.decode()} raised {res}")
            continue
        passed, n_edges, wrong = res
        edges += n_edges
        if not passed or wrong:
            failures.append(f"class {code.decode()}: godsil={passed} "
                            f"wrong cut counts={wrong}")
    if edges != CENSUS_EDGES_14:
        failures.append(f"{edges} non-spanning edges, "
                        f"expected {CENSUS_EDGES_14}")
    attempted = 1 + len(outcome["results"])
    if full:  # free-tree count, once per run and outside the timer
        attempted += 1
        free = len(enumeration.enumerate_trees(14))
        if free != CENSUS_FREE_TREES_14:
            failures.append(f"{free} free trees at 14")
    return attempted, failures


# ---------------------------------------------------------------------------
# poset-14: closure, reduction and Mobius at N = 180


def prepare_poset(seed: int, workdir: Path):
    def job():
        p = poset.build_poset(7)
        mu = poset.mobius_function(p)
        text = poset.poset_to_json(p)
        return {"poset": p, "mu": mu, "json": text, "items_ms": []}
    return job


def check_poset(outcome: dict, full: bool):
    p, mu = outcome["poset"], outcome["mu"]
    failures = []
    if (len(p.nodes), len(p.covers)) != (POSET_NODES, POSET_COVERS):
        failures.append(f"{len(p.nodes)} nodes, {len(p.covers)} covers")
    maxima = {p.nodes[i].code for i in poset.maximal_elements(p)}
    self_inverse = {node.code for node in p.nodes
                    if poset.is_self_inverse(node.representative)}
    if maxima != self_inverse:
        failures.append("maximal elements differ from self-inverse classes")
    minima = {p.nodes[i].code for i in poset.minimal_elements(p)}
    if minima != {trees.canonical_code(trees.path_tree(14))}:
        failures.append("the path is not the unique minimum")
    if any(mu.get(c) != -1 for c in p.covers):
        failures.append("Mobius value of a cover is not -1")
    doc = json.loads(outcome["json"])
    if (len(doc["nodes"]), len(doc["covers"])) != (POSET_NODES,
                                                   POSET_COVERS):
        failures.append("poset JSON disagrees with the poset")
    return 1, failures


# ---------------------------------------------------------------------------
# spectrum-large: certified spectra above degree 14


def prepare_spectrum(seed: int, workdir: Path):
    """The seed draws a vertex labelling of every pool tree and the order
    they run in; spectra do not depend on labels, so one reference file
    holds for every seed."""
    rng = random.Random(seed)
    entries = json.loads(POOL_FILE.read_text())["trees"]
    rng.shuffle(entries)
    workdir.mkdir(parents=True, exist_ok=True)
    files = []
    for k, entry in enumerate(entries):
        perm = list(range(entry["n"]))
        rng.shuffle(perm)
        t = trees.tree(entry["n"],
                       [(perm[u], perm[v]) for u, v in entry["edges"]])
        path = workdir / f"{k:02d}-{entry['name']}.elist"
        path.write_text(trees.format_tree(t))
        files.append((str(path), entry))

    def job():
        results, items_ms = [], []
        for path, entry in files:
            t0 = time.perf_counter()
            try:
                results.append((entry, _quiet_main(["spectrum", path,
                                                    "--json"])))
            except Exception as exc:  # counted as a failed item
                results.append((entry, repr(exc)))
            items_ms.append(_ms_since(t0))
        return {"results": results, "items_ms": items_ms}
    return job


def path_eigenvalues(n: int) -> list[float]:
    """2 cos(pi j / (n + 1)), j = 1..n, ascending."""
    return sorted(2 * math.cos(math.pi * j / (n + 1))
                  for j in range(1, n + 1))


def _close(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        abs(a - b) <= TOL for a, b in zip(sorted(got), want))


def check_spectrum(outcome: dict, full: bool):
    failures = []
    for entry, res in outcome["results"]:
        name = entry["name"]
        if isinstance(res, str):
            failures.append(f"{name} raised {res}")
            continue
        rc, out = res
        if rc != 0:
            failures.append(f"{name}: spectrum exited {rc}")
            continue
        try:
            doc = json.loads(out)
        except ValueError:
            failures.append(f"{name}: output is not JSON")
            continue
        ok = (_close(doc["values"], entry["eigenvalues"])
              and abs(doc["median"] - entry["median"]) <= TOL)
        if entry["family"] == "path":
            ok = ok and _close(doc["values"], path_eigenvalues(entry["n"]))
        if not ok:
            failures.append(f"{name}: spectrum differs from the reference")
    return len(outcome["results"]), failures


WORKLOADS = {
    "verify-sweep": (prepare_verify, check_verify),
    "census-14": (prepare_census, check_census),
    "poset-14": (prepare_poset, check_poset),
    "spectrum-large": (prepare_spectrum, check_spectrum),
}
