"""One benchmark job in a fresh interpreter, so program caches start cold.

    python3 bench/worker.py --workload NAME --seed N --mode job|setup|trace

It imports invtrees from the checkout's `src/`, prepares the workload's
inputs, and (unless --mode setup) runs the timed job once, checks its
outputs and prints one JSON line.  `ready` is the CLOCK_MONOTONIC time
just before the first timed call; the parent subtracts its own spawn
time from it to get the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import invtrees
    if not Path(invtrees.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"invtrees imported from {invtrees.__file__}, "
                          f"not from {SRC}")


def layer_metrics(tracer) -> dict:
    """The per-layer table: calls and self time per traced function, plus
    the ratios and cache sizes measured at the same boundaries."""
    from invtrees import inverse, trees

    metrics = {}
    for name, row in tracer.table().items():
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.self_s"] = row["self_s"]
    medians = tracer.args["spectral.median_root"]
    distinct = len({trees.canonical_code(t) for t in set(medians)})
    metrics["spectral.median_root.distinct"] = distinct
    metrics["spectral.median_root.distinct_ratio"] = (
        distinct / len(medians) if medians else 0.0)
    graphs = tracer.args["inverse.inverse_graph"]
    metrics["inverse.inverse_graph.distinct"] = len(set(graphs))
    metrics["inverse.inverse_graph.distinct_ratio"] = (
        len(set(graphs)) / len(graphs) if graphs else 0.0)
    metrics["inverse.charpoly_cache.entries"] = len(
        getattr(inverse, "_CHARPOLY_CACHE", ()))
    adjacency = getattr(trees, "_adjacency", None)
    metrics["trees.adjacency_cache.entries"] = (
        adjacency.cache_info().currsize
        if hasattr(adjacency, "cache_info") else 0)
    classes = tracer.lengths["enumeration.enumerate_trees"]
    codes = tracer.child_calls("enumeration.enumerate_trees",
                               "trees.canonical_code")
    metrics["enumeration.classes"] = classes
    metrics["enumeration.canonical_codes"] = codes
    metrics["enumeration.dedup_ratio"] = classes / codes if codes else 0.0
    metrics["poset.exchange_candidates.moves"] = tracer.lengths[
        "poset.exchange_candidates"]
    metrics["trace.spans"] = len(tracer.start)
    return metrics


def run(workload: str, seed: int, mode: str, full: bool) -> dict:
    import tracer as tracing
    import workloads

    prepare, check = workloads.WORKLOADS[workload]
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        job = prepare(seed, workdir)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        if mode == "setup":
            return {"ready": ready}
        tracer = None
        if mode == "trace":
            tracer = tracing.Tracer(f"{workload}-{seed}-{os.getpid()}")
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcome, error = job(), None
        except Exception as exc:  # the whole job failed: one failure
            outcome, error = None, repr(exc)
        wall = time.perf_counter() - t0
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            attempted, failures = check(outcome, full)
            items_ms = outcome["items_ms"]
        else:
            attempted, failures, items_ms = 1, [error], []
        leaks = tracing.leaked_wrappers()
        if leaks:
            failures.append(f"tracer wrappers left behind: {leaks}")
        result = {"ready": ready, "wall_s": wall, "rss_kib": rss_kib,
                  "items_ms": items_ms, "attempted": attempted,
                  "failed": min(len(failures), attempted),
                  "failures": failures}
        if tracer is not None:
            result["layers"] = layer_metrics(tracer)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker's files are still there
            pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("job", "setup", "trace"),
                    required=True)
    ap.add_argument("--full-check", action="store_true",
                    help="also run the once-per-run checks")
    args = ap.parse_args()
    _import_package()
    print(json.dumps(run(args.workload, args.seed, args.mode,
                         args.full_check)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
