"""The invtrees benchmark.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 bench/run.py --probe

Run from the root of a checkout; the program is imported from `src/`.
Every timed job runs in a fresh interpreter (bench/worker.py), one after
another on one thread (a closed loop).  With --trace 0 a run repeats the
workload's job while the timed seconds stay within --seconds (at least
once) and reports medians, its times scaled to a reference host speed
(see Gauge); with --trace 1 it runs the job four times, untraced and
traced in turn, reports the per-layer table of the first traced job and
the tracing overhead, and fails if the exact counts of the two traced
jobs differ.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0
only when every output was correct.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-sweep", "census-14", "poset-14", "spectrum-large")
SETUP_RUNS = 7  # set-up-only start-ups per run, on top of one per job
DEADLINE_S = 170  # a run must end within 180 s
PROBE_SIZES = (300, 1200)
PROBE_CAP_S = 10  # time cap per probe tree
GAUGE_INTERVAL_S = 0.25
GAUGE_REF_S = 0.0025  # gauge_work's time at the reference host speed
# When the host slows, the jobs, which partly wait on memory, slow less
# than the gauge: over four sets of runs their times moved as the gauge
# time to a power of 0.6-0.9 (bench/README.md).
GAUGE_EXPONENT = 0.75


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """Spawns workers for one workload and enforces the run deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.started = monotonic()
        self.errors: list[str] = []

    def spawn(self, mode: str, full_check: bool = False) -> dict | None:
        left = self.time_left()
        if left < 1:
            self.errors.append(f"{mode}: run deadline reached")
            return None
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if full_check:
            cmd.append("--full-check")
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("INVTREE_MAX_VERTICES", None)
        spawned = monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                                  capture_output=True, timeout=left)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode}: capped after {left:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"{mode}: worker exited {proc.returncode}: "
                               f"{tail[0]}")
            return None
        try:
            result = json.loads(lines[-1])
        except ValueError:
            self.errors.append(f"{mode}: worker printed no result")
            return None
        result["setup_s"] = result["ready"] - spawned
        result["elapsed_s"] = monotonic() - spawned
        return result

    def time_left(self) -> float:
        return DEADLINE_S - (monotonic() - self.started)


def gauge_work() -> int:
    """A fixed piece of pure-Python work (tuples, a dict, integer
    arithmetic) whose time follows the host's speed."""
    table, acc = {}, 0
    for i in range(5000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i
        acc ^= hash(key)
    return acc


class Gauge:
    """Times gauge_work every GAUGE_INTERVAL_S seconds on a thread of
    the parent while the workers run (about 1% of one CPU).  The host's
    speed drifts by tens of percent over minutes; timings multiplied by
    `scale()` are seconds at the reference speed, so that runs made at
    different times compare."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop)

    def __enter__(self) -> "Gauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while True:
            t0 = monotonic()
            gauge_work()
            self.samples.append((t0, monotonic() - t0))
            if self._stop.wait(GAUGE_INTERVAL_S):
                return

    def median(self, start: float = -math.inf,
               end: float = math.inf) -> float:
        """Median gauge time between two monotonic times, or over the
        whole run where fewer than three samples fall between them."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < 3:
            inside = [s for _, s in self.samples]
        return statistics.median(inside)

    def scale(self, start: float = -math.inf,
              end: float = math.inf) -> float:
        return (GAUGE_REF_S / self.median(start, end)) ** GAUGE_EXPONENT


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it (nearest
    rank), as (percentile, value, samples beyond); None when that
    percentile would not lie above the median (20 samples or fewer)."""
    xs = sorted(samples)
    rank = len(xs) - 10
    if rank <= len(xs) / 2:
        return None
    return 100 * rank / len(xs), xs[rank - 1], len(xs) - rank


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(seed: int) -> dict:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(), "seed": seed}


def samples(record: dict) -> dict:
    """Sample count per metric and the tail percentile used."""
    info = record["info"]
    if "setup_samples" not in record:  # traced: one job per table
        return {"samples": {"layers": 1, "traced_wall_s": 2,
                            "untraced_wall_s": 2}}
    return {"samples": {"wall_s": record["jobs"],
                        "peak_rss_mib": record["jobs"],
                        "setup_s": record["setup_samples"],
                        "gauge": info.get("gauge_samples", 0),
                        "items": info.get("item_samples", 0)},
            "tail_percentile": info.get("item_tail_percentile")}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics as medians over jobs, the times
    scaled to the reference host speed."""
    run = Run(workload, seed)
    jobs: list[dict] = []
    with Gauge() as gauge:
        setups = [r for r in (run.spawn("setup") for _ in range(SETUP_RUNS))
                  if r]
        while True:
            res = run.spawn("job", full_check=not jobs)
            if res is None:
                break
            jobs.append(res)
            timed = sum(j["wall_s"] for j in jobs)
            if (timed + res["wall_s"] > seconds
                    or run.time_left() < 1.5 * res["elapsed_s"]):
                break
    items = [x for j in jobs for x in j["items_ms"]]
    record = {"workload": workload, "jobs": len(jobs),
              "setup_samples": len(setups) + len(jobs), "metrics": {},
              "info": {}}
    record.update(_outcome(run, jobs))
    if not jobs:
        return record
    wall = statistics.median(j["wall_s"] for j in jobs)
    setup = statistics.median(r["setup_s"] for r in setups + jobs)
    scaled_wall = statistics.median(
        j["wall_s"] * gauge.scale(j["ready"], j["ready"] + j["wall_s"])
        for j in jobs)
    record["metrics"] = {
        "wall_s": metric(scaled_wall, "s"),
        "setup_s": metric(setup * gauge.scale(), "s"),
        "peak_rss_mib": metric(statistics.median(
            j["rss_kib"] / 1024 for j in jobs), "MiB"),
    }
    info = record["info"]
    info["gauge_samples"] = len(gauge.samples)
    info["gauge_ms"] = gauge.median() * 1e3
    info["raw_wall_s"], info["raw_setup_s"] = wall, setup
    info["wall_samples_s"] = [j["wall_s"] for j in jobs]
    info["fail_ratio"] = record["failed"] / record["attempted"]
    if items:
        info["item_samples"] = len(items)
        info["item_p50_ms"] = statistics.median(items)
        tail = tail_percentile(items)
        if tail:
            info["item_tail_percentile"], info["item_tail_ms"], \
                info["item_tail_beyond"] = tail
    return record


def _outcome(run: Run, results: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in results) + len(run.errors)
    failed = sum(r["failed"] for r in results) + len(run.errors)
    messages = run.errors + [f for r in results for f in r["failures"]]
    return {"attempted": max(attempted, 1), "failed": failed,
            "correct": failed == 0 and bool(results),
            "failures": messages}


def exact_counts(layers: dict) -> dict:
    """Every per-layer value that must repeat exactly for one seed."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def trace(workload: str, seed: int) -> dict:
    """Traced run: per-layer table plus tracing overhead, the median of two
    traced jobs minus the median of two untraced jobs run between them."""
    run = Run(workload, seed)
    jobs = [run.spawn(mode, full_check=k == 0)
            for k, mode in enumerate(("job", "trace", "job", "trace"))]
    plain = [r for r in jobs[0::2] if r]
    traced = [r for r in jobs[1::2] if r]
    record = {"workload": workload, "jobs": len(plain) + len(traced),
              "metrics": {}, "info": {}}
    record.update(_outcome(run, plain + traced))
    if len(plain) != 2 or len(traced) != 2:
        return record
    first, second = (exact_counts(r["layers"]) for r in traced)
    mismatched = sorted(k for k in first if first[k] != second.get(k))
    if mismatched:
        record["correct"] = False
        record["failed"] += 1
        record["failures"].append(f"counts differ between identical traced "
                                  f"runs: {mismatched}")
    layers = dict(traced[0]["layers"])
    untraced_s = statistics.median(r["wall_s"] for r in plain)
    traced_s = statistics.median(r["wall_s"] for r in traced)
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.untraced_wall_s"] = untraced_s
    layers["trace.traced_wall_s"] = traced_s
    record["metrics"] = {k: metric(v, _unit(k)) for k, v in layers.items()}
    return record


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def print_record(record: dict, trace_mode: bool) -> None:
    print(f"== {record['workload']}  jobs={record['jobs']}  "
          f"correct={record['correct']}  "
          f"failed/attempted={record['failed']}/{record['attempted']}")
    for msg in record["failures"][:20]:
        print(f"   FAIL {msg}")
    m = record["metrics"]
    if trace_mode:
        for name in sorted(m):
            v = m[name]["value"]
            if v:
                shown = f"{v:.6f}" if isinstance(v, float) else str(v)
                print(f"   {name:<46} {shown:>14} {m[name]['unit']}")
        for what in ("spectral.median_root", "inverse.inverse_graph"):
            if f"{what}.calls" in m:
                print(f"   {what}.distinct_ratio = "
                      f"{m[f'{what}.distinct']['value']}/"
                      f"{m[f'{what}.calls']['value']}")
        if "enumeration.classes" in m:
            print(f"   enumeration.dedup_ratio = "
                  f"{m['enumeration.classes']['value']}/"
                  f"{m['enumeration.canonical_codes']['value']}")
        return
    info = record["info"]
    for name, v in m.items():
        print(f"   {name:<14} {v['value']:.6f} {v['unit']}")
    if "wall_samples_s" in info:
        print(f"   unscaled       wall_s {info['raw_wall_s']:.6f} s, "
              f"setup_s {info['raw_setup_s']:.6f} s; gauge "
              f"{info['gauge_ms']:.3f} ms (reference {GAUGE_REF_S * 1e3:g} "
              f"ms, {info['gauge_samples']} samples)")
        print("   jobs wall_s   " + " ".join(f"{w:.3f}"
                                          for w in info["wall_samples_s"]))
    if "item_p50_ms" in info:
        print(f"   item_p50_ms    {info['item_p50_ms']:.6f} ms  "
              f"({info['item_samples']} items)")
    if "item_tail_ms" in info:
        print(f"   item_tail_ms   {info['item_tail_ms']:.6f} ms  "
              f"(p{info['item_tail_percentile']:.1f}, "
              f"{info['item_tail_beyond']} items beyond)")
    elif "item_p50_ms" in info:
        print("   item_tail_ms   none: a tail above the median with ten "
              "items beyond needs more than 20 items")
    if "fail_ratio" in info:
        print(f"   fail_ratio     {info['fail_ratio']:.6f}")


def probe() -> int:
    """spectrum --median on long paths under a time cap; outside every
    timed workload and every metric."""
    workdir = ROOT / ".bench_work" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    results = {}
    try:
        for n in PROBE_SIZES:
            path = workdir / f"path-{n}.elist"
            path.write_text("\n".join([str(n)] + [f"{i} {i + 1}"
                                                  for i in range(n - 1)])
                            + "\n")
            cmd = [sys.executable, "-m", "invtrees.cli", "spectrum",
                   str(path), "--median"]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                                      capture_output=True,
                                      timeout=PROBE_CAP_S)
            except subprocess.TimeoutExpired:
                status = "capped"
            else:
                want = 2 * math.cos(math.pi * (n // 2) / (n + 1))
                try:
                    ok = (proc.returncode == 0
                          and abs(float(proc.stdout) - want) < 1e-6)
                except ValueError:
                    ok = False
                status = "ok" if ok else "error"
            seconds = time.perf_counter() - t0
            results[f"path-{n}"] = {"status": status, "seconds": seconds}
            print(f"probe path-{n}: {status} after {seconds:.2f} s "
                  f"(cap {PROBE_CAP_S} s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"probe": results, "cap_s": PROBE_CAP_S,
                      **provenance(0)}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="The invtrees benchmark; see bench/README.md.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="run the capped deep-tree probe instead")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "invtrees" / "__init__.py").is_file():
        print(f"error: no invtrees sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.probe:
        return probe()
    if args.workload is None:
        ap.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = (trace(name, args.seed) if args.trace
                  else measure(name, args.seed, args.seconds))
        record["provenance"] = provenance(args.seed)
        record["provenance"].update(samples(record))
        print_record(record, bool(args.trace))
        print(f"   provenance {json.dumps(record['provenance'])}")
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
