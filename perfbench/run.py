"""pellsum benchmark: CLI jobs in a closed loop with one client.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout holding src/pellsum. Each job is one `pellsum ...
--format=structured` invocation in a fresh interpreter, drawn from the
pinned catalogue (catalog.json) by the seed; the next job starts when the
last has ended. Every job's output goes through the correctness gate in
checks.py, and a job that hits the workload's cap, exits unexpectedly or
writes wrong bytes counts as failed.

--trace 0 runs whole rounds until S seconds have passed and reports the
end-to-end metrics. --trace 1 runs a fixed number of rounds (S divided by
the workload's nominal round time), each job once plainly and once under
trace_child.py, and reports the per-layer metrics, the tracing overhead
among them. The last stdout line is the JSON result; the lines before it
give the full report, the environment included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

from checks import judge
from proc import SRC, child_env, run_job
from trace_child import LAYERS
from workloads import WORKLOADS, load_catalog, rounds

SETUP_RUNS = 7
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("cpu_s_per_job", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("answered_share", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# per-layer metric -> trace_child count it reads (None: derived below)
LAYER_COUNTS = {
    "pell.pell_data.calls": "pell.pell_data.calls",
    "pell.cf_period_sum": "pell.cf_period_sum",
    "normform.seed_window": "normform.seed_window",
    "normform.seeds": "normform.seeds",
    "normform.seed_yield": None,
    "normform.orbits": "normform.orbits",
    "normform.elements.pairs": "normform.elements.pairs",
    "search.index_entries": "search.index_entries",
    "search.pair_candidates": "search.pair_candidates",
    "search.pair_hits": "search.pair_hits",
    "search.pair_yield": None,
    "search.sunit_units": "search.sunit_units",
    "search.sunit_candidates": "search.sunit_candidates",
    "search.sunit_hits": "search.sunit_hits",
    "search.sunit_yield": None,
    "search.vanishing_candidates": "search.vanishing_candidates",
    "sunits.subsum_checks": "sunits.subsums_nonvanishing.calls",
    "recurrences.terms": "recurrences.terms",
    "recurrences.dependence.calls": "recurrences.roots_multiplicatively_independent.calls",
    "recurrences.dependence.distinct": "recurrences.dependence.distinct",
    "partitions.partitions": "partitions.set_partitions.items",
    "quadfield.squarefree_checks": "quadfield.is_squarefree.calls",
    "quadfield.new_calls": "quadfield.QuadNum.__post_init__.calls",
    "quadfield.mul_calls": "quadfield.QuadNum.__mul__.calls",
    "trace.timed_out_spans": None,
}
YIELDS = {
    "normform.seed_yield": ("normform.seeds", "normform.seed_window"),
    "search.pair_yield": ("search.pair_hits", "search.pair_candidates"),
    "search.sunit_yield": ("search.sunit_hits", "search.sunit_candidates"),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name in LAYER_COUNTS:
        units[name] = "ratio" if name in YIELDS else "count"
    units["trace.overhead_s"] = "s"
    return units


class SetupError(Exception):
    pass


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest value, and its percentile rank. The median below 21 samples."""
    if len(values) < 21:
        return 50.0, percentile(values, 50)
    p = 100 * (len(values) - 11) / (len(values) - 1)
    return p, sorted(values)[-11]


def measure_setup() -> float:
    """Median wall time of a fresh `pellsum --version` (import plus parser)."""
    times = []
    for i in range(SETUP_RUNS + 1):
        result = run_job(["--version"], 60.0)
        if result.rc != 0 or not result.stdout.startswith(b"pellsum "):
            raise SetupError(f"`pellsum --version` failed: {result.stderr.decode()[-500:]}")
        if i:  # the first run only warms the bytecode cache
            times.append(result.wall_s)
    return statistics.median(times)


def environment() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "from pellsum.search import resolve_shard_count; print(resolve_shard_count())"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    if probe.returncode != 0:
        raise SetupError(f"shard-count probe failed: {probe.stderr[-500:]}")
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "shards": int(probe.stdout),
    }


def run_end_to_end(workload: str, seed: int, seconds: int, catalog: dict) -> tuple[list, float]:
    cap = WORKLOADS[workload].cap_s
    jobs = []
    start = time.perf_counter()
    for drawn in rounds(workload, seed, catalog):
        for pool, entry in drawn:
            result = run_job(entry["argv"], cap)
            jobs.append((pool, entry, result, _reason(entry, result)))
        if time.perf_counter() - start >= seconds:
            return jobs, time.perf_counter() - start


def run_traced(workload: str, seed: int, seconds: int, catalog: dict) -> list:
    spec = WORKLOADS[workload]
    n_rounds = max(1, round(seconds / spec.round_s))
    jobs = []
    for _, drawn in zip(range(n_rounds), rounds(workload, seed, catalog)):
        for pool, entry in drawn:
            plain = run_job(entry["argv"], spec.cap_s)
            traced = run_job(entry["argv"], spec.cap_s, traced=True)
            jobs.append((pool, entry, plain, traced))
    return jobs


def _reason(entry: dict, result) -> str | None:
    return "timeout" if result.timed_out else judge(entry, result.rc, result.stdout)


def end_to_end_metrics(jobs: list, elapsed: float, setup_s: float) -> tuple[dict, dict]:
    walls = [r.wall_s for _, _, r, _ in jobs]
    answered = sum(1 for *_, reason in jobs if reason is None)
    tail_p, tail_s = tail(walls)
    metrics = {
        "jobs_per_s": answered / elapsed,
        "cpu_s_per_job": sum(r.cpu_s for _, _, r, _ in jobs) / len(jobs),
        "job_p50_s": percentile(walls, 50),
        "job_tail_s": tail_s,
        "answered_share": answered / len(jobs),
        "peak_rss_mb": max(r.maxrss_kb or 0 for _, _, r, _ in jobs) / 1024,
        "setup_s": setup_s,
    }
    reasons = Counter(reason for *_, reason in jobs if reason)
    extra = {
        "failed_share": 1 - answered / len(jobs),
        "failed_by_reason": dict(reasons),
        "job_tail_percentile": tail_p,
        "job_samples": len(jobs),
        "wall_s": elapsed,
        "pools": _pool_stats(jobs),
    }
    return metrics, extra


def _pool_stats(jobs: list) -> dict:
    by_pool: dict[str, list] = {}
    for pool, _, result, reason in jobs:
        by_pool.setdefault(pool, []).append((result.wall_s, reason))
    return {
        pool: {
            "jobs": len(rows),
            "failed": sum(1 for _, reason in rows if reason),
            "median_wall_s": round(statistics.median(w for w, _ in rows), 4),
        }
        for pool, rows in sorted(by_pool.items())
    }


def layer_metrics(jobs: list) -> tuple[dict, dict]:
    self_s = Counter()
    counts = Counter()
    timed_out = []
    for _, entry, plain, traced in jobs:
        payload = traced.trace or {"self_s": {}, "counts": {}, "timed_out": []}
        self_s.update(payload["self_s"])
        counts.update(payload["counts"])
        if payload["timed_out"] or traced.timed_out:
            timed_out.append({"argv": entry["argv"], "open_spans": payload["timed_out"]})
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for name, source in LAYER_COUNTS.items():
        if source:
            metrics[name] = counts[source]
    for name, (num, den) in YIELDS.items():
        metrics[name] = metrics[num] / metrics[den] if metrics[den] else 0.0
    metrics["trace.timed_out_spans"] = sum(len(t["open_spans"]) for t in timed_out)
    metrics["trace.overhead_s"] = sum(t.wall_s - p.wall_s for _, _, p, t in jobs)
    return metrics, {"timed_out_jobs": timed_out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        if not (SRC / "pellsum" / "__init__.py").is_file():
            raise SetupError(f"no pellsum sources under {SRC}")
        catalog = load_catalog()
        env = environment()
        setup_s = measure_setup()
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2

    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace:
        jobs = run_traced(args.workload, args.seed, args.seconds, catalog)
        reasons = [_reason(entry, traced) for _, entry, _, traced in jobs]
        mismatched = sum(
            1 for _, _, plain, traced in jobs
            if not (plain.timed_out or traced.timed_out) and plain.stdout != traced.stdout
        )
        # a site left unwrapped would hide calls from the trace
        unwrapped = sorted({site for *_, t in jobs if t.trace for site in t.trace["unwrapped"]})
        wrong = mismatched + len(unwrapped) + sum(
            1 for _, entry, plain, _ in jobs if _reason(entry, plain) in ("exit", "bytes")
        )
        metrics, extra = layer_metrics(jobs)
        extra["traced_untraced_mismatches"] = mismatched
        extra["unwrapped_sites"] = unwrapped
        units = per_layer_units()
    else:
        jobs, elapsed = run_end_to_end(args.workload, args.seed, args.seconds, catalog)
        reasons = [reason for *_, reason in jobs]
        wrong = 0
        metrics, extra = end_to_end_metrics(jobs, elapsed, setup_s)
        units = dict(END_TO_END)
    wrong += sum(1 for reason in reasons if reason in ("exit", "bytes"))

    print("report " + json.dumps({**header, **extra}, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    result = {
        "correct": wrong == 0,
        "attempted": len(jobs),
        "failed": sum(1 for reason in reasons if reason),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
