"""The three workloads: which catalogue pools a round draws from, and how many.

A run is a sequence of rounds. Every round holds the same number of jobs
from each pool, so any whole number of rounds has the workload's mix; the
seed decides which jobs of each pool are drawn and their order.

Each pool is walked in a seeded order that repeats no job before the whole
pool is drawn and in which every STRATA consecutive jobs hold one from each
cost stratum (by the CPU time pinned in the catalogue). A run therefore
draws about as many cheap and dear jobs as any other run, whatever the
seed, and its numbers move with the program rather than with the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

CATALOG = Path(__file__).with_name("catalog.json")
STRATA = 6


@dataclass(frozen=True)
class Workload:
    cap_s: float  # per-job wall-time cap
    mix: tuple[tuple[str, int], ...]  # (pool, jobs per round)
    round_s: float  # a round's wall time as pinned; sets the rounds a traced run makes


# Each mix puts the median job and the 11th-largest job (job_tail_s) well
# inside one pool, so that neither flips between pools from run to run, and
# draws the pool with the largest documents (peak_rss_mb) every round.
WORKLOADS = {
    "norm-sweep": Workload(
        cap_s=1.5,
        mix=(("named", 3), ("hang", 1), ("pairs-wide", 1), ("pell", 2),
             ("solve-norm", 3), ("coords", 2)),
        round_s=7.5,
    ),
    "search-deep": Workload(
        cap_s=10.0,
        mix=(("pairs-deep", 3), ("vanishing-dense", 3), ("vanishing", 1), ("sunit-2p", 2),
             ("sunit-3p", 1)),
        round_s=8.0,
    ),
    "recurrence-audit": Workload(
        cap_s=10.0,
        mix=(("hypotheses", 3), ("binet", 2), ("recur", 2), ("verify-remark", 1),
             ("partitions-6", 3), ("partitions-7", 1)),
        round_s=9.0,
    ),
}


def load_catalog() -> dict:
    return json.loads(CATALOG.read_text())["workloads"]


def rounds(workload: str, seed: int, catalog: dict):
    """Endless rounds of catalogue entries, (pool, entry) pairs, from seed."""
    rng = random.Random(f"{workload}/{seed}")
    pools = catalog[workload]
    queues: dict[str, list] = {pool: [] for pool, _ in WORKLOADS[workload].mix}
    while True:
        drawn = []
        for pool, count in WORKLOADS[workload].mix:
            for _ in range(count):
                if not queues[pool]:
                    queues[pool] = _stratified(rng, pools[pool])
                drawn.append((pool, queues[pool].pop()))
        rng.shuffle(drawn)
        yield drawn


def _stratified(rng: random.Random, entries: list) -> list:
    ordered = sorted(entries, key=lambda entry: entry.get("cpu_s", 0.0))
    k = min(STRATA, len(ordered))
    cuts = [i * len(ordered) // k for i in range(k + 1)]
    blocks = [ordered[a:b] for a, b in zip(cuts, cuts[1:])]
    for block in blocks:
        rng.shuffle(block)
    order = []
    while any(blocks):
        for block in rng.sample(blocks, k):
            if block:
                order.append(block.pop())
    return order
