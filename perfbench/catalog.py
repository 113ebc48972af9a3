"""Build catalog.json: the pools of CLI jobs the workloads draw from, each
with its exit code and the sha256 of its structured document pinned.

Usage: python3 perfbench/catalog.py

The pools are drawn once from a fixed seed, then every job not already in
catalog.json is run; existing pins are kept, so a rebuild never re-pins
bytes a later version of the program writes differently. A job
expected to answer must answer within PIN_CAP_S, or the build stops. Jobs
in the "hang" and "named" pools are expected to run past HANG_PIN_CAP_S;
they are stored without a digest, and the gate checks the
identities their documents state instead (see checks.py). A hang-pool job
that answers in time was misjudged by the estimate, so the build stops.

Norm-sweep draws are classed by an estimate of the loop iterations the
Pell layer and the seed scan make in the version that pinned the catalogue. Draws between the fast
and hang thresholds are left out: their run time sits within a small factor
of the cap, so whether they time out would flip from run to run.
"""

from __future__ import annotations

import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from math import isqrt, prod
from pathlib import Path

from checks import icbrt, digest, pell_units
from proc import run_job

CATALOG = Path(__file__).with_name("catalog.json")
CATALOG_SEED = 20241002
PIN_CAP_S = 30.0
HANG_PIN_CAP_S = 5.0
FAST_ITERS = 2 * 10**5  # well under 0.1 s of scanning
HANG_ITERS = 10**8  # well over 10 s of scanning
NAMED = (["pell", "--d=421"], ["solve-norm", "--d=61", "--m=4"], ["solve-norm", "--d=109", "--m=4"])
# Few-class problems: one class each, |X1| + |X2| of 57 to 157 up to 1e30.
FEW_CLASS = ((13, 4), (13, -4), (5, 4), (5, -4), (2, -1), (2, 7), (2, -7), (3, 1), (3, -2), (6, -2))
# Primes that split in Q(sqrt(2)); products of seven give 64 solution classes.
SPLIT_2 = (7, 17, 23, 31, 41, 47, 71, 73, 79, 89, 97)
RATIONALS = ("2", "3", "-2", "5", "1/2", "4/9", "6", "10", "1/6", "-3", "9", "3/4", "-5/2", "7")
UNIT_FIELDS = (2, 3, 6, 7, 10, 11)


def squarefree_d() -> list[int]:
    def squarefree(n):
        return all(n % (p * p) for p in range(2, isqrt(n) + 1))

    return [d for d in range(2, 1000) if squarefree(d)]


def scan_iterations(d: int, m: int | None = None) -> int:
    """Loop iterations pell_data (and, given m, the seed scan) make as pinned.

    The automorph scan runs over odd u up to about eps^(1/3) when d = 5 (mod 8);
    the seed window is linear in the even generator (2*x1, 2*y1).
    """
    (x1, y1), _ = pell_units(d)
    sd = isqrt(d)
    iters = 0
    if d % 8 == 5:
        cap = 2 * (icbrt(8 * (x1 + y1 * (sd + 1))) + 1) // sd + 2
        iters = cap // 2 + 1
        t = icbrt(2 * x1)
        for cand in (t - 1, t, t + 1, t + 2):
            if cand > 0 and cand**3 - 3 * cand == 2 * x1 and cand % 2:
                iters = min(iters, (isqrt((cand * cand - 4) // d) + 1) // 2)
    if m is not None:
        sm = isqrt(abs(m)) + 1
        iters += sm * (2 * x1 + 2 + (2 * y1 + 1) * (sd + 1)) // (2 * sd) + 2
    return iters


def _rec(rng: random.Random, a1_range, a2_choices, init_range) -> str:
    while True:
        a1, a2 = rng.randint(*a1_range), rng.choice(a2_choices)
        u0, u1 = rng.randint(*init_range), rng.randint(*init_range)
        if a1 * a1 + 4 * a2 != 0 and (u0, u1) != (0, 0):
            return f"{a1},{a2};{u0},{u1}"


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _factored_rec(rng: random.Random, order: int) -> str:
    """An integer recurrence whose characteristic polynomial is a product of
    distinct integer linear factors and irreducible quadratics."""
    while True:
        factors, degree = [], 0
        while degree < order:
            if order - degree >= 2 and rng.random() < 0.6:
                a, b = rng.randint(1, 6), rng.choice((1, -1, 2, -2, 3, -3))
                disc = a * a + 4 * b
                if disc == 0 or (disc > 0 and isqrt(disc) ** 2 == disc):
                    continue
                factors.append((1, -a, -b))
                degree += 2
            else:
                factors.append((1, -rng.choice((2, 3, -2, -3, 4, 5, -5, 6, 7, -1))))
                degree += 1
        if len(set(factors)) < len(factors):
            continue
        poly = [1]
        for f in factors:
            poly = _poly_mul(poly, list(f))
        inits = [rng.randint(-3, 5) for _ in range(order)]
        if any(inits):
            coeffs = ",".join(str(-c) for c in poly[1:])
            return f"{coeffs};{','.join(map(str, inits))}"


def _quad_text(x: int, y: int, d: int) -> str:
    sign = "+" if y > 0 else "-"
    return f"{x}{sign}{abs(y)}*sqrt({d})"


def _bases(rng: random.Random, n_rational: int) -> str:
    d = rng.choice(UNIT_FIELDS)
    (x, y), _ = pell_units(d)
    units = [(x, y), (x, -y), (x * x + d * y * y, 2 * x * y), (-x, -y), (-x, y)]
    picked = rng.sample(RATIONALS, n_rational) + [
        _quad_text(a, b, d) for a, b in rng.sample(units, 3)
    ]
    rng.shuffle(picked)
    return ",".join(picked)


def _opts(**values) -> list[str]:
    # --name=value keeps values such as "-6,-5;1,-1" from reading as options
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


def candidates(rng: random.Random) -> dict:
    """workload -> pool -> list of argv, drawn from rng."""
    ds = squarefree_d()
    norm_pairs = [(d, m) for d in ds for m in range(-100, 101) if m]
    cost = {pair: scan_iterations(*pair) for pair in norm_pairs}
    fast = [pair for pair in norm_pairs if cost[pair] <= FAST_ITERS]
    hang = [pair for pair in norm_pairs if cost[pair] >= HANG_ITERS]
    pell_fast = [d for d in ds if scan_iterations(d) <= FAST_ITERS]
    pell_hang = [d for d in ds if scan_iterations(d) >= HANG_ITERS]
    wide_m = sorted({sign * prod(c) for k in (6, 7) for c in combinations(SPLIT_2, k)
                     for sign in (1, -1) if prod(c) <= 4 * 10**10})

    def coords(d, m):
        return ["coords", *_opts(d=d, m=m, coord=rng.randint(1, 2),
                                 bound=10 ** rng.randint(6, 40))]

    def hang_job():
        d, m = rng.choice(hang)
        return ["solve-norm", *_opts(d=d, m=m)] if rng.random() < 0.5 else coords(d, m)

    def sunit(primes, exp_bound):
        d, m = rng.choice(FEW_CLASS)
        return ["sunit-search", *_opts(primes=",".join(map(str, primes)), t=3,
                                       exp_bound=exp_bound, d=d, m=m,
                                       bound=10 ** rng.randint(8, 30))]

    def vanishing():
        kind = rng.randrange(3)
        if kind == 0:  # degenerate: a root ratio is a root of unity
            a = rng.randint(2, 3)
            rec = rng.choice((f"0,{rng.randint(1, 5)}", f"{a},{-a * a}", "2,-2", "3,-3"))
            rec += f";{rng.randint(0, 3)},{rng.randint(1, 4)}"
            return ["vanishing", *_opts(rec=rec, n=rng.randint(100, 140))]
        if kind == 1:  # irrational roots, no vanishing root part
            while True:
                rec = _rec(rng, (1, 4), (1, 2, 3), (0, 4))
                a1, a2 = map(int, rec.split(";")[0].split(","))
                if isqrt(a1 * a1 + 4 * a2) ** 2 != a1 * a1 + 4 * a2:
                    return ["vanishing", *_opts(rec=rec, n=rng.randint(100, 140))]
        # large squarefree discriminant: QuadNum validation grows with d
        rec = _rec(rng, (300, 1000), (1, 2, 3), (0, 4))
        return ["vanishing", *_opts(rec=rec, n=rng.randint(40, 60))]

    def vanishing_dense():
        # root ratio a cube root of unity: many pairs vanish, so the document
        # (0.5-0.7 MB) and the job's peak RSS are the workload's largest
        inits = rng.choice([(a, b) for a in range(5) for b in range(5) if a or b])
        return ["vanishing", *_opts(rec=f"1,-1;{inits[0]},{inits[1]}", n=rng.randint(125, 140))]

    def pairs(rec, d, m, n, bound_exp):
        return ["pairs-search", *_opts(rec=rec, d=d, m=m, n=n, bound=10**bound_exp)]

    return {
        "norm-sweep": {
            "named": [list(argv) for argv in NAMED],
            "hang": [["pell", f"--d={d}"] for d in pell_hang if ["pell", f"--d={d}"] not in NAMED]
            + [job for job in (hang_job() for _ in range(30)) if job not in NAMED][:24],
            "pell": [["pell", f"--d={d}"] for d in rng.sample(pell_fast, 100)],
            "solve-norm": [["solve-norm", *_opts(d=d, m=m)] for d, m in rng.sample(fast, 150)],
            "coords": [coords(d, m) for d, m in rng.sample(fast, 150)],
            # growing recurrences only: periodic ones hit on most pairs
            "pairs-wide": [pairs(_rec(rng, (1, 3), (1, 2), (0, 3)), 2, rng.choice(wide_m),
                                 rng.randint(200, 400), rng.randint(30, 40))
                           for _ in range(40)],
        },
        "search-deep": {
            "pairs-deep": [pairs(_rec(rng, (2, 3), (1, 2), (0, 5)), *rng.choice(FEW_CLASS),
                                 rng.randint(1000, 1300), rng.randint(20, 40))
                           for _ in range(60)],
            "vanishing": [vanishing() for _ in range(60)],
            "vanishing-dense": [vanishing_dense() for _ in range(30)],
            "sunit-2p": [sunit(sorted(rng.sample((2, 3, 5, 7), 2)), 2) for _ in range(30)],
            "sunit-3p": [sunit(sorted(rng.sample((2, 3, 5, 7, 11), 3)), 1) for _ in range(30)],
        },
        "recurrence-audit": {
            "hypotheses": [["hypotheses", *_opts(rec=_factored_rec(rng, rng.randint(2, 4)),
                                                 exp_bound=rng.randint(6, 12))]
                           for _ in range(80)],
            "binet": [["binet", *_opts(rec=_factored_rec(rng, 2))] for _ in range(60)],
            "recur": [["recur", *_opts(rec=_factored_rec(rng, rng.randint(2, 4)),
                                       n=rng.randint(200, 600))] for _ in range(60)],
            "partitions-6": [["partitions", *_opts(bases=_bases(rng, 3), exp_bound=8)]
                             for _ in range(40)],
            "partitions-7": [["partitions", *_opts(bases=_bases(rng, 4), exp_bound=5)]
                             for _ in range(20)],
            "verify-remark": [["verify-remark", *_opts(id=rid, n=n)]
                              for rid in ("2.3", "2.4", "2.5") for n in range(100, 401, 50)],
        },
    }


def pin(argv: list[str], expect_answer: bool) -> dict:
    full = [*argv, "--format=structured"]
    result = run_job(full, PIN_CAP_S if expect_answer else HANG_PIN_CAP_S)
    if result.timed_out == expect_answer:
        raise SystemExit(f"{' '.join(argv)}: timed_out={result.timed_out}, "
                         f"expected {not expect_answer}")
    if result.timed_out:
        return {"argv": full}
    return {"argv": full, "rc": result.rc, "sha256": digest(result.stdout),
            "cpu_s": round(result.cpu_s, 3), "rss_mb": round(result.maxrss_kb / 1024, 1)}


def main() -> int:
    pools = candidates(random.Random(CATALOG_SEED))
    known = {}
    if CATALOG.exists():  # keep earlier pins: a re-pin would hide changed bytes
        for by_pool in json.loads(CATALOG.read_text())["workloads"].values():
            for entries in by_pool.values():
                known.update((tuple(e["argv"]), e) for e in entries)
    tasks = [(wl, pool, argv, pool not in ("hang", "named"))
             for wl, by_pool in pools.items() for pool, jobs in by_pool.items()
             for argv in jobs]

    def pin_or_keep(task):
        full = (*task[2], "--format=structured")
        return known.get(full) or pin(task[2], task[3])

    with ThreadPoolExecutor(2) as executor:
        pinned = list(executor.map(pin_or_keep, tasks))
    catalog: dict = {wl: {pool: [] for pool in by_pool} for wl, by_pool in pools.items()}
    for (wl, pool, _, _), entry in zip(tasks, pinned):
        catalog[wl][pool].append(entry)
    CATALOG.write_text(json.dumps({"python": sys.version.split()[0], "workloads": catalog},
                                  indent=1, sort_keys=True) + "\n")
    fresh = sum(1 for t in tasks if (*t[2], "--format=structured") not in known)
    print(f"{len(tasks)} jobs in {CATALOG.name}, {fresh} newly pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
