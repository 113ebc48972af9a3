"""Correctness gate for one job, and the number theory it needs.

A catalogue entry with a pinned digest must reproduce the pinned exit code
and the sha256 of its canonical structured bytes. An entry without one
(the job ran past the cap when the catalogue was pinned) must exit 0 with
a document whose stated identities hold: the Pell data agrees with an
independent continued-fraction computation, and every listed pair or value
satisfies the norm equation. Exit 1 there is an explicit refusal: not an
answer, but not a wrong one either.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import isqrt


def sqrt_cf(d: int) -> tuple[int, list[int]]:
    """sqrt(d) = [a0; period] for a non-square d > 1."""
    a0 = isqrt(d)
    p, q = a0, d - a0 * a0
    first, digits = (p, q), []
    while True:
        a = (a0 + p) // q
        digits.append(a)
        p = a * q - p
        q = (d - p * p) // q
        if (p, q) == first:
            return a0, digits


def pell_units(d: int) -> tuple[tuple[int, int], tuple[int, int] | None]:
    """Fundamental solutions of x^2 - d*y^2 = 1 and = -1 (None if unsolvable)."""
    a0, period = sqrt_cf(d)
    p_prev, p, q_prev, q = 1, a0, 0, 1
    for a in period[:-1]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    if len(period) % 2 == 0:
        return (p, q), None
    return (p * p + d * q * q, 2 * p * q), (p, q)


def minimal_automorph(d: int) -> tuple[int, int]:
    """Least (t, u), u >= 1, with t^2 - d*u^2 = 4.

    Odd solutions exist only for d = 5 (mod 8), and then the least one
    cubes to the fundamental unit: t^3 - 3t = 2*x1.
    """
    (x1, y1), _ = pell_units(d)
    if d % 8 == 5:
        t = icbrt(2 * x1)
        for cand in (t - 1, t, t + 1, t + 2):
            if cand > 0 and cand**3 - 3 * cand == 2 * x1 and cand % 2:
                u2, rem = divmod(cand * cand - 4, d)
                u = isqrt(u2)
                if not rem and u * u == u2:
                    return cand, u
    return 2 * x1, 2 * y1


def icbrt(n: int) -> int:
    r = 1 << ((n.bit_length() + 2) // 3)
    while True:
        nxt = (2 * r + n // (r * r)) // 3
        if nxt >= r:
            break
        r = nxt
    while r * r * r > n:
        r -= 1
    return r


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def judge(entry: dict, rc: int, stdout: bytes) -> str | None:
    """None when the job answered correctly, else why not.

    Reasons: "exit" (unexpected exit code), "bytes" (wrong document),
    "refused" (exit 1 where no digest was pinned).
    """
    if "sha256" in entry:
        if rc != entry["rc"]:
            return "exit"
        return None if digest(stdout) == entry["sha256"] else "bytes"
    if rc == 1:
        return "refused"
    if rc != 0:
        return "exit"
    try:
        doc = json.loads(stdout)
        ok = IDENTITIES[entry["argv"][0]](doc, _argv_config(entry["argv"]))
    except (ValueError, KeyError, TypeError, IndexError):
        ok = False
    return None if ok else "bytes"


def _argv_config(argv: list[str]) -> dict:
    return dict(token[2:].split("=", 1) for token in argv[1:])


def _pell_ok(doc: dict, flags: dict) -> bool:
    d = int(flags["d"])
    res = doc["results"]
    a0, period = sqrt_cf(d)
    fund, neg = pell_units(d)
    t, u = minimal_automorph(d)
    half_u = Fraction(u, 2)
    unit = f"{Fraction(t, 2)} + {'' if half_u == 1 else f'{half_u}*'}sqrt({d})"
    return (
        doc["config"] == {"subcommand": "pell", "d": d}
        and res["d"] == d
        and res["a0"] == a0
        and res["period"] == period
        and res["period_length"] == len(period)
        and res["fundamental"] == list(fund)
        and res["negative"] == (list(neg) if neg else None)
        and res["automorph"] == [t, u]
        and res["unit"] == unit
    )


def _solve_norm_ok(doc: dict, flags: dict) -> bool:
    d, m = int(flags["d"]), int(flags["m"])
    res = doc["results"]
    orbits = res["orbits"]
    pairs = [
        pair
        for orbit in orbits
        for pair in [orbit["representative"], *orbit["seeds"], *orbit["sign_class"]]
    ]
    return (
        doc["config"] == {"subcommand": "solve-norm", "d": d, "m": m}
        and (res["d"], res["m"]) == (d, m)
        and res["orbit_count"] == len(orbits)
        and all(x * x - d * y * y == m for x, y in pairs)
        and all(t * t - d * u * u == 4 and u >= 1 for t, u in (o["automorph"] for o in orbits))
    )


def _coords_ok(doc: dict, flags: dict) -> bool:
    d, m = int(flags["d"]), int(flags["m"])
    coord, bound = int(flags["coord"]), int(flags["bound"])
    values = doc["results"]["values"]
    low = 0 if doc["config"]["include_trivial"] else 1

    def member(v: int) -> bool:
        if coord == 2:
            return m + d * v * v >= low and _is_square(m + d * v * v)
        y2, rem = divmod(v * v - m, d)
        return not rem and y2 >= low and _is_square(y2)

    return (
        doc["config"]["d"] == d
        and doc["config"]["m"] == m
        and doc["config"]["coord"] == coord
        and doc["config"]["bound"] == bound
        and doc["results"]["count"] == len(values)
        and all(a < b for a, b in zip(values, values[1:]))
        and all(1 <= v <= bound and member(v) for v in values)
    )


IDENTITIES = {"pell": _pell_ok, "solve-norm": _solve_norm_ok, "coords": _coords_ok}
