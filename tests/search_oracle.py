"""Oracles for the search kernels: the pair loop that vanishing_pair_sums
ran before it read its hits off residue progressions and a value index, and
the goal loop that sunit_sum_search ran before it intersected sets of
scaled integers.

Run as a script, `python3 tests/search_oracle.py` compares
vanishing_pair_sums with the pair loop for every recurrence
U_n = a1*U_{n-1} + a2*U_{n-2} with |a1|, |a2| <= 3, a2 != 0 and initial
values in [-2, 2], at N = 1, 2, 3, 11 and 300; and sunit_sum_search with
the goal loop for every 1 to 3 primes out of 2, 3, 5, 7, 11, tuple sizes
1 to 4 and exponent bounds 0 to 3, on four problems and two coordinate
bounds, where the goal loop's estimate is at most ORACLE_LOOKUPS. It prints
the problem count and the mismatch count, and exits 1 on any mismatch.
"""

import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pellsum.errors import PellsumError, SearchBudgetError
from pellsum.normform import NormFormProblem
from pellsum.recurrences import LinearRecurrence, binet, root_of_unity_order, terms_up_to
from pellsum.search import (
    _LOOKUPS_PER_UNIT,
    SUNIT_LOOKUP_BUDGET,
    SUnitHit,
    _memberships,
    coordinate_index,
    sunit_sum_search,
    vanishing_pair_sums,
)
from pellsum.sunits import SPrimeSet, enumerate_sunits, subsums_nonvanishing

SWEEP_N = (1, 2, 3, 11, 300)
SWEEP_PRIMES = (2, 3, 5, 7, 11)
SWEEP_PROBLEMS = ((13, 4), (5, 4), (2, -1), (3, -2))
SWEEP_BOUNDS = (1500, 10**12)
# widest goal loop, in lookups, that the sweep runs (about 0.1 s)
ORACLE_LOOKUPS = 3 * 10**5


def pair_loop_vanishing_sums(rec, nbound):
    """vanishing_pair_sums by testing every pair n1 <= n2 <= nbound: the
    per-root residue rules and U_{n1} + U_{n2} = 0, in (n1, n2, delta) order."""
    if nbound < 1:
        raise ValueError("nbound must be >= 1")
    form = binet(rec)
    # (r, s) per root: its part vanishes exactly when k = s (mod r)
    residues = []
    for f, alpha in zip(form.coeffs, form.roots):
        r = root_of_unity_order(alpha)
        if not f:
            residues.append((1, 0))
        elif r is not None and r % 2 == 0:
            residues.append((r, r // 2))
        else:
            residues.append(None)
    terms = terms_up_to(rec, nbound)
    out = []
    for n1 in range(nbound + 1):
        for n2 in range(n1, nbound + 1):
            for delta, rule in zip(((1,), (2,)), residues):
                if rule is not None and (n2 - n1) % rule[0] == rule[1]:
                    out.append((n1, n2, delta))
            if terms[n1] + terms[n2] == 0:
                out.append((n1, n2, (1, 2)))
    return out


def goal_loop_sunit_hits(basis, tuple_size, expbound, problem, coordbound):
    """(hits, stabilization) of sunit_sum_search by looking up every
    coordinate value for each prefix, with SUnit records and Fraction
    entries; the same budget refusal."""
    if not 1 <= tuple_size <= 4:
        raise ValueError("tuple size must be between 1 and 4")
    if coordbound < 1:
        raise ValueError("coordinate bound must be >= 1")
    if expbound < 0:
        raise ValueError("exponent bound must be >= 0")
    index = coordinate_index(problem, coordbound)
    targets = index[1].keys() | index[2].keys()
    if goal_loop_lookups(basis, tuple_size, expbound, len(targets)) > SUNIT_LOOKUP_BUDGET:
        raise SearchBudgetError("past the S-unit lookup budget")
    units = list(enumerate_sunits(basis, expbound))
    scale = prod(p**expbound for p in basis.primes)
    scaled = [
        u.sign * prod(p ** (b + expbound) for p, b in zip(basis.primes, u.exponents))
        for u in units
    ]
    position = {s: k for k, s in enumerate(scaled)}
    goals = [(x, x * scale) for x in targets]
    half_box = {
        i for i, u in enumerate(units) if all(abs(b) <= expbound // 2 for b in u.exponents)
    }

    collected = []
    for prefix in combinations_with_replacement(range(len(units)), tuple_size - 1):
        partial = sum(scaled[k] for k in prefix)
        last = prefix[-1] if prefix else 0
        for x, goal in goals:
            k = position.get(goal - partial)
            if k is None or k < last:
                continue
            picked = prefix + (k,)
            entry_vals = tuple(sorted(units[j].value for j in picked))
            cert = subsums_nonvanishing(entry_vals)
            if cert.ok:
                hit = SUnitHit(entry_vals, Fraction(x), _memberships(index, x), cert)
                collected.append((hit, all(j in half_box for j in picked)))
    collected.sort(key=lambda pair: (pair[0].total, pair[0].entries))
    hits = tuple(h for h, _ in collected)
    return hits, (sum(1 for _, in_half in collected if in_half), len(hits))


def goal_loop_lookups(basis, tuple_size, expbound, targets):
    """sunit_sum_search's work estimate for targets coordinate values."""
    units = 2 * (2 * expbound + 1) ** len(basis)
    prefixes = comb(units + tuple_size - 2, tuple_size - 1)
    return prefixes * max(targets, 1) + units * _LOOKUPS_PER_UNIT


def outcome(fn, *args):
    """fn's result, or the class of the pellsum error it raised."""
    try:
        return fn(*args)
    except PellsumError as exc:
        return type(exc)


def sunit_outcome(*args):
    report = outcome(sunit_sum_search, *args)
    return report if isinstance(report, type) else (report.hits, report.stabilization)


def sweep(nbounds=SWEEP_N, coeff=3, primes=SWEEP_PRIMES, max_size=4, max_exp=3) -> int:
    """Compare both kernels with their loops over the grid the module
    docstring names (narrowed by the arguments); 1 when any mismatches."""
    problems = mismatches = 0
    coeffs, initials = range(-coeff, coeff + 1), range(-2, 3)
    for a1, a2, u0, u1 in product(coeffs, coeffs, initials, initials):
        if not a2 or not (u0 or u1):
            continue
        rec = LinearRecurrence((a1, a2), (u0, u1))
        for nbound in nbounds:
            problems += 1
            if outcome(vanishing_pair_sums, rec, nbound) != outcome(
                    pair_loop_vanishing_sums, rec, nbound):
                mismatches += 1
                print(f"vanishing mismatch: rec={a1},{a2};{u0},{u1} N={nbound}")
    indexes = {}
    for size in (1, 2, 3):
        for chosen in combinations(primes, size):
            basis = SPrimeSet(chosen)
            for t, e, (d, m), bound in product(range(1, max_size + 1), range(max_exp + 1),
                                              SWEEP_PROBLEMS, SWEEP_BOUNDS):
                problem = NormFormProblem(d, m)
                if (d, m, bound) not in indexes:
                    index = coordinate_index(problem, bound)
                    indexes[d, m, bound] = len(index[1].keys() | index[2].keys())
                lookups = goal_loop_lookups(basis, t, e, indexes[d, m, bound])
                if ORACLE_LOOKUPS < lookups <= SUNIT_LOOKUP_BUDGET:
                    continue
                problems += 1
                args = (basis, t, e, problem, bound)
                if sunit_outcome(*args) != outcome(goal_loop_sunit_hits, *args):
                    mismatches += 1
                    print(f"sunit mismatch: primes={chosen} t={t} E={e} d={d} m={m}"
                          f" bound={bound}")
    print(f"{problems} problems, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(sweep())
