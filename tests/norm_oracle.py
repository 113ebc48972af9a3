"""Oracles for the Pell layer: the solver's solutions in a box, for
comparison with direct scans; the plain seed scan that the residue wheel
replaced; the union-find merge rule that grouped seeds into classes before
the least-member grouping replaced it; and the two-pass continued fraction
(the period up to the first repeated state, then its convergent from the
digits) that the single walk pell._pqa replaced.

Run as a script, `python3 tests/norm_oracle.py` compares, for every
squarefree d < 1000 and 0 < |m| <= 100 whose window is at most 3e5, the
solver's classes with the union-find grouping of the same seeds and the
solver's seeds with the plain scan of its window; and, for every squarefree
d < 2e4, the walk's a0, period and convergent with the two-pass oracle. It
prints the problem count and both mismatch counts, then the walk count and
its mismatch count, and exits 1 on any mismatch.
"""

import sys
from math import isqrt
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pellsum.normform import NormFormProblem, solution_classes, step
from pellsum.pell import _pqa, continued_fraction_sqrt, pell_data
from pellsum.quadfield import is_squarefree

SWEEP_WINDOW = 3 * 10**5
WALK_LIMIT = 2 * 10**4


def solutions_within(problem: NormFormProblem, bound: int) -> list[tuple[int, int]]:
    """All solutions with 0 <= x <= bound, folded to nonnegative pairs.

    Walks every solution class the solver returns; bounding x bounds y too,
    so a direct scan over a box is a complete oracle for the result.
    """
    found: set[tuple[int, int]] = set()
    for orbit in solution_classes(problem).orbits:
        found.update(orbit.elements(bound, 1))
    return sorted(found)


def fundamental_x(d: int) -> int:
    """x1 of the fundamental solution of x^2 - d y^2 = 1, from the period alone.

    pell_data's automorph scan does not finish for some d < 1000 (d = 421),
    so windows are sized from this before the solver is called.
    """
    a0, period = continued_fraction_sqrt(d)
    p, _ = convergent(a0, period)
    return p if len(period) % 2 == 0 else 2 * p * p + 1


def repeated_state_cf(d: int) -> tuple[int, list[int]]:
    """sqrt(d) = [a0; period], the period being the digits read from the
    state (P + sqrt(d))/Q after a0 up to that state's first repetition."""
    a0 = isqrt(d)
    digits: list[int] = []
    P, Q = a0, d - a0 * a0
    first = (P, Q)
    while True:
        a = (a0 + P) // Q
        digits.append(a)
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) == first:
            return a0, digits


def convergent(a0: int, period: list[int]) -> tuple[int, int]:
    """p/q over the digits a0, period[0], ..., period[-2], in a second pass
    over the digits."""
    p_prev, p, q_prev, q = 1, a0, 0, 1
    for a in period[:-1]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


def walk_matches(d: int) -> bool:
    """Do continued_fraction_sqrt and the last convergent of pell's walk of
    sqrt(d) agree with the two-pass oracle?"""
    a0, period = repeated_state_cf(d)
    for _, p, q in _pqa(d):
        pass
    return continued_fraction_sqrt(d) == (a0, period) and (p, q) == convergent(a0, period)


def walk_sweep(limit: int = WALK_LIMIT) -> int:
    """Compare the walk with the two-pass oracle for every squarefree
    1 < d < limit; 1 when any mismatches."""
    walks = [d for d in range(2, limit) if is_squarefree(d)]
    mismatches = [d for d in walks if not walk_matches(d)]
    for d in mismatches:
        print(f"walk mismatch: d={d}")
    print(f"{len(walks)} Pell walks, {len(mismatches)} walk mismatches")
    return 1 if mismatches else 0


def scan_seeds(d: int, m: int, ylim: int) -> list[tuple[int, int]]:
    """Every (x, y) with x, y >= 0, y <= ylim and x^2 - d*y^2 = m, in
    ascending y: the scan of every y in the window."""
    seeds: list[tuple[int, int]] = []
    for y in range(ylim + 1):
        s = m + d * y * y
        if s < 0:
            continue
        x = isqrt(s)
        if x * x == s:
            seeds.append((x, y))
    return seeds


def solver_seeds(orbits) -> list[tuple[int, int]]:
    """The seeds of all orbits, sorted by (y, x)."""
    return sorted((s for orbit in orbits for s in orbit.seeds), key=lambda p: (p[1], p[0]))


def seeds_match(problem: NormFormProblem, solutions=None) -> bool:
    """Does the solver find the seeds the plain scan of its window finds?"""
    solutions = solutions or solution_classes(problem)
    return solver_seeds(solutions.orbits) == scan_seeds(problem.d, problem.m,
                                                         solutions.scan_bound)


def union_find_classes(problem: NormFormProblem, seeds) -> list[tuple[tuple[int, int], ...]]:
    """The seeds grouped by merging each with its folded step and inverse
    step images that are seeds too; each group sorted by (y, x), the groups
    sorted."""
    d = problem.d
    data = pell_data(d)
    t, u = data.automorph
    odd = t % 2 == 1
    x1, y1 = data.fundamental
    even_gen = (2 * x1, 2 * y1)

    def gen_for(x: int, y: int) -> tuple[int, int]:
        if not odd or (x - y) % 2 == 0:
            return (t, u)
        return even_gen

    parent = {s: s for s in seeds}

    def find(a: tuple[int, int]) -> tuple[int, int]:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in seeds:
        g = gen_for(*s)
        for img in (step(g, d, *s), step((g[0], -g[1]), d, *s)):
            folded = (abs(img[0]), abs(img[1]))
            if folded in parent:
                ra, rb = find(s), find(folded)
                if ra != rb:
                    parent[ra] = rb

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s in seeds:
        groups.setdefault(find(s), []).append(s)
    return sorted(tuple(sorted(members, key=lambda p: (p[1], p[0]))) for members in groups.values())


def classes_match(problem: NormFormProblem, solutions=None) -> bool:
    """Do the solver's classes group its seeds as the union-find does?"""
    orbits = (solutions or solution_classes(problem)).orbits
    return sorted(orbit.seeds for orbit in orbits) == union_find_classes(
        problem, solver_seeds(orbits))


def sweep(limit: int = SWEEP_WINDOW) -> int:
    """Compare classes and seeds for every squarefree d < 1000, 0 < |m| <= 100
    with window <= limit; 1 when any mismatches."""
    problems = []
    for d in filter(is_squarefree, range(2, 1000)):
        x1 = fundamental_x(d)
        # (isqrt(|m|) + 1) * 2 * x1 sizes the seed window, up to a factor near sqrt(d)
        problems += [
            NormFormProblem(d, m)
            for m in range(-100, 101)
            if m and (isqrt(abs(m)) + 1) * 2 * x1 <= limit
        ]
    mismatches = {"class": 0, "seed": 0}
    for p in problems:
        solutions = solution_classes(p)
        for kind, match in (("class", classes_match), ("seed", seeds_match)):
            if not match(p, solutions):
                mismatches[kind] += 1
                print(f"{kind} mismatch: d={p.d} m={p.m}")
    print(f"{len(problems)} problems, {mismatches['class']} class mismatches,"
          f" {mismatches['seed']} seed mismatches")
    return 1 if any(mismatches.values()) else 0


if __name__ == "__main__":
    sys.exit(sweep() | walk_sweep())
