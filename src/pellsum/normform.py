"""Norm-form equations x^2 - d y^2 = m and their solution classes.

Multiplication by a power of the automorph unit partitions the solutions
into finitely many classes. Everything here works with |x|, |y| pairs:
conjugate and negated solutions share coordinates, and the coordinate sets
of interest collect absolute values only.

Seeds come from a scan of y = 0 ... ylim, ylim growing with the fundamental
unit: a window past SEED_SCAN_BUDGET is refused before the scan, and the
scan tries only the y whose m + d*y^2 is a square mod 16, 9, 5 and 7. A
coordinate-bounded query answers a refused window by _within_own_window.
"""

from __future__ import annotations

from math import isqrt

from ._records import record
from .errors import InvariantViolationError, SearchBudgetError
from .pell import _validate_real_d, pell_data

# Widest seed window, in y values, that solution_classes scans. Catalogue
# jobs answer with windows up to 1,733,133; the next widest is 1.78e8.
SEED_SCAN_BUDGET = 10**7
_WHEEL = (16, 9, 5, 7)  # coprime moduli; the wheel turns every 5040 y


@record
class NormFormProblem:
    """x^2 - d y^2 = m with d squarefree > 1 and m a nonzero integer."""

    d: int
    m: int

    def __post_init__(self) -> None:
        _validate_real_d(self.d)
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m == 0:
            raise ValueError(f"m must be a nonzero integer, got {self.m!r}")

    def norm_of(self, pair: tuple[int, int]) -> int:
        x, y = pair
        return x * x - self.d * y * y


def sign_variants(pair: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """The distinct signed solutions sharing the coordinates of pair."""
    x, y = pair
    return tuple(sorted({(x, y), (x, -y), (-x, y), (-x, -y)}))


def step(automorph: tuple[int, int], d: int, x: int, y: int) -> tuple[int, int]:
    """Coordinates of (x + y*sqrt(d)) * (t + u*sqrt(d))/2."""
    t, u = automorph
    a = t * x + d * u * y
    b = u * x + t * y
    if a % 2 or b % 2:
        raise InvariantViolationError(
            f"step left the integers at {(x, y)} under automorph {automorph}"
        )
    return a // 2, b // 2


def _least(automorph: tuple[int, int], d: int, x: int, y: int) -> tuple[int, int]:
    """The member of (x, y)'s class with the least y, folded to absolute values.

    Along a class the folded y values fall to one least member and then
    rise, so stepping down with the conjugate generator (t, -u) stops there.
    """
    t, u = automorph
    while True:
        a, b = step((t, -u), d, x, y)
        if abs(b) >= y:
            return x, y
        x, y = abs(a), abs(b)


@record
class SolutionOrbit:
    """One class of solutions, folded to nonnegative coordinates.

    automorph is the generator whose step stays integral on this class:
    the minimal (t, u) when coordinates share parity, otherwise its cube,
    which is (2*x1, 2*y1) for the fundamental solution (x1, y1).
    seeds are the members found inside the scan window.
    """

    problem: NormFormProblem
    representative: tuple[int, int]
    automorph: tuple[int, int]
    seeds: tuple[tuple[int, int], ...]

    def step(self, pair: tuple[int, int]) -> tuple[int, int]:
        return step(self.automorph, self.problem.d, *pair)

    def elements(self, bound: int, coord: int = 1) -> list[tuple[int, int]]:
        """Orbit members with the chosen coordinate <= bound, sorted by (y, x).

        Forward closure of the seeds; complete because the step map never
        decreases either coordinate on nonnegative pairs (t >= 3).
        """
        if coord not in (1, 2):
            raise ValueError("coord must be 1 or 2")
        seen: set[tuple[int, int]] = set()
        for start in self.seeds:
            x, y = start
            while (x, y)[coord - 1] <= bound:
                seen.add((x, y))
                x, y = self.step((x, y))
        return sorted(seen, key=lambda p: (p[1], p[0]))

    @property
    def sign_class(self) -> tuple[tuple[int, int], ...]:
        """The signed solutions the representative stands for."""
        return sign_variants(self.representative)


@record
class NormFormSolutions:
    """Full class decomposition for one problem."""

    problem: NormFormProblem
    orbits: tuple[SolutionOrbit, ...]
    scan_bound: int


def _seeds(d: int, m: int, ylim: int) -> list[tuple[int, int]]:
    """Every (x, y) with x, y >= 0, y <= ylim and x^2 - d*y^2 = m, by y.

    Only the y whose residue r mod 5040 makes m + d*r^2 a square mod every
    q in _WHEEL are tried, in ascending order; the residues are lifted by
    CRT one q at a time. A perfect square passes every q, so no seed is lost.
    """
    residues, turn = [0], 1
    for q in _WHEEL:
        squares = {r * r % q for r in range(q)}
        residues = [r for a in residues for r in range(a, turn * q, turn)
                    if (m + d * r * r) % q in squares]
        turn *= q
    residues.sort()
    seeds = []
    for base in range(0, ylim + 1, turn):
        for y in residues:
            y += base
            if y > ylim:
                break
            s = m + d * y * y
            if s < 0:
                continue
            x = isqrt(s)
            if x * x == s:
                seeds.append((x, y))
    return seeds


def solution_classes(problem: NormFormProblem) -> NormFormSolutions:
    """Decompose the solutions of x^2 - d y^2 = m into automorph classes.

    Seeds come from a direct scan of y values; the window is wide enough
    that stepping any solution down with the even generator lands in it
    before the coordinates can turn negative, so every class is seeded.
    A window of more than SEED_SCAN_BUDGET y values raises SearchBudgetError
    before _seeds scans it. Seeds are then grouped by their class's least
    member (Nagell's fundamental solution, folded to absolute values), which
    each seed reaches by stepping down.
    """
    d, m = problem.d, problem.m
    data = pell_data(d)
    t, u = data.automorph
    odd = t % 2 == 1
    # the even generator is 2*fundamental: the automorph itself when even,
    # and the cube of an odd automorph eta, since eta^3 = x1 + y1*sqrt(d)
    x1, y1 = data.fundamental
    bt, bu = even_gen = (2 * x1, 2 * y1)
    sm = isqrt(abs(m)) + 1
    sd = isqrt(d)
    ylim = sm * (bt + 2 + (bu + 1) * (sd + 1)) // (2 * sd) + 2
    if ylim + 1 > SEED_SCAN_BUDGET:
        raise SearchBudgetError(
            f"seed scan of x^2 - {d}*y^2 = {m} needs a window of {ylim + 1}"
            f" y values; the budget is {SEED_SCAN_BUDGET}"
        )

    seeds = _seeds(d, m, ylim)

    def gen_for(x: int, y: int) -> tuple[int, int]:
        if not odd or (x - y) % 2 == 0:
            return (t, u)
        return even_gen

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s in seeds:
        groups.setdefault(_least(gen_for(*s), d, *s), []).append(s)

    orbits = []
    for members in groups.values():
        nontrivial = [p for p in members if p[0] and p[1]]
        pool = nontrivial or members
        rep = min(pool, key=lambda p: (p[1], p[0]))
        orbits.append(
            SolutionOrbit(
                problem,
                rep,
                gen_for(*rep),
                tuple(sorted(members, key=lambda p: (p[1], p[0]))),
            )
        )
    orbits.sort(key=lambda o: (o.representative[1], o.representative[0]))
    return NormFormSolutions(problem, tuple(orbits), ylim)


def coordinate_set(
    problem: NormFormProblem,
    coord: int,
    bound: int,
    include_trivial: bool = False,
) -> list[int]:
    """Sorted |x| values (coord=1) or |y| values (coord=2) up to bound.

    By default only solutions with both coordinates nonzero contribute;
    include_trivial adds values coming from solutions with a zero
    coordinate. Zero itself is never listed.

    When solution_classes refuses its window, _within_own_window answers
    from the bound's own y window, or refuses in its place; the values are
    the same either way.
    """
    if coord not in (1, 2):
        raise ValueError("coord must be 1 or 2")
    values: set[int] = set()
    if bound < 1:
        return []
    try:
        # one orbit's elements at a time; the outermost iterable runs here
        pairs = (p for orbit in solution_classes(problem).orbits
                 for p in orbit.elements(bound, coord))
    except SearchBudgetError as refusal:
        pairs = _within_own_window(problem, bound, (coord,), refusal)[coord]
    for x, y in pairs:
        if not include_trivial and (x == 0 or y == 0):
            continue
        v = (x, y)[coord - 1]
        if v >= 1:
            values.add(v)
    return sorted(values)


def _within_own_window(problem: NormFormProblem, bound: int, coords: tuple[int, ...],
                       refusal: SearchBudgetError) -> dict[int, list[tuple[int, int]]]:
    """coord -> the solutions (x, y) >= 0, by y, whose coord-th coordinate
    is at most bound, for a query whose class window was refused.

    y <= bound holds for y in [0, bound], x <= bound for y up to
    isqrt((bound^2 - m) // d). The widest window the coords need is scanned
    once with _seeds; past SEED_SCAN_BUDGET, refusal is raised instead.
    """
    d, m = problem.d, problem.m
    window = max(bound if c == 2 else isqrt(max(bound * bound - m, 0) // d) for c in coords)
    if window >= SEED_SCAN_BUDGET:
        raise refusal
    seeds = _seeds(d, m, window)
    return {coord: [p for p in seeds if p[coord - 1] <= bound] for coord in coords}
