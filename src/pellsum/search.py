"""Bounded Diophantine searches over norm-form coordinate sets, vanishing
pair-sum detection, the exponential counting bound, and the `pairs-search`,
`sunit-search`, `vanishing` and `bound` subcommands.

Every search materializes coordinate sets up to a hard bound B and reports
hits "within B"; the finiteness results themselves are ineffective, so
stabilization counts (hits at half the bound vs the full bound) stand in as
falsifiable evidence.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

from ._records import record
from .errors import InvariantViolationError, SearchBudgetError, UnsupportedOrderError
from .normform import NormFormProblem, solution_classes

# The recurrence and S-unit layers are imported inside the kernels that use
# them, so a job loads only its own (the cli module docstring says why).


def resolve_shard_count() -> int:
    """Always 1: every search runs in one pass in this process.

    Kept only for the benchmark's environment probe, which prints it.
    """
    return 1


# -- membership index -------------------------------------------------------


def coordinate_index(
    problem: NormFormProblem, bound: int
) -> dict[int, dict[int, tuple[int, int]]]:
    """value -> witness solution, for each coordinate, nontrivial view.

    Each listed value keeps the smallest solution pair realizing it; every
    entry is re-verified against the form equation on insertion.
    """
    index: dict[int, dict[int, tuple[int, int]]] = {1: {}, 2: {}}
    for orbit in solution_classes(problem).orbits:
        for coord in (1, 2):
            for x, y in orbit.elements(bound, coord):
                if x == 0 or y == 0:
                    continue
                v = (x, y)[coord - 1]
                if not 1 <= v <= bound:
                    continue
                if problem.norm_of((x, y)) != problem.m:
                    raise InvariantViolationError(f"bad orbit element {(x, y)}")
                prev = index[coord].get(v)
                if prev is None or (x, y) < prev:
                    index[coord][v] = (x, y)
    return index


def _memberships(index, value: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    return tuple(
        (coord, index[coord][value]) for coord in (1, 2) if value in index[coord]
    )


# -- pair-sum search --------------------------------------------------------


@record
class PairHit:
    """U_{n1} + U_{n2} landed in a coordinate set; memberships lists
    (coordinate, witness solution) for every set containing the value."""

    n1: int
    n2: int
    value: int
    memberships: tuple[tuple[int, tuple[int, int]], ...]


@record
class SUnitHit:
    entries: tuple[Fraction, ...]
    total: Fraction
    memberships: tuple[tuple[int, tuple[int, int]], ...]
    certificate: SubsumCertificate


@record
class SearchReport:
    kind: str
    problem: NormFormProblem
    bounds: tuple[tuple[str, int], ...]
    hits: tuple
    hypotheses: RecurrenceHypotheses | None
    hypotheses_note: str | None
    stabilization: tuple[int, int]
    wall_time: float

    @property
    def stable(self) -> bool:
        """Same hit count in the half-bound box as in the full box."""
        return self.stabilization[0] == self.stabilization[1]


def pair_sum_search(
    rec: LinearRecurrence,
    problem: NormFormProblem,
    nbound: int,
    coordbound: int,
) -> SearchReport:
    """All pairs n1 <= n2 <= nbound with U_{n1} + U_{n2} in X1 or X2 (values
    materialized up to coordbound).

    Membership uses the nontrivial positive-value view of the coordinate
    sets, which holds values in [1, coordbound] only. With the indices
    sorted by term once, a bisection picks for each n1 the n2 >= n1 with
    U_{n2} in [1 - U_{n1}, coordbound - U_{n1}]. Hits come out ordered by
    (n1, n2).
    """
    from .recurrences import audit_hypotheses, terms_up_to

    if nbound < 1 or coordbound < 1:
        raise ValueError("bounds must be >= 1")
    start = time.perf_counter()
    terms = terms_up_to(rec, nbound)
    index = coordinate_index(problem, coordbound)
    by_value = sorted(range(nbound + 1), key=terms.__getitem__)
    sorted_terms = [terms[n] for n in by_value]

    collected: list[PairHit] = []
    x1_values, x2_values = index[1], index[2]
    # one memberships tuple per hit value, shared by every hit on it; misses
    # are not stored, so the table grows with the hits, not the candidates
    shared: dict[int, tuple] = {}
    for n1 in range(nbound + 1):
        u1 = terms[n1]
        lo = bisect_left(sorted_terms, 1 - u1)
        hi = bisect_right(sorted_terms, coordbound - u1)
        found = []
        for n2 in by_value[lo:hi]:
            if n2 >= n1:
                s = u1 + terms[n2]
                if s not in x1_values and s not in x2_values:
                    continue
                hits_in = shared.get(s)
                if hits_in is None:
                    hits_in = shared[s] = _memberships(index, s)
                found.append(PairHit(n1, n2, s, hits_in))
        collected.extend(sorted(found, key=lambda h: h.n2))

    half = nbound // 2
    at_half = sum(1 for h in collected if h.n2 <= half)
    hypotheses, note = None, None
    try:
        hypotheses = audit_hypotheses(rec)
    except UnsupportedOrderError as exc:
        note = f"hypothesis audit unavailable: {exc}"

    return SearchReport(
        kind="pair-sum",
        problem=problem,
        bounds=(("index_bound", nbound), ("coord_bound", coordbound)),
        hits=tuple(collected),
        hypotheses=hypotheses,
        hypotheses_note=note,
        stabilization=(at_half, len(collected)),
        wall_time=time.perf_counter() - start,
    )


# -- S-unit sum search -------------------------------------------------------

# Lookups sunit_sum_search may make before it refuses. A lookup takes
# 0.15-0.5 us, so the budget keeps a search to a few seconds; the
# catalogue's largest S-unit job needs about 2.3e5.
SUNIT_LOOKUP_BUDGET = 10**7
# Building one S-unit and its Fraction value costs about 20 us, so the
# estimate counts each unit as this many lookups.
_LOOKUPS_PER_UNIT = 100


def sunit_sum_search(
    basis: SPrimeSet,
    tuple_size: int,
    expbound: int,
    problem: NormFormProblem,
    coordbound: int,
) -> SearchReport:
    """All size-t multisets of S-units (every |b_i| <= expbound) whose sum
    lies in X1 or X2 and whose nonempty subsums all stay nonzero.

    Every unit times scale = prod p^expbound is an integer, so a multiset
    is a hit exactly when its scaled sum is x*scale for a coordinate value
    x, and every such x lies in [1, coordbound]. Each (t-1)-multiset prefix
    of unit indices is summed once; for each x, the last unit is looked up
    as x*scale minus the prefix sum in a dict from scaled value to unit
    index (distinct S-units have distinct values). A unit found below the
    prefix's last index is skipped, so each multiset is found once.

    The work is C(|U|+t-2, t-1) prefixes times |X| lookups, after |U| units
    are built. An estimate past SUNIT_LOOKUP_BUDGET raises SearchBudgetError
    before any unit is built.

    Hits record the certificate; entries are reported in ascending value
    order, hits by (total, entries).
    """
    from .sunits import enumerate_sunits, subsums_nonvanishing

    if not 1 <= tuple_size <= 4:
        raise ValueError("tuple size must be between 1 and 4")
    if coordbound < 1:
        raise ValueError("coordinate bound must be >= 1")
    if expbound < 0:
        raise ValueError("exponent bound must be >= 0")
    start = time.perf_counter()
    index = coordinate_index(problem, coordbound)
    targets = index[1].keys() | index[2].keys()
    unit_count = 2 * (2 * expbound + 1) ** len(basis)
    # each prefix is summed once even with no coordinate values
    prefixes = comb(unit_count + tuple_size - 2, tuple_size - 1)
    lookups = prefixes * max(len(targets), 1) + unit_count * _LOOKUPS_PER_UNIT
    if lookups > SUNIT_LOOKUP_BUDGET:
        raise SearchBudgetError(
            f"S-unit search estimated at {lookups} lookups ({unit_count} units,"
            f" {prefixes} prefixes, {len(targets)} coordinate values);"
            f" the budget is {SUNIT_LOOKUP_BUDGET}"
        )
    units = list(enumerate_sunits(basis, expbound))
    values = [u.value for u in units]
    scale = prod(p**expbound for p in basis.primes)
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    position = {s: k for k, s in enumerate(scaled)}
    goals = [(x, x * scale) for x in targets]
    half_box = {
        i for i, u in enumerate(units) if all(abs(b) <= expbound // 2 for b in u.exponents)
    }

    collected: list[tuple] = []
    for prefix in combinations_with_replacement(range(len(units)), tuple_size - 1):
        partial = sum(scaled[k] for k in prefix)
        last = prefix[-1] if prefix else 0
        for x, goal in goals:
            k = position.get(goal - partial)
            if k is None or k < last:
                continue
            picked = prefix + (k,)
            entry_vals = tuple(sorted(values[j] for j in picked))
            cert = subsums_nonvanishing(entry_vals)
            if cert.ok:
                hit = SUnitHit(entry_vals, Fraction(x), _memberships(index, x), cert)
                collected.append((hit, all(j in half_box for j in picked)))
    collected.sort(key=lambda pair: (pair[0].total, pair[0].entries))
    at_half = sum(1 for _, in_half in collected if in_half)
    hits = tuple(h for h, _ in collected)

    return SearchReport(
        kind="sunit-sum",
        problem=problem,
        bounds=(
            ("tuple_size", tuple_size),
            ("exp_bound", expbound),
            ("coord_bound", coordbound),
        ),
        hits=hits,
        hypotheses=None,
        hypotheses_note=None,
        stabilization=(at_half, len(hits)),
        wall_time=time.perf_counter() - start,
    )


# -- vanishing pair sums ------------------------------------------------------


def vanishing_pair_sums(
    rec: LinearRecurrence, nbound: int
) -> list[tuple[int, int, tuple[int, ...]]]:
    """All (n1 <= n2 <= nbound, delta) with sum over i in delta of
    f_i*(alpha_i^{n1} + alpha_i^{n2}) exactly zero.

    delta ranges over {1}, {2} (the per-root conditions) and {1, 2} (the
    full sum U_{n1} + U_{n2} = 0). With k = n2 - n1, the root-i part
    f_i*alpha_i^{n1}*(1 + alpha_i^k) is zero exactly when f_i = 0 or
    alpha_i has even order r and k = r/2 (mod r); a root of unity in Q or a
    quadratic field has order at most 6, so root_of_unity_order decides it.
    The full sum is tested on the integer terms. (0, 0) counts when U_0 = 0.
    """
    from .recurrences import binet, root_of_unity_order, terms_up_to

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


# -- counting bound ----------------------------------------------------------


# Bits schlickewei_bound may build before it refuses. Building the integer is
# cheap, but describe_bound counts its decimal digits in time superlinear in
# the bit length: `bound --s 3 --degrees 4` (A = 35, 1.5e6 bits) answers in
# about a second, `--s 3 --degrees 6` (A = 84, 2.1e7 bits) took 41 s.
BOUND_BIT_BUDGET = 2**21


def schlickewei_bound(dims: int, degrees: list[int], field_degree: int) -> int:
    """2^(35*A^3) * D^(6*A^2) with A = max(dims, sum of C(dims+delta, dims)).

    Exact big integer; pair with describe_bound for display. The bit length
    is estimated as 35*A^3 + 6*A^2*D.bit_length() before any power is
    taken; an estimate past BOUND_BIT_BUDGET raises SearchBudgetError.
    """
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if field_degree < 1:
        raise ValueError("field degree must be >= 1")
    if not degrees:
        raise ValueError("need at least one degree")
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be >= 0")
    a = max(dims, sum(comb(dims + delta, dims) for delta in degrees))
    two_exp, field_exp = 35 * a**3, 6 * a**2
    bits = two_exp + field_exp * field_degree.bit_length()
    if bits > BOUND_BIT_BUDGET:
        raise SearchBudgetError(
            f"counting bound estimated at {bits} bits (A = {a});"
            f" the budget is {BOUND_BIT_BUDGET} bits"
        )
    return 2**two_exp * field_degree**field_exp


def digit_count(n: int) -> int:
    """Exact decimal length of |n| without going through str()."""
    n = abs(n)
    # bit_length * log10(2) is within one of the answer: build that one power
    # of ten and step it by factors of ten, each a linear-time operation
    d = max(1, int(n.bit_length() * 0.30103))
    power = 10**d
    while power <= n:
        power *= 10
        d += 1
    while d > 1 and power // 10 > n:
        power //= 10
        d -= 1
    return d


def _int_str(n: int) -> str:
    # split-and-pad around the interpreter's int-to-str digit cap
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() < 10000:
        return str(n)
    k = digit_count(n) // 2
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


# Longest bound, in decimal digits, that describe_bound writes out in full.
FULL_DIGIT_LIMIT = 10**4


def describe_bound(n: int, *, digits: int | None = None) -> str:
    """Full decimal rendering up to FULL_DIGIT_LIMIT digits, sketch past it.

    digits, when given, must be digit_count(n); a caller that already
    counted them saves a second count, which dominates for large n.
    """
    if digits is None:
        digits = digit_count(n)
    if digits <= FULL_DIGIT_LIMIT:
        return _int_str(n)
    lead = _int_str(n // 10 ** (digits - 12))
    return f"{lead[0]}.{lead[1:]}e+{digits - 1} ({digits} digits)"


# -- subcommand handlers (cli.main dispatches here) ----------------------------


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _membership_json(memberships) -> list[dict]:
    return [{"coord": coord, "solution": list(pair)} for coord, pair in memberships]


def _search_json(report) -> dict:
    out = {
        "kind": report.kind,
        "d": report.problem.d,
        "m": report.problem.m,
        "bounds": dict(report.bounds),
        "hit_count": len(report.hits),
        "stabilization": {
            "half_box_hits": report.stabilization[0],
            "full_hits": report.stabilization[1],
            "stable": report.stable,
        },
    }
    if report.kind == "pair-sum":
        from .recurrences import _hypotheses_json

        out["hits"] = [
            {
                "n1": hit.n1,
                "n2": hit.n2,
                "value": hit.value,
                "memberships": _membership_json(hit.memberships),
            }
            for hit in report.hits
        ]
        out["hypotheses"] = (
            _hypotheses_json(report.hypotheses) if report.hypotheses else None
        )
        out["hypotheses_note"] = report.hypotheses_note
    else:
        out["hits"] = [
            {
                "entries": [str(e) for e in hit.entries],
                "total": str(hit.total),
                "memberships": _membership_json(hit.memberships),
                "certificate": {
                    "ok": hit.certificate.ok,
                    "vanishing": list(hit.certificate.vanishing)
                    if hit.certificate.vanishing
                    else None,
                    "size": hit.certificate.size,
                },
            }
            for hit in report.hits
        ]
    return out


def _search_summary(report) -> list[str]:
    lines = [
        f"{report.kind} search over x^2 - {report.problem.d}*y^2 = {report.problem.m}",
        "bounds: " + ", ".join(f"{name} = {value}" for name, value in report.bounds),
        f"hits: {len(report.hits)}",
    ]
    for hit in report.hits[:20]:
        where = ", ".join(
            f"X{coord} via {tuple(pair)}" for coord, pair in hit.memberships
        )
        if report.kind == "pair-sum":
            lines.append(f"  U_{hit.n1} + U_{hit.n2} = {hit.value} in {where}")
        else:
            entries = " + ".join(str(e) for e in hit.entries)
            lines.append(f"  {entries} = {hit.total} in {where}")
    if len(report.hits) > 20:
        lines.append(f"  ... {len(report.hits) - 20} more")
    half, full = report.stabilization
    lines.append(
        f"stabilization: {half} hits in the half box, {full} total"
        + (" (stable)" if report.stable else " (still growing)")
    )
    if report.kind == "pair-sum":
        if report.hypotheses is not None:
            verdict = "hold" if report.hypotheses.applicable else "FAIL"
            lines.append(f"finiteness hypotheses {verdict}")
        elif report.hypotheses_note:
            lines.append(report.hypotheses_note)
    lines.append(f"wall time {report.wall_time:.3f}s")
    return lines


def _cmd_pairs_search(args):
    from .recurrences import LinearRecurrence, _rec_config

    rec = LinearRecurrence.from_literal(args.rec)
    problem = NormFormProblem(args.d, args.m)
    report = pair_sum_search(rec, problem, args.index_bound, args.coord_bound)
    return {"rec": _rec_config(rec)}, _search_json(report), _search_summary(report)


def _cmd_sunit_search(args):
    from .sunits import SPrimeSet

    basis = SPrimeSet(tuple(_csv_ints(args.primes)))
    problem = NormFormProblem(args.d, args.m)
    report = sunit_sum_search(
        basis, args.tuple_size, args.exp_bound, problem, args.coord_bound
    )
    return {"primes": list(basis.primes)}, _search_json(report), _search_summary(report)


def _cmd_vanishing(args):
    from .recurrences import LinearRecurrence, _rec_config

    rec = LinearRecurrence.from_literal(args.rec)
    hits = vanishing_pair_sums(rec, args.n)
    results = {
        "count": len(hits),
        # the writer builds each hit's dict as it reaches it
        "hits": ({"n1": n1, "n2": n2, "delta": list(delta)} for n1, n2, delta in hits),
    }
    lines = [f"{len(hits)} vanishing subsum(s) with n1 <= n2 <= {args.n}"]
    for n1, n2, delta in hits[:20]:
        part = "full sum" if delta == (1, 2) else f"root {delta[0]} part"
        lines.append(f"  (n1, n2) = ({n1}, {n2}), {part}")
    if len(hits) > 20:
        lines.append(f"  ... {len(hits) - 20} more")
    return {"rec": _rec_config(rec)}, results, lines


def _cmd_bound(args):
    degrees = _csv_ints(args.degrees)
    value = schlickewei_bound(args.s, degrees, args.field_degree)
    digits = digit_count(value)
    shown = describe_bound(value, digits=digits)
    results = {"digits": digits, "value": shown}
    lines = [
        f"bound for {args.s} variable(s), degrees {degrees}, "
        f"field degree {args.field_degree}:",
        f"  {shown}" + (f" ({digits} digits)" if digits <= FULL_DIGIT_LIMIT else ""),
    ]
    return {"degrees": degrees}, results, lines
