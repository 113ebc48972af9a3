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
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

from ._records import record
from .errors import InvariantViolationError, SearchBudgetError, UnsupportedOrderError
from .normform import NormFormProblem, _within_own_window, solution_classes

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
    entry is re-verified against the form equation on insertion. A refused
    class window is answered, or refused, by normform._within_own_window.
    """
    index: dict[int, dict[int, tuple[int, int]]] = {1: {}, 2: {}}
    try:
        # the outermost iterable runs here, so a refusal is caught
        found = ((coord, orbit.elements(bound, coord))
                 for orbit in solution_classes(problem).orbits for coord in (1, 2))
    except SearchBudgetError as refusal:
        found = _within_own_window(problem, bound, (1, 2), refusal).items()
    for coord, pairs in found:
        for x, y in pairs:
            if x == 0 or y == 0:
                continue
            v = (x, y)[coord - 1]
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
    except (UnsupportedOrderError, SearchBudgetError) as exc:
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
# The estimate counts building a unit as this many lookups. A unit's scaled
# integer and half-box flag now take about 0.3 us (29,282 units over
# {2,3,5,7} at E = 5, with their lookups); the weight stays at the 6 us the
# units took as records, so the same inputs refuse.
_LOOKUPS_PER_UNIT = 20


def sunit_sum_search(
    basis: SPrimeSet,
    tuple_size: int,
    expbound: int,
    problem: NormFormProblem,
    coordbound: int,
) -> SearchReport:
    """All size-t multisets of S-units (every |b_i| <= expbound) whose sum
    lies in X1 or X2 and whose nonempty subsums all stay nonzero.

    Every unit times scale = prod p^expbound is the integer
    sign * prod p^(b + expbound), so a multiset is a hit exactly when its
    scaled sum is x*scale for a coordinate value x, and every such x lies in
    [1, coordbound]. The scaled integers and the half-box flags are built
    straight from the exponent vectors, in enumerate_sunits' order; distinct
    S-units have distinct values. Each (t-1)-multiset prefix of unit indices
    is summed once, and its completions are one set intersection on the
    smaller side: its sum plus each unit at or after its last index against
    the goals x*scale, or each goal minus its sum against the units (a unit
    found below the last index is skipped), so each multiset is found once.
    subsums_nonvanishing checks the scaled entries, and a unit's Fraction
    is built once, for the tuples a lookup finds.

    The work is C(|U|+t-2, t-1) prefixes times min(|U|, |X|) lookups, after
    |U| units are built. An estimate past SUNIT_LOOKUP_BUDGET raises
    SearchBudgetError before any unit is built.

    Hits record the certificate; entries are reported in ascending value
    order, hits by (total, entries), which is the order of (x, scaled
    entries) since scale > 0.
    """
    from .sunits import subsums_nonvanishing

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
    # exponent vectors in lexicographic order, the first prime outermost;
    # each magnitude is p^(b + E) multiplied out, taken with sign +1, then -1
    exps = range(-expbound, expbound + 1)
    magnitudes, in_half = [1], [True]
    for p in basis.primes:
        magnitudes = [m * p ** (b + expbound) for m in magnitudes for b in exps]
        in_half = [h and abs(b) <= expbound // 2 for h in in_half for b in exps]
    scaled = [s for m in magnitudes for s in (m, -m)]
    in_half = [h for h in in_half for _ in (1, -1)]
    scale = prod(p**expbound for p in basis.primes)
    position = {s: k for k, s in enumerate(scaled)}
    goals = {x * scale for x in targets}

    found = []
    for prefix in combinations_with_replacement(range(len(scaled)), tuple_size - 1):
        partial = sum(map(scaled.__getitem__, prefix))
        last = prefix[-1] if prefix else 0
        if len(scaled) - last <= len(goals):
            ends = [position[g - partial] for g in goals.intersection(
                map(partial.__add__, scaled[last:]))]
        else:
            ends = [k for k in map(position.__getitem__, position.keys() & map(
                partial.__rsub__, goals)) if k >= last]
        for k in ends:
            picked = sorted(prefix + (k,), key=scaled.__getitem__)
            entries = tuple(scaled[j] for j in picked)
            cert = subsums_nonvanishing(entries)
            if cert.ok:
                found.append(((sum(entries) // scale, entries), picked, cert))
    found.sort(key=lambda hit: hit[0])
    fraction = {k: Fraction(scaled[k], scale) for _, picked, _ in found for k in picked}
    hits = tuple(
        SUnitHit(tuple(map(fraction.__getitem__, picked)), Fraction(x),
                 _memberships(index, x), cert)
        for (x, _), picked, cert in found
    )
    at_half = sum(1 for _, picked, _ in found if all(in_half[k] for k in picked))

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
    f_i*(alpha_i^{n1} + alpha_i^{n2}) exactly zero, ordered by (n1, n2) and
    then delta as (1,), (2,), (1, 2).

    delta ranges over {1}, {2} (the per-root conditions) and {1, 2} (the
    full sum U_{n1} + U_{n2} = 0). With k = n2 - n1, the root-i part
    f_i*alpha_i^{n1}*(1 + alpha_i^k) is zero exactly when f_i = 0 or
    alpha_i has even order r and k = r/2 (mod r); a root of unity in Q or a
    quadratic field has order at most 6, so root_of_unity_order decides it.
    The full sum vanishes where U_{n2} = -U_{n1}, found in a dict from each
    term value to its ascending indices. (0, 0) counts when U_0 = 0.

    For each n1 the candidates are read off those progressions and index
    lists, never tested pair by pair, so the time after the terms is about
    O(N + hits). Each candidate n2 is coded as 3*n2 + kind, with kind 0, 1
    and 2 for delta (1,), (2,) and (1, 2), so that one integer sort merges a
    row's ascending runs in hit order.
    """
    from .recurrences import binet, root_of_unity_order, terms_up_to

    if nbound < 1:
        raise ValueError("nbound must be >= 1")
    form = binet(rec)
    stop = 3 * (nbound + 1)
    # (kind, s, r) per root: its part vanishes exactly when k = s (mod r)
    rules = []
    for kind, (f, alpha) in enumerate(zip(form.coeffs, form.roots)):
        r = root_of_unity_order(alpha)
        if not f:
            rules.append((kind, 0, 1))
        elif r is not None and r % 2 == 0:
            rules.append((kind, r // 2, r))
    terms = terms_up_to(rec, nbound)
    where: dict[int, list[int]] = {}
    for n, u in enumerate(terms):
        where.setdefault(u, []).append(3 * n + 2)
    decoded = [(n, delta) for n in range(nbound + 1) for delta in _DELTAS]  # code -> (n2, delta)
    out = []
    for n1, u1 in enumerate(terms):
        row = [code for kind, s, r in rules for code in range(3 * (n1 + s) + kind, stop, 3 * r)]
        cancel = where.get(-u1)
        if cancel:
            row += cancel[bisect_left(cancel, 3 * n1):]
        row.sort()
        out += [(n1, *decoded[code]) for code in row]
    return out


# the delta of each kind a vanishing_pair_sums candidate is coded with
_DELTAS = ((1,), (2,), (1, 2))


# -- counting bound ----------------------------------------------------------


# Bits schlickewei_bound may build before it refuses. The integer and its
# decimal text (_decimal) take quasi-linear time: `bound --s 3 --degrees 4`
# (A = 35, 1.5e6 bits) answers in 0.16 s, and the 2.1e7 bits of `--degrees 6`
# (A = 84) would convert in 1.3 s (Python 3.11, 2-core VM).
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


# Widest integer, in bits, that _decimal hands to int.__repr__ (quadratic in
# time), well under the interpreter's default cap of 4,300 digits.
_REPR_BITS = 14000


def _decimal(n: int) -> str:
    """Decimal text of n in quasi-linear time, past any digit cap: n is split
    at half its width w and recombined as hi * 2^w + lo in decimal, whose
    MAX_PREC arithmetic is exact. Each 2^w is built once per call."""
    if n.bit_length() <= _REPR_BITS:
        return int.__repr__(n)
    powers: dict[int, Decimal] = {}

    def convert(n: int, width: int) -> Decimal:
        if width <= _REPR_BITS:
            return Decimal(n)
        w = width // 2
        if w not in powers:
            powers[w] = Decimal(2) ** w
        return convert(n >> w, width - w) * powers[w] + convert(n & ((1 << w) - 1), w)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        return str(convert(n, n.bit_length()))


def digit_count(n: int) -> int:
    """Exact decimal length of |n|."""
    return len(_decimal(abs(n)))


# Longest bound, in decimal digits, that describe_bound writes out in full.
FULL_DIGIT_LIMIT = 10**4


def describe_bound(n: int) -> str:
    """Full decimal rendering up to FULL_DIGIT_LIMIT digits, sketch past it."""
    return _sketch(_decimal(n))


def _sketch(text: str) -> str:
    sign, digits = ("-", text[1:]) if text[0] == "-" else ("", text)
    count = len(digits)
    if count <= FULL_DIGIT_LIMIT:
        return text
    return f"{sign}{digits[0]}.{digits[1:12]}e+{count - 1} ({count} digits)"


# -- subcommand handlers (cli.main dispatches here) ----------------------------


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _membership_json(memberships) -> list[dict]:
    return [{"coord": coord, "solution": pair} for coord, pair in memberships]


def _search_output(report, hits, hit_lines, tail=()) -> tuple[dict, list[str]]:
    """The results and text lines every search document shares, around the
    caller's hit rows, its text for each of the first 20 hits (each line
    ends with the coordinate sets holding the hit's value), and its lines
    that go before the wall time."""
    half, full = report.stabilization
    results = {
        "kind": report.kind,
        "d": report.problem.d,
        "m": report.problem.m,
        "bounds": dict(report.bounds),
        "hit_count": len(report.hits),
        "hits": hits,
        "stabilization": {
            "half_box_hits": half,
            "full_hits": full,
            "stable": report.stable,
        },
    }
    lines = [
        f"{report.kind} search over x^2 - {report.problem.d}*y^2 = {report.problem.m}",
        "bounds: " + ", ".join(f"{name} = {value}" for name, value in report.bounds),
        f"hits: {len(report.hits)}",
    ]
    for hit, text in zip(report.hits, hit_lines):
        where = ", ".join(f"X{coord} via {pair}" for coord, pair in hit.memberships)
        lines.append(f"  {text} in {where}")
    if len(report.hits) > 20:
        lines.append(f"  ... {len(report.hits) - 20} more")
    lines.append(
        f"stabilization: {half} hits in the half box, {full} total"
        + (" (stable)" if report.stable else " (still growing)")
    )
    lines += tail
    lines.append(f"wall time {report.wall_time:.3f}s")
    return results, lines


def _cmd_pairs_search(args):
    from .recurrences import LinearRecurrence, _hypotheses_json, _rec_config

    rec = LinearRecurrence.from_literal(args.rec)
    problem = NormFormProblem(args.d, args.m)
    report = pair_sum_search(rec, problem, args.index_bound, args.coord_bound)
    hyp = report.hypotheses
    hits = [
        {
            "n1": hit.n1,
            "n2": hit.n2,
            "value": hit.value,
            "memberships": _membership_json(hit.memberships),
        }
        for hit in report.hits
    ]
    hit_lines = [f"U_{hit.n1} + U_{hit.n2} = {hit.value}" for hit in report.hits[:20]]
    # pair_sum_search sets exactly one of the audit and the note
    if hyp is not None:
        note = f"finiteness hypotheses {'hold' if hyp.applicable else 'FAIL'}"
    else:
        note = report.hypotheses_note
    results, lines = _search_output(report, hits, hit_lines, [note])
    results["hypotheses"] = _hypotheses_json(hyp) if hyp is not None else None
    results["hypotheses_note"] = report.hypotheses_note
    return {"rec": _rec_config(rec)}, results, lines


def _cmd_sunit_search(args):
    from .sunits import SPrimeSet

    basis = SPrimeSet(tuple(_csv_ints(args.primes)))
    problem = NormFormProblem(args.d, args.m)
    report = sunit_sum_search(
        basis, args.tuple_size, args.exp_bound, problem, args.coord_bound
    )
    hits = [
        {
            "entries": [str(e) for e in hit.entries],
            "total": str(hit.total),
            "memberships": _membership_json(hit.memberships),
            "certificate": {
                "ok": hit.certificate.ok,
                "vanishing": hit.certificate.vanishing,
                "size": hit.certificate.size,
            },
        }
        for hit in report.hits
    ]
    hit_lines = [
        f"{' + '.join(map(str, hit.entries))} = {hit.total}" for hit in report.hits[:20]
    ]
    results, lines = _search_output(report, hits, hit_lines)
    return {"primes": basis.primes}, results, lines


def _cmd_vanishing(args):
    from .cli import RecordTable
    from .recurrences import LinearRecurrence, _rec_config

    rec = LinearRecurrence.from_literal(args.rec)
    hits = vanishing_pair_sums(rec, args.n)
    results = {
        "count": len(hits),
        # the writer renders each row without building its dict
        "hits": RecordTable(
            ("delta", "n1", "n2"), ((delta, n1, n2) for n1, n2, delta in hits)
        ),
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
    text = _decimal(schlickewei_bound(args.s, degrees, args.field_degree))
    digits, shown = len(text), _sketch(text)
    results = {"digits": digits, "value": shown}
    lines = [
        f"bound for {args.s} variable(s), degrees {degrees}, "
        f"field degree {args.field_degree}:",
        f"  {shown}" + (f" ({digits} digits)" if digits <= FULL_DIGIT_LIMIT else ""),
    ]
    return {"degrees": degrees}, results, lines
