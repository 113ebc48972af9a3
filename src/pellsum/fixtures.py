"""Replay checks for the recorded worked examples shipped with the package.

Three fixtures are bundled, with opaque ids "2.3", "2.4" and "2.5".  Each
records a norm-form problem, a recurrence and the claims made about them,
including two claims that are wrong as stated.  ``verify_remark``
recomputes everything from scratch and reports agreement check by check;
disagreements the records themselves document come back in the
``discrepancies`` field rather than as failures.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from ._records import record
from .errors import UnknownRemarkError
from .normform import NormFormProblem, coordinate_set
from .pell import _pell_results, pell_data
from .quadfield import QuadNum
from .recurrences import (
    LinearRecurrence,
    binet,
    is_degenerate,
    roots_multiplicatively_independent,
    terms_up_to,
)
from .search import coordinate_index, pair_sum_search

@record
class CheckResult:
    """One recomputed claim: what the record says next to what we got."""

    name: str
    passed: bool
    expected: str
    computed: str


@record
class FixtureReport:
    remark_id: str
    bound: int
    checks: tuple[CheckResult, ...]
    discrepancies: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def agreement(self) -> bool:
        return all(check.passed for check in self.checks)


def load_fixture(remark_id: str) -> dict:
    """Return the raw recorded data for one fixture id."""
    try:
        filename, _ = _FIXTURES[remark_id]
    except KeyError:
        known = ", ".join(sorted(_FIXTURES))
        raise UnknownRemarkError(
            f"unknown fixture id {remark_id!r}; shipped ids are {known}"
        ) from None
    # a plain path next to this module: importlib.resources would load
    # typing, tempfile and zipfile on every verify-remark job
    path = os.path.join(os.path.dirname(__file__), "fixtures", filename)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check(name: str, passed: bool, expected: object, computed: object) -> CheckResult:
    return CheckResult(name, bool(passed), str(expected), str(computed))


def _pell_check(name: str, d: int, stated: dict) -> CheckResult:
    """Compare the `pell` results for d with the keys the record states, in its order."""
    results = _pell_results(pell_data(d))
    computed = {key: results[key] for key in stated}
    return _check(name, computed == stated, stated, computed)


def _quadnum_from(record: dict) -> QuadNum:
    return QuadNum(Fraction(record["x"]), Fraction(record["y"]), record["d"])


def _pair_count_check(data: dict, rec: LinearRecurrence,
                      problem: NormFormProblem, bound: int) -> CheckResult:
    search = data["pair_search"]
    report = pair_sum_search(rec, problem, bound, search["coord_bound"])
    count = len(report.hits)
    refs = {int(k): v for k, v in search["reference_counts"].items()}
    if bound in refs:
        return _check("pair hit count", count == refs[bound], refs[bound], count)
    # No recorded count at this bound; hit sets only grow with the index
    # bound, so every recorded count at a smaller bound is a floor.
    floors = {n: c for n, c in refs.items() if n <= bound}
    if floors:
        least = max(floors.values())
        return _check("pair hit count", count >= least, f">= {least}", count)
    return _check("pair hit count", True, "unrecorded bound", count)


def _verify_2_3(data: dict, problem: NormFormProblem, rec: LinearRecurrence,
               bound: int) -> list[CheckResult]:
    checks = []

    x1 = coordinate_set(problem, 1, data["x1"]["bound"])
    checks.append(_check("x1 prefix", x1 == data["x1"]["values"],
                         data["x1"]["values"], x1))
    x2 = coordinate_set(problem, 2, data["x2"]["bound"])
    checks.append(_check("x2 prefix", x2 == data["x2"]["values"],
                         data["x2"]["values"], x2))

    checks.append(_pell_check("continued fraction and units", problem.d, data["pell"]))

    # Recorded claim: in orbit order, every third value is even and the
    # rest are odd, in both coordinate sets.
    parity = all((v % 2 == 0) == (i % 3 == 2)
                 for values in (x1, x2) for i, v in enumerate(values))
    checks.append(_check("every third value even", parity is data["every_third_even"],
                         data["every_third_even"], parity))

    checks.append(_pair_count_check(data, rec, problem, bound))
    return checks


def _verify_2_4(data: dict, problem: NormFormProblem, rec: LinearRecurrence,
               bound: int) -> list[CheckResult]:
    checks = []

    pattern = data["period"]
    terms = terms_up_to(rec, bound)
    periodic = all(term == pattern[n % len(pattern)] for n, term in enumerate(terms))
    checks.append(_check(f"terms repeat {pattern} up to n = {bound}",
                         periodic, True, periodic))

    views = data["x1_views"]
    nontrivial = coordinate_set(problem, 1, views["bound"])
    checks.append(_check("x1 without trivial solutions",
                         nontrivial == views["nontrivial"],
                         views["nontrivial"], nontrivial))
    full = coordinate_set(problem, 1, views["bound"], include_trivial=True)
    checks.append(_check("x1 with trivial solutions",
                         full == views["with_trivial"],
                         views["with_trivial"], full))

    member = data["member"]
    checks.append(_check(f"{member} is an x1 value", member in nontrivial,
                         True, member in nontrivial))

    want = data["degeneracy"]
    verdict = is_degenerate(rec)
    deg_ok = (verdict.degenerate is want["degenerate"]
              and verdict.unity_order == want["unity_order"]
              and want["detail_contains"] in verdict.detail)
    checks.append(_check("degenerate with a cube root of unity ratio", deg_ok,
                         want, {"degenerate": verdict.degenerate,
                                "unity_order": verdict.unity_order,
                                "detail": verdict.detail}))

    count_check = _pair_count_check(data, rec, problem, bound)
    checks.append(count_check)
    floor = data["pair_search"]["min_hits"]
    if bound >= floor["at"]:
        count = int(count_check.computed)
        checks.append(_check(f"at least {floor['count']} pair hits",
                             count >= floor["count"], f">= {floor['count']}", count))
    return checks


def _verify_2_5(data: dict, problem: NormFormProblem, rec: LinearRecurrence,
               bound: int) -> list[CheckResult]:
    checks = []

    first = data["first_terms"]
    terms = terms_up_to(rec, bound + 1)
    checks.append(_check("first terms", terms[:len(first)] == first,
                         first, terms[:len(first)]))

    form = binet(rec)
    want = data["binet"]
    f1 = _quadnum_from(want["f1"])
    roots = tuple(_quadnum_from(r) for r in want["roots"])
    binet_ok = (form.discriminant == want["discriminant"]
                and form.roots == roots
                and form.coeffs == (f1, -f1))
    checks.append(_check("closed form", binet_ok,
                         {"discriminant": want["discriminant"],
                          "f1": str(f1), "roots": [str(r) for r in roots]},
                         {"discriminant": form.discriminant,
                          "f1": str(form.coeffs[0]),
                          "roots": [str(r) for r in form.roots]}))

    dep = data["dependence"]
    verdict = roots_multiplicatively_independent(*form.roots, dep["expbound"])
    dep_ok = verdict.dependent and verdict.witness == tuple(dep["witness"])
    checks.append(_check("roots multiplicatively dependent", dep_ok,
                         {"witness": dep["witness"]},
                         {"dependent": verdict.dependent,
                          "witness": verdict.witness}))

    checks.append(_pell_check("fundamental solution and automorph", problem.d,
                              data["pell"]))

    sums = [terms[n] + terms[n + 1] for n in range(bound + 1)]
    index = coordinate_index(problem, max(sums))
    x1_all = all(s in index[1] for s in sums)
    x2_indices = [n for n, s in enumerate(sums) if s in index[2]]
    want_members = data["computed_membership"]
    checks.append(_check(f"every sum up to n = {bound} is an x1 value",
                         x1_all is want_members["x1_all"],
                         want_members["x1_all"], x1_all))
    checks.append(_check("sums that are also x2 values",
                         x2_indices == want_members["x2_indices"],
                         want_members["x2_indices"], x2_indices))

    # The recorded claim names the other coordinate set; reproducing the
    # mismatch is the point, so it lands in discrepancies, not failures.
    claimed = data["recorded_claim_set"]
    claim_holds = all(s in index[claimed] for s in sums)
    checks.append(_check("recorded claim fails as stated", not claim_holds,
                         False, claim_holds))
    return checks


# fixture id -> (file under fixtures/, verifier)
_FIXTURES = {
    "2.3": ("remark_2_3.json", _verify_2_3),
    "2.4": ("remark_2_4.json", _verify_2_4),
    "2.5": ("remark_2_5.json", _verify_2_5),
}


def verify_remark(remark_id: str, bound: int) -> FixtureReport:
    """Recompute one recorded example and compare it with what was stated.

    ``bound`` caps the index range of the sequence-dependent checks and
    must be at least 10 so every fixture has enough terms to say anything.
    """
    data = load_fixture(remark_id)
    if not isinstance(bound, int) or isinstance(bound, bool):
        raise ValueError("bound must be an int")
    if bound < 10:
        raise ValueError(f"bound must be at least 10, got {bound}")
    _, verifier = _FIXTURES[remark_id]
    problem = NormFormProblem(**data["problem"])
    rec = LinearRecurrence.from_literal(data["recurrence"])
    checks = verifier(data, problem, rec, bound)
    return FixtureReport(
        remark_id=remark_id,
        bound=bound,
        checks=tuple(checks),
        discrepancies=tuple(data["discrepancies"]),
        notes=tuple(data["notes"]),
    )


# the `verify-remark` subcommand handler (cli.main dispatches here)
def _cmd_verify_remark(args):
    report = verify_remark(args.id, args.n)
    results = {
        "id": report.remark_id,
        "bound": report.bound,
        "agreement": report.agreement,
        "checks": [
            {
                "name": check.name,
                "passed": check.passed,
                "expected": check.expected,
                "computed": check.computed,
            }
            for check in report.checks
        ],
        "discrepancies": report.discrepancies,
        "notes": report.notes,
    }
    lines = [f"fixture {report.remark_id} replayed up to n = {report.bound}"]
    for check in report.checks:
        mark = "ok " if check.passed else "DIFF"
        lines.append(f"  {mark} {check.name}")
        if not check.passed:
            lines.append(f"       expected {check.expected}, got {check.computed}")
    for text in report.discrepancies:
        lines.append(f"  flag {text}")
    lines.append(
        "agreement: every check reproduced"
        if report.agreement
        else "agreement: NO, see DIFF lines"
    )
    return {}, results, lines
