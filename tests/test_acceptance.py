"""Acceptance gate: ten checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
each check also fails its test on a miss so plain pytest runs gate too.
Time limits are part of the verdict.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

from pellsum.fixtures import verify_remark
from pellsum.normform import NormFormProblem, coordinate_set
from pellsum.pell import pell_data
from pellsum.quadfield import QuadNum, is_squarefree, squarefree_decompose, value_equal
from pellsum.recurrences import (
    LinearRecurrence,
    audit_hypotheses,
    binet,
    is_degenerate,
    roots_multiplicatively_independent,
    terms_up_to,
)
from pellsum.search import pair_sum_search, schlickewei_bound, sunit_sum_search
from pellsum.sunits import SPrimeSet, subsums_nonvanishing

from norm_oracle import solutions_within

ROOT = Path(__file__).resolve().parent.parent


def _verdict(num, ok, elapsed, limit, detail=""):
    ok = bool(ok) and elapsed < limit
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s / limit {limit:g}s)")
    assert ok, f"criterion {num}: {detail or 'see verdict line'}"


def test_acceptance_01_coordinate_sets():
    start = time.perf_counter()
    problem = NormFormProblem(13, 4)
    x1 = coordinate_set(problem, 1, 2 * 10**6)
    x2 = coordinate_set(problem, 2, 5 * 10**5)
    elapsed = time.perf_counter() - start
    ok = (x1 == [11, 119, 1298, 14159, 154451, 1684802]
          and x2 == [3, 33, 360, 3927, 42837, 467280])
    _verdict(1, ok, elapsed, 1.0, f"x1={x1}, x2={x2}")


def test_acceptance_02_periodic_sequence():
    start = time.perf_counter()
    rec = LinearRecurrence((1, -1), (0, 3))
    pattern = [0, 3, 3, 0, -3, -3]
    terms = terms_up_to(rec, 100)
    periodic = all(t == pattern[n % 6] for n, t in enumerate(terms))
    verdict = is_degenerate(rec)
    named = verdict.degenerate and "cube root of unity" in verdict.detail
    report = pair_sum_search(rec, NormFormProblem(5, 4), 100, 100)
    hits3 = [h for h in report.hits if h.value == 3]
    in_x1 = all(any(c == 1 for c, _ in h.memberships) for h in hits3)
    elapsed = time.perf_counter() - start
    ok = periodic and named and len(hits3) >= 30 and in_x1
    _verdict(2, ok, elapsed, 1.0,
             f"periodic={periodic}, named={named}, hits={len(hits3)}")


def test_acceptance_03_closed_form_audit():
    start = time.perf_counter()
    form = binet(LinearRecurrence((6, -1), (0, 1)))
    # 1/(4*sqrt(2)) = (1/8)*sqrt(2)
    coeff_ok = form.coeffs[0] == QuadNum(Fraction(0), Fraction(1, 8), 2)
    dep = roots_multiplicatively_independent(*form.roots, 5)
    dep_ok = dep.dependent and dep.witness == (1, 1)
    report = verify_remark("2.5", 30)
    flagged = report.agreement and any("X2" in t for t in report.discrepancies)
    elapsed = time.perf_counter() - start
    _verdict(3, coeff_ok and dep_ok and flagged, elapsed, 1.0,
             f"coeff_ok={coeff_ok}, dep_ok={dep_ok}, flagged={flagged}")


def test_acceptance_04_pell_brute_equivalence():
    start = time.perf_counter()
    mismatches = []
    for d in range(2, 51):
        if not is_squarefree(d):
            continue
        found = None
        for y in range(1, 10**4 + 1):
            s = d * y * y + 1
            x = isqrt(s)
            if x * x == s:
                found = (x, y)
                break
        if pell_data(d).fundamental != found:
            mismatches.append((d, found, pell_data(d).fundamental))
    elapsed = time.perf_counter() - start
    _verdict(4, not mismatches, elapsed, 30.0, f"mismatches={mismatches}")


def test_acceptance_05_orbit_completeness():
    start = time.perf_counter()
    xmax = 10**5
    squares = {x * x for x in range(xmax + 1)}
    top = xmax * xmax
    ms = [m for m in range(-10, 11) if m]
    ds = [d for d in range(2, 31) if is_squarefree(d)]
    mismatches = []
    for d in ds:
        brute = {m: set() for m in ms}
        ymax = isqrt((top + 10) // d) + 1
        for y in range(ymax + 1):
            base = d * y * y
            for m in ms:
                s = base + m
                if 0 <= s <= top and s in squares:
                    brute[m].add((isqrt(s), y))
        for m in ms:
            got = set(solutions_within(NormFormProblem(d, m), xmax))
            if got != brute[m]:
                mismatches.append((d, m, sorted(brute[m] ^ got)[:4]))
    elapsed = time.perf_counter() - start
    _verdict(5, not mismatches, elapsed, 60.0, f"mismatches={mismatches[:3]}")


def test_acceptance_06_degeneracy_vs_oracle():
    start = time.perf_counter()
    half = Fraction(1, 2)
    mismatches = []
    for a in range(-10, 11):
        for b in range(-10, 11):
            if b == 0:
                continue
            verdict = is_degenerate(LinearRecurrence((a, b), (0, 1)))
            disc = a * a + 4 * b
            if disc == 0:
                if not (verdict.degenerate and verdict.repeated_root):
                    mismatches.append((a, b, "repeated"))
                continue
            c, d0 = squarefree_decompose(disc)
            if d0 == 1:
                alpha, beta = Fraction(a + c, 2), Fraction(a - c, 2)
            else:
                alpha = QuadNum(a * half, c * half, d0)
                beta = QuadNum(a * half, -c * half, d0)
            oracle = next(
                (k for k in range(1, 13) if value_equal(alpha**k, beta**k)), None
            )
            if verdict.degenerate != (oracle is not None):
                mismatches.append((a, b, oracle))
            elif oracle is not None and verdict.unity_order != oracle:
                mismatches.append((a, b, oracle, verdict.unity_order))
    elapsed = time.perf_counter() - start
    _verdict(6, not mismatches, elapsed, 10.0, f"mismatches={mismatches[:5]}")


def test_acceptance_07_finiteness_evidence():
    start = time.perf_counter()
    rec = LinearRecurrence((2, 2), (0, 1))
    problem = NormFormProblem(13, 4)
    hyp = audit_hypotheses(rec)
    r100 = pair_sum_search(rec, problem, 100, 2 * 10**6)
    r200 = pair_sum_search(rec, problem, 200, 2 * 10**6)
    same = ({(h.n1, h.n2, h.value) for h in r100.hits}
            == {(h.n1, h.n2, h.value) for h in r200.hits})
    elapsed = time.perf_counter() - start
    _verdict(7, hyp.applicable and same, elapsed, 30.0,
             f"applicable={hyp.applicable}, stable={same}")


def test_acceptance_08_sunit_instance():
    start = time.perf_counter()
    report = sunit_sum_search(SPrimeSet((2, 3, 5)), 2, 3, NormFormProblem(13, 4), 1500)
    entries = {hit.entries for hit in report.hits}
    found = ((Fraction(-6), Fraction(125)) in entries
             and (Fraction(3), Fraction(8)) in entries)
    sound = all(
        hit.certificate.ok
        and subsums_nonvanishing(hit.entries).ok
        and sum(hit.entries) == hit.total
        and all(x * x - 13 * y * y == 4 and Fraction((x, y)[c - 1]) == hit.total
                for c, (x, y) in hit.memberships)
        and hit.memberships
        for hit in report.hits
    )
    elapsed = time.perf_counter() - start
    _verdict(8, found and sound, elapsed, 30.0, f"found={found}, sound={sound}")


def test_acceptance_09_counting_bound():
    start = time.perf_counter()
    exact = schlickewei_bound(1, [0], 2) == 2199023255552
    monotone = True
    for s in (1, 2, 3):
        for delta in (0, 1, 2):
            for deg in (1, 2, 3):
                v = schlickewei_bound(s, [delta], deg)
                monotone = monotone and schlickewei_bound(s + 1, [delta], deg) > v
                monotone = monotone and schlickewei_bound(s, [delta + 1], deg) > v
                monotone = monotone and schlickewei_bound(s, [delta], deg + 1) >= v
    elapsed = time.perf_counter() - start
    _verdict(9, exact and monotone, elapsed, 1.0,
             f"exact={exact}, monotone={monotone}")


def test_acceptance_10_rerun_determinism(tmp_path):
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for kind, argv in (
        ("pairs", ["pairs-search", "--rec", "2,2;0,1", "--d", "13", "--m", "4",
                   "--n", "120", "--bound", "2000000"]),
        ("sunit", ["sunit-search", "--primes", "2,3,5", "--t", "2",
                   "--exp-bound", "2", "--d", "13", "--m", "4", "--bound", "1500"]),
    ):
        pair = []
        for run in (1, 2):
            out = tmp_path / f"{kind}-{run}.json"
            subprocess.run(
                [sys.executable, "-m", "pellsum", *argv, "--out", str(out)],
                check=True, capture_output=True, env=env,
            )
            pair.append(out.read_bytes())
        outputs.append(pair[0] == pair[1] and json.loads(pair[0]))
    elapsed = time.perf_counter() - start
    _verdict(10, all(outputs), elapsed, 30.0, "documents differ across reruns")
