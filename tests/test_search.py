import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pellsum import partitions, search
from pellsum.errors import RepeatedRootError, SearchBudgetError, TooManyIndicesError
from pellsum.normform import NormFormProblem, coordinate_set
from pellsum.partitions import partition_analysis, set_partitions
from pellsum.quadfield import quad
from pellsum.recurrences import (
    LinearRecurrence,
    audit_hypotheses,
    binet,
    roots_multiplicatively_independent,
    terms_up_to,
)
from pellsum.search import (
    coordinate_index,
    describe_bound,
    digit_count,
    pair_sum_search,
    schlickewei_bound,
    sunit_sum_search,
    vanishing_pair_sums,
)
from pellsum.sunits import SPrimeSet, enumerate_sunits, subsums_nonvanishing

P134 = NormFormProblem(13, 4)


def test_coordinate_index_witnesses():
    index = coordinate_index(P134, 2 * 10**6)
    assert index[1][11] == (11, 3)
    assert index[1][119] == (119, 33)
    assert index[2][3] == (11, 3)
    assert 2 not in index[1]  # trivial solutions stay out of the search view
    assert 0 not in index[2]
    for coord in (1, 2):
        for value, (x, y) in index[coord].items():
            assert x * x - 13 * y * y == 4
            assert value == (x, y)[coord - 1]


def test_hypotheses_all_pass():
    hyp = audit_hypotheses(LinearRecurrence((2, 2), (0, 1)))
    assert hyp.nondegenerate
    assert hyp.pairwise_independent
    assert hyp.no_root_of_unity
    assert hyp.last_coeff_not_unit
    assert hyp.applicable


def test_hypotheses_detect_each_failure():
    # dependent roots (product is 1) and |a_2| = 1
    hyp = audit_hypotheses(LinearRecurrence((6, -1), (0, 1)))
    assert not hyp.pairwise_independent
    assert not hyp.last_coeff_not_unit
    assert not hyp.applicable
    assert hyp.independence[0][2].witness == (1, 1)
    # degenerate: root ratio is a cube root of unity
    hyp = audit_hypotheses(LinearRecurrence((1, -1), (0, 3)))
    assert not hyp.nondegenerate
    assert not hyp.applicable
    # a pure root of unity as a root
    hyp = audit_hypotheses(LinearRecurrence((0, 4), (0, 1)))
    assert hyp.unity_orders == (None, None)  # +-2 are not roots of unity
    hyp = audit_hypotheses(LinearRecurrence((1, 2), (1, 1)))
    assert hyp.unity_orders == (2, None)  # roots -1, 2 in sorted order
    assert not hyp.no_root_of_unity


def test_pair_search_finds_the_even_number_hits():
    rec = LinearRecurrence((2, -1), (0, 2))  # U_n = 2n
    report = pair_sum_search(rec, P134, 100, 2 * 10**6)
    # independent count: 2(n1+n2) must land in the even coordinate values
    targets = {v for v in coordinate_set(P134, 1, 2 * 10**6) if v % 2 == 0}
    targets |= {v for v in coordinate_set(P134, 2, 2 * 10**6) if v % 2 == 0}
    expected = sum(
        1
        for n1 in range(101)
        for n2 in range(n1, 101)
        if 2 * (n1 + n2) in targets
    )
    assert len(report.hits) == expected == 11
    keys = [(hit.n1, hit.n2) for hit in report.hits]
    assert keys == sorted(keys)
    for hit in report.hits:
        assert hit.value == 2 * (hit.n1 + hit.n2)
        assert hit.memberships


def test_pair_search_hits_reverify():
    rec = LinearRecurrence((2, 2), (0, 1))
    report = pair_sum_search(rec, P134, 60, 2 * 10**6)
    terms = terms_up_to(rec, 60)
    for hit in report.hits:
        assert terms[hit.n1] + terms[hit.n2] == hit.value
        for coord, (x, y) in hit.memberships:
            assert x * x - 13 * y * y == 4
            assert (x, y)[coord - 1] == hit.value


def test_pair_search_monotone_in_index_bound():
    rec = LinearRecurrence((1, -1), (0, 3))
    small = pair_sum_search(rec, NormFormProblem(5, 4), 40, 100)
    large = pair_sum_search(rec, NormFormProblem(5, 4), 80, 100)
    small_keys = {(h.n1, h.n2) for h in small.hits}
    large_keys = {(h.n1, h.n2) for h in large.hits}
    assert small_keys <= large_keys


def test_pair_search_stabilization_flag():
    rec = LinearRecurrence((2, 2), (0, 1))
    report = pair_sum_search(rec, P134, 100, 2 * 10**6)
    # growth stops early: doubling the box adds nothing
    bigger = pair_sum_search(rec, P134, 200, 2 * 10**6)
    assert {(h.n1, h.n2) for h in report.hits} == {(h.n1, h.n2) for h in bigger.hits}
    assert report.stable and bigger.stable
    assert report.hypotheses is not None and report.hypotheses.applicable


def test_pair_search_order_three_recurrence_gets_a_note():
    # exact roots exist for this cubic, so the audit runs
    rec = LinearRecurrence((6, -11, 6), (0, 0, 1))
    report = pair_sum_search(rec, P134, 20, 10**4)
    assert report.hypotheses is not None
    # an irreducible cubic cannot be audited and says so instead of failing
    rec = LinearRecurrence((0, 0, 2), (0, 0, 1))
    report = pair_sum_search(rec, P134, 20, 10**4)
    assert report.hypotheses is None
    assert "unavailable" in report.hypotheses_note


def test_sunit_search_pinned_hits():
    basis = SPrimeSet((2, 3, 5))
    report = sunit_sum_search(basis, 2, 3, P134, 1500)
    entry_sets = {tuple(hit.entries) for hit in report.hits}
    assert (Fraction(-6), Fraction(125)) in entry_sets
    assert (Fraction(3), Fraction(8)) in entry_sets
    for hit in report.hits:
        assert hit.certificate.ok
        assert sum(hit.entries) == hit.total
        assert subsums_nonvanishing(hit.entries).ok
        for coord, (x, y) in hit.memberships:
            assert x * x - 13 * y * y == 4
            assert Fraction((x, y)[coord - 1]) == hit.total


def test_sunit_search_excludes_vanishing_subsums():
    basis = SPrimeSet((2, 3, 5))
    report = sunit_sum_search(basis, 3, 1, P134, 1500)
    assert report.hits  # e.g. 1 + 2 + 30 = 33
    for hit in report.hits:
        assert hit.certificate.ok
        assert all(e != 0 for e in hit.entries)
        assert sum(hit.entries) == hit.total


def test_sunit_search_no_hits_for_rough_basis():
    report = sunit_sum_search(SPrimeSet((7,)), 2, 1, P134, 100)
    assert report.hits == ()


def test_sunit_search_single_unit_hits():
    report = sunit_sum_search(SPrimeSet((2,)), 1, 5, NormFormProblem(2, -1), 50)
    totals = {hit.total for hit in report.hits}
    assert Fraction(1) in totals
    one_hit = next(h for h in report.hits if h.total == 1)
    assert {coord for coord, _ in one_hit.memberships} == {1, 2}


def test_sunit_search_entries_are_sorted_and_merged_deterministically():
    report = sunit_sum_search(SPrimeSet((2, 3, 5)), 2, 3, P134, 1500)
    assert all(hit.entries == tuple(sorted(hit.entries)) for hit in report.hits)
    keys = [(hit.total, hit.entries) for hit in report.hits]
    assert keys == sorted(keys)


def test_sunit_search_rejects_bad_tuple_size():
    with pytest.raises(ValueError):
        sunit_sum_search(SPrimeSet((2,)), 0, 1, P134, 10)
    with pytest.raises(ValueError):
        sunit_sum_search(SPrimeSet((2,)), 5, 1, P134, 10)


def test_sunit_search_refuses_past_the_work_budget():
    # t = 1 makes few lookups, yet building 2 * 10^6 + 2 units is refused
    with pytest.raises(SearchBudgetError, match="2000002 units"):
        sunit_sum_search(SPrimeSet((2,)), 1, 10**6 // 2, P134, 10**6)
    # a bad exponent bound is still reported as such, before any estimate
    with pytest.raises(ValueError, match="exponent bound"):
        sunit_sum_search(SPrimeSet((2,)), 2, -1, P134, 10)


@pytest.mark.parametrize(
    "primes, tuple_size, expbound, count, stabilization",
    [
        ((2, 3), 3, 3, 209, (10, 209)),
        ((2, 3), 4, 2, 561, (38, 561)),
        ((2, 3, 5), 3, 2, 983, (94, 983)),
    ],
)
def test_sunit_search_pinned_large_inputs(primes, tuple_size, expbound, count, stabilization):
    # the enumeration took 1.2-24 s on these; the counts are its output
    report = sunit_sum_search(SPrimeSet(primes), tuple_size, expbound, P134, 10**6)
    assert (len(report.hits), report.stabilization) == (count, stabilization)


def test_vanishing_pair_sums_periodic_case():
    rec = LinearRecurrence((1, -1), (0, 3))
    hits = vanishing_pair_sums(rec, 12)
    assert (1, 4, (1,)) in hits
    assert (1, 4, (2,)) in hits
    assert (1, 4, (1, 2)) in hits
    assert (0, 0, (1, 2)) in hits  # U_0 + U_0 = 0
    # per-root parts vanish exactly when n2 - n1 = 3 (mod 6)
    for n1, n2, delta in hits:
        if delta in ((1,), (2,)):
            assert (n2 - n1) % 6 == 3, (n1, n2, delta)
    # full sums vanish exactly when the terms cancel
    terms = terms_up_to(rec, 12)
    full = {(n1, n2) for n1, n2, delta in hits if delta == (1, 2)}
    want = {
        (n1, n2)
        for n1 in range(13)
        for n2 in range(n1, 13)
        if terms[n1] + terms[n2] == 0
    }
    assert full == want


def test_vanishing_pair_sums_nondegenerate_case():
    # only the forced (0, 0) hit: U_0 = 0 and the roots are real
    rec = LinearRecurrence((6, -1), (0, 1))
    assert vanishing_pair_sums(rec, 30) == [(0, 0, (1, 2))]


def test_vanishing_needs_distinct_roots():
    with pytest.raises(RepeatedRootError):
        vanishing_pair_sums(LinearRecurrence((2, -1), (0, 2)), 10)


def test_schlickewei_pinned_values():
    assert schlickewei_bound(1, [0], 2) == 2**35 * 2**6 == 2199023255552
    # A = max(1, C(1,1)) = 1 regardless of field degree 1
    assert schlickewei_bound(1, [0], 1) == 2**35
    # two variables, one linear form: A = max(2, C(3,2)) = 3
    assert schlickewei_bound(2, [1], 1) == 2 ** (35 * 27)


def test_schlickewei_monotone():
    base = schlickewei_bound(2, [1, 1], 2)
    assert schlickewei_bound(3, [1, 1], 2) > base
    assert schlickewei_bound(2, [2, 1], 2) > base
    assert schlickewei_bound(2, [1, 1], 3) > base
    for s in (1, 2, 3):
        for delta in (0, 1, 2):
            for deg in (1, 2, 3):
                v = schlickewei_bound(s, [delta], deg)
                assert v >= 1
                assert schlickewei_bound(s + 1, [delta], deg) > v
                assert schlickewei_bound(s, [delta + 1], deg) > v
                # bumping the field degree cannot shrink the bound
                assert schlickewei_bound(s, [delta], deg + 1) >= v


def test_schlickewei_validation():
    with pytest.raises(ValueError):
        schlickewei_bound(0, [1], 2)
    with pytest.raises(ValueError):
        schlickewei_bound(1, [], 2)
    with pytest.raises(ValueError):
        schlickewei_bound(1, [-1], 2)
    with pytest.raises(ValueError):
        schlickewei_bound(1, [1], 0)
    with pytest.raises(SearchBudgetError, match="20829312 bits"):
        schlickewei_bound(3, [6], 2)  # refused before any power is taken


def test_digit_count_matches_str():
    rng = random.Random(55)
    for _ in range(500):
        n = rng.randint(0, 10**30)
        assert digit_count(n) == len(str(n))
    for k in range(1, 60):
        assert digit_count(10**k) == k + 1
        assert digit_count(10**k - 1) == k
    assert digit_count(0) == 1
    assert digit_count(-45) == 2


def test_describe_bound_small_and_large():
    assert describe_bound(2199023255552) == "2199023255552"
    huge = schlickewei_bound(2, [2, 2], 3)
    text = describe_bound(huge)
    assert "e+" in text and text.endswith("digits)")
    digits = digit_count(huge)
    assert f"({digits} digits)" in text
    assert describe_bound(huge, digits=digits) == text
    # the rendering helper must agree with str() below the interpreter cap
    n = 1234567890123456789 ** 100
    assert describe_bound(n) == str(n)


def test_partition_analysis_dependent_pair():
    reports = partition_analysis([quad(3, 2, 2), quad(3, -2, 2)], 5)
    assert len(reports) == 2
    joint = next(r for r in reports if r.blocks == ((1, 2),))
    assert joint.verdict == "certified-dependent"
    assert joint.witnesses == ((1, 2, (1, 1)),)
    split = next(r for r in reports if r.blocks == ((1,), (2,)))
    assert split.verdict == "independent-up-to-5"
    assert split.witnesses == ()


def test_partition_analysis_independent_pair():
    reports = partition_analysis([quad(1, 1, 3), quad(1, -1, 3)], 10)
    assert all(r.verdict == "independent-up-to-10" for r in reports)
    reports = partition_analysis([Fraction(2), Fraction(3)], 6)
    assert all(not r.witnesses for r in reports)


def test_partition_analysis_counts_and_limits():
    reports = partition_analysis([Fraction(2), Fraction(4), Fraction(8)], 4)
    assert len(reports) == 5  # Bell(3)
    with pytest.raises(ValueError):
        partition_analysis([Fraction(2)], 4)
    with pytest.raises(TooManyIndicesError):
        partition_analysis([Fraction(k + 2) for k in range(9)], 2)


# -- the enumerations the kernels replaced, kept as oracles -------------------


def enumerated_pair_hits(rec, problem, nbound, coordbound):
    terms = terms_up_to(rec, nbound)
    index = coordinate_index(problem, coordbound)
    hits = []
    for n1 in range(nbound + 1):
        for n2 in range(n1, nbound + 1):
            s = terms[n1] + terms[n2]
            if s < 1:
                continue
            memberships = tuple((c, index[c][s]) for c in (1, 2) if s in index[c])
            if memberships:
                hits.append((n1, n2, s, memberships))
    return hits


def enumerated_sunit_hits(basis, tuple_size, expbound, problem, coordbound):
    units = list(enumerate_sunits(basis, expbound))
    values = [u.value for u in units]
    index = coordinate_index(problem, coordbound)
    half_box = {
        i for i, u in enumerate(units) if all(abs(b) <= expbound // 2 for b in u.exponents)
    }
    collected = []
    for picked in combinations_with_replacement(range(len(units)), tuple_size):
        total = sum((values[k] for k in picked), Fraction(0))
        if total < 1 or total.denominator != 1:
            continue
        memberships = tuple(
            (c, index[c][int(total)]) for c in (1, 2) if int(total) in index[c]
        )
        if not memberships:
            continue
        entry_vals = tuple(sorted(values[k] for k in picked))
        cert = subsums_nonvanishing(entry_vals)
        if cert.ok:
            in_half = all(k in half_box for k in picked)
            collected.append((search.SUnitHit(entry_vals, total, memberships, cert), in_half))
    collected.sort(key=lambda pair: (pair[0].total, pair[0].entries))
    hits = tuple(h for h, _ in collected)
    return hits, (sum(1 for _, in_half in collected if in_half), len(hits))


def root_field_vanishing_sums(rec, nbound):
    form = binet(rec)
    f1, f2 = form.coeffs
    a1, a2 = form.roots
    pow1, pow2 = [a1**0], [a2**0]
    for _ in range(nbound):
        pow1.append(pow1[-1] * a1)
        pow2.append(pow2[-1] * a2)
    out = []
    for n1 in range(nbound + 1):
        for n2 in range(n1, nbound + 1):
            s1 = f1 * (pow1[n1] + pow1[n2])
            s2 = f2 * (pow2[n1] + pow2[n2])
            for delta, s in (((1,), s1), ((2,), s2), ((1, 2), s1 + s2)):
                if not s:
                    out.append((n1, n2, delta))
    return out


def per_partition_witnesses(bases, expbound):
    out = []
    for partition in set_partitions(len(bases)):
        witnesses = []
        for block in partition:
            for ai in range(len(block)):
                for aj in range(ai + 1, len(block)):
                    i, j = block[ai], block[aj]
                    verdict = roots_multiplicatively_independent(bases[i], bases[j], expbound)
                    if verdict.dependent:
                        witnesses.append((i + 1, j + 1, verdict.witness))
        out.append((tuple(tuple(i + 1 for i in b) for b in partition), tuple(witnesses)))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except RepeatedRootError:
        return RepeatedRootError


def pair_hit_keys(report):
    return [(h.n1, h.n2, h.value, h.memberships) for h in report.hits]


# oscillating terms whose window crosses 0, tied periodic terms, the rational
# root -1, U_n = 2^n with a zero coefficient on root 1, and the roots +-sqrt(-1)
PINNED_RECS = ["-1,6;2,-1", "1,-1;0,3", "0,1;1,2", "3,-2;1,2", "0,-1;1,0"]
SMALL_PROBLEMS = [(13, 4), (5, 4), (2, -1), (3, 1), (6, -2), (7, 2), (10, 9)]
BASES = [
    Fraction(2), Fraction(4), Fraction(-8), Fraction(3), Fraction(1, 2), Fraction(-1),
    quad(3, 2, 2), quad(3, -2, 2), quad(1, 1, 2), quad(17, 12, 2),
]

small_ints = st.integers(-10, 10)
# a2 = a1 + 1 puts -1 among the roots, a2 = 1 - a1 puts 1, a2 = -1 gives roots
# of norm 1; U1 = +-U0 then zeroes the coefficient of the root +-1
recurrences = st.builds(
    LinearRecurrence,
    small_ints.flatmap(
        lambda a1: st.tuples(
            st.just(a1), st.sampled_from([a1 + 1, 1 - a1, -1]) | small_ints
        ).filter(lambda c: c[1])
    ),
    (
        st.tuples(small_ints, small_ints)
        | small_ints.map(lambda u: (u, u))
        | small_ints.map(lambda u: (u, -u))
    ).filter(any),
)


@pytest.mark.parametrize("literal", PINNED_RECS)
def test_pinned_kernels_match_their_enumerations(literal):
    rec = LinearRecurrence.from_literal(literal)
    assert vanishing_pair_sums(rec, 40) == root_field_vanishing_sums(rec, 40)
    for d, m in SMALL_PROBLEMS[:3]:
        problem = NormFormProblem(d, m)
        report = pair_sum_search(rec, problem, 60, 10**6)
        assert pair_hit_keys(report) == enumerated_pair_hits(rec, problem, 60, 10**6)


def test_pair_search_window_edges_and_hit_order():
    # U_n = n: 59 + 60 sits exactly on the coordinate bound 119
    rec = LinearRecurrence((2, -1), (0, 1))
    report = pair_sum_search(rec, P134, 60, 119)
    assert (59, 60, 119) in [(h.n1, h.n2, h.value) for h in report.hits]
    assert pair_hit_keys(report) == enumerated_pair_hits(rec, P134, 60, 119)
    # terms -7, 10, -12, 8, ...: for n1 = 0 the sum 1 (n2 = 3) is smaller
    # than the sum 3 (n2 = 1), yet hits still come out by index
    rec = LinearRecurrence((-4, -4), (-7, 10))
    report = pair_sum_search(rec, NormFormProblem(5, 4), 30, 10**6)
    assert [(h.n1, h.n2, h.value) for h in report.hits][:2] == [(0, 1, 3), (0, 3, 1)]
    assert pair_hit_keys(report) == enumerated_pair_hits(rec, NormFormProblem(5, 4), 30, 10**6)


def test_pair_hits_with_equal_values_share_one_memberships_tuple():
    # U_n = n: each value v in the coordinate sets is hit by every n1 + n2 = v
    rec = LinearRecurrence((2, -1), (0, 1))
    report = pair_sum_search(rec, P134, 60, 119)
    by_value = {}
    for hit in report.hits:
        by_value.setdefault(hit.value, []).append(hit.memberships)
    assert max(len(group) for group in by_value.values()) > 1
    for group in by_value.values():
        assert all(memberships is group[0] for memberships in group)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    recurrences,
    st.integers(1, 60),
    st.sampled_from(SMALL_PROBLEMS),
    st.integers(0, 12),
)
def test_pair_search_matches_enumeration(rec, nbound, dm, bound_exp):
    problem, coordbound = NormFormProblem(*dm), 10**bound_exp
    report = pair_sum_search(rec, problem, nbound, coordbound)
    assert pair_hit_keys(report) == enumerated_pair_hits(rec, problem, nbound, coordbound)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(recurrences, st.integers(1, 40))
def test_vanishing_matches_root_field_sums(rec, nbound):
    assert outcome(vanishing_pair_sums, rec, nbound) == outcome(
        root_field_vanishing_sums, rec, nbound
    )


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.lists(st.sampled_from(BASES), min_size=2, max_size=5), st.integers(1, 4))
def test_partition_analysis_matches_per_partition_calls(bases, expbound):
    reports = partition_analysis(bases, expbound)
    assert [(r.blocks, r.witnesses) for r in reports] == per_partition_witnesses(bases, expbound)
    for r in reports:
        assert (r.verdict == "certified-dependent") == bool(r.witnesses)


def test_partition_analysis_decides_each_pair_once(monkeypatch):
    calls = []

    def counting(alpha, beta, expbound):
        calls.append((alpha, beta))
        return roots_multiplicatively_independent(alpha, beta, expbound)

    monkeypatch.setattr(partitions, "roots_multiplicatively_independent", counting)
    partition_analysis([Fraction(k) for k in range(2, 9)], 3)
    assert len(calls) == 21  # C(7, 2); one call per in-block pair would be 4263


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3, unique=True),
    # larger t and E first: the draws lean toward the big cases
    st.sampled_from([4, 3, 2, 1]),
    st.sampled_from([3, 2, 1, 0]),
    st.sampled_from(SMALL_PROBLEMS),
    st.sampled_from([10**6, 1500, 10**12, 10]),
)
@example([2, 3], 3, 1, (13, 4), 1500)  # 2 + (-2) + 3 = 3 has a vanishing subsum
def test_sunit_search_matches_enumeration(primes, tuple_size, expbound, dm, coordbound):
    units = 2 * (2 * expbound + 1) ** len(primes)
    assume(comb(units + tuple_size - 1, tuple_size) <= 3000)
    basis, problem = SPrimeSet(tuple(sorted(primes))), NormFormProblem(*dm)
    report = sunit_sum_search(basis, tuple_size, expbound, problem, coordbound)
    assert (report.hits, report.stabilization) == enumerated_sunit_hits(
        basis, tuple_size, expbound, problem, coordbound
    )
