import random
from fractions import Fraction

import pytest

from pellsum.errors import RepeatedRootError, TooManyIndicesError
from pellsum.normform import NormFormProblem, coordinate_set
from pellsum.quadfield import quad
from pellsum.recurrences import LinearRecurrence, terms_up_to
from pellsum.search import (
    audit_hypotheses,
    coordinate_index,
    describe_bound,
    digit_count,
    pair_sum_search,
    partition_analysis,
    schlickewei_bound,
    sunit_sum_search,
    vanishing_pair_sums,
)
from pellsum.sunits import SPrimeSet, subsums_nonvanishing

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
