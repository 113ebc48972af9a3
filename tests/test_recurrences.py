import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pellsum.cli import main
from pellsum import recurrences
from pellsum.errors import RepeatedRootError, SearchBudgetError, UnsupportedOrderError
from pellsum.quadfield import QuadNum, quad, squarefree_decompose, value_equal
from pellsum.recurrences import (
    LinearRecurrence,
    audit_hypotheses,
    binet,
    characteristic_roots,
    is_degenerate,
    root_of_unity_order,
    roots_multiplicatively_independent,
    terms_up_to,
)
from recurrence_oracle import ring_scan_dependence, root_power_degeneracy


def iterate(coeffs, initials, n):
    """Plain iteration, the reference for everything closed-form."""
    terms = list(initials)
    while len(terms) <= n:
        terms.append(sum(a * u for a, u in zip(coeffs, reversed(terms))))
    return terms[: n + 1]


def oracle_roots(a, b):
    """Order-2 roots rebuilt from scratch for the degeneracy oracle."""
    disc = a * a + 4 * b
    if disc == 0:
        return None
    c, d0 = squarefree_decompose(disc)
    if d0 == 1:
        return Fraction(a + c, 2), Fraction(a - c, 2)
    half = Fraction(1, 2)
    return (
        QuadNum(a * half, c * half, d0),
        QuadNum(a * half, -c * half, d0),
    )


def test_terms_pinned():
    assert terms_up_to(LinearRecurrence((2, -1), (0, 2)), 5) == [0, 2, 4, 6, 8, 10]
    assert terms_up_to(LinearRecurrence((1, -1), (0, 3)), 7) == [0, 3, 3, 0, -3, -3, 0, 3]
    assert terms_up_to(LinearRecurrence((6, -1), (0, 1)), 4) == [0, 1, 6, 35, 204]


def test_terms_match_iteration_for_higher_order():
    rng = random.Random(11)
    for _ in range(200):
        order = rng.randint(1, 4)
        coeffs = [rng.randint(-5, 5) for _ in range(order)]
        coeffs[-1] = coeffs[-1] or 1
        initials = [rng.randint(-5, 5) for _ in range(order)]
        if not any(initials):
            initials[0] = 1
        rec = LinearRecurrence(tuple(coeffs), tuple(initials))
        assert terms_up_to(rec, 30) == iterate(coeffs, initials, 30)


def test_terms_refuse_past_the_bit_budget(monkeypatch, capsys):
    # the catalogue's largest term list is far inside the budget
    widest = terms_up_to(LinearRecurrence((3, 2), (2, 1)), 1252)
    assert sum(u.bit_length() for u in widest) == 1436809 < recurrences._TERM_BIT_BUDGET / 20
    pell_like = LinearRecurrence((2, 1), (1, 1))
    assert len(terms_up_to(pell_like, 7000)) == 7001
    with pytest.raises(SearchBudgetError, match="^terms U_0 .. U_20000 reach 33557421 bits"
                                                " at U_7265; the budget is 33554432 bits$"):
        terms_up_to(pell_like, 20000)
    # the initial terms are input, not counted; U_2 .. U_5 have 2, 3, 5 and 6 bits
    monkeypatch.setattr(recurrences, "_TERM_BIT_BUDGET", 10)
    assert terms_up_to(pell_like, 4) == [1, 1, 3, 7, 17]
    with pytest.raises(SearchBudgetError, match="^terms U_0 .. U_9 reach 16 bits at U_5;"):
        terms_up_to(pell_like, 9)
    for argv in (["recur", "--rec=2,1;1,1", "--n=9"],
                 ["pairs-search", "--rec=2,1;1,1", "--d=13", "--m=4", "--n=9", "--bound=9"],
                 ["vanishing", "--rec=2,1;1,1", "--n=9"]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: terms U_0 .. U_9 reach 16 bits at U_5;"
                                           " the budget is 10 bits\n")


def test_literal_parsing():
    rec = LinearRecurrence.from_literal("6,-1;0,1")
    assert rec.coeffs == (6, -1) and rec.initials == (0, 1)
    assert rec.order == 2
    assert LinearRecurrence.from_literal(" 1 , 2 ; 1 , 1 ").coeffs == (1, 2)
    for bad in ("6,-1", "a,b;0,1", "1,2;1", "1,0;1,1", "1,2;0,0", ";", "1;;2"):
        with pytest.raises(ValueError):
            LinearRecurrence.from_literal(bad)


def test_validation():
    with pytest.raises(ValueError):
        LinearRecurrence((1, 0), (0, 1))  # a_d = 0
    with pytest.raises(ValueError):
        LinearRecurrence((1, 1), (0, 0))  # all-zero initials
    with pytest.raises(ValueError):
        LinearRecurrence((1,), (0, 1))  # length mismatch
    with pytest.raises(ValueError):
        LinearRecurrence((Fraction(1, 2),), (1,))  # non-integer


def test_binet_pinned_quadratic():
    form = binet(LinearRecurrence((6, -1), (0, 1)))
    assert form.discriminant == 32
    assert form.roots == (quad(3, 2, 2), quad(3, -2, 2))
    assert form.coeffs == (QuadNum(Fraction(0), Fraction(1, 8), 2),
                           QuadNum(Fraction(0), Fraction(-1, 8), 2))
    assert [form.term(n) for n in range(5)] == [0, 1, 6, 35, 204]


def test_binet_pinned_rational():
    form = binet(LinearRecurrence((1, 2), (1, 1)))
    assert form.roots == (Fraction(2), Fraction(-1))
    assert form.coeffs == (Fraction(2, 3), Fraction(1, 3))
    assert [form.term(n) for n in range(7)] == iterate([1, 2], [1, 1], 6)


def test_binet_errors():
    with pytest.raises(RepeatedRootError):
        binet(LinearRecurrence((2, -1), (0, 2)))
    with pytest.raises(UnsupportedOrderError):
        binet(LinearRecurrence((1,), (1,)))
    with pytest.raises(UnsupportedOrderError):
        binet(LinearRecurrence((1, 1, 1), (0, 0, 1)))
    with pytest.raises(ValueError):
        binet(LinearRecurrence((6, -1), (0, 1))).term(-1)


def test_binet_matches_iteration_across_the_coefficient_box():
    # every coefficient pair, two generic initial vectors, n <= 25
    for a in range(-10, 11):
        for b in range(-10, 11):
            if b == 0 or a * a + 4 * b == 0:
                continue
            for initials in ((0, 1), (1, 1)):
                rec = LinearRecurrence((a, b), initials)
                form = binet(rec)
                assert [form.term(n) for n in range(26)] == terms_up_to(rec, 25), (a, b)


def test_binet_matches_iteration_on_random_instances():
    rng = random.Random(1234)
    done = 0
    while done < 300:
        a, b = rng.randint(-10, 10), rng.randint(-10, 10)
        u0, u1 = rng.randint(-10, 10), rng.randint(-10, 10)
        if b == 0 or a * a + 4 * b == 0 or (u0 == 0 and u1 == 0):
            continue
        rec = LinearRecurrence((a, b), (u0, u1))
        form = binet(rec)
        assert [form.term(n) for n in range(61)] == terms_up_to(rec, 60), (a, b, u0, u1)
        done += 1


def test_degeneracy_pinned():
    v = is_degenerate(LinearRecurrence((1, -1), (0, 3)))
    assert v.degenerate and v.unity_order == 3
    assert "cube root of unity" in v.detail
    assert not is_degenerate(LinearRecurrence((6, -1), (0, 1))).degenerate
    v = is_degenerate(LinearRecurrence((0, 5), (0, 1)))
    assert v.degenerate and v.unity_order == 2
    v = is_degenerate(LinearRecurrence((2, -1), (0, 2)))
    assert v.degenerate and v.repeated_root and v.unity_order == 1


def test_degeneracy_matches_ratio_power_oracle():
    for a in range(-10, 11):
        for b in range(-10, 11):
            if b == 0:
                continue
            verdict = is_degenerate(LinearRecurrence((a, b), (0, 1)))
            roots = oracle_roots(a, b)
            if roots is None:
                assert verdict.degenerate and verdict.repeated_root, (a, b)
                continue
            alpha, beta = roots
            expected = None
            for k in range(1, 13):
                if value_equal(alpha**k, beta**k):
                    expected = k
                    break
            assert verdict.degenerate == (expected is not None), (a, b)
            if expected is not None:
                assert verdict.unity_order == expected, (a, b)


def test_root_of_unity_order():
    assert root_of_unity_order(Fraction(1)) == 1
    assert root_of_unity_order(Fraction(-1)) == 2
    assert root_of_unity_order(QuadNum(Fraction(-1, 2), Fraction(1, 2), -3)) == 3
    assert root_of_unity_order(quad(0, 1, -1)) == 4
    assert root_of_unity_order(QuadNum(Fraction(1, 2), Fraction(1, 2), -3)) == 6
    assert root_of_unity_order(Fraction(2)) is None
    assert root_of_unity_order(quad(3, 2, 2)) is None


def test_characteristic_roots_cubic_and_quartic():
    # x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
    roots = characteristic_roots(LinearRecurrence((6, -11, 6), (0, 0, 1)))
    assert roots == (Fraction(1), Fraction(2), Fraction(3))
    # x^4 - 5x^2 + 6 = (x^2-2)(x^2-3)
    roots = characteristic_roots(LinearRecurrence((0, 5, 0, -6), (0, 0, 0, 1)))
    assert set(map(str, roots)) == {"sqrt(2)", "-sqrt(2)", "sqrt(3)", "-sqrt(3)"}
    # repeated rational root stays listed with multiplicity
    roots = characteristic_roots(LinearRecurrence((2, -1), (0, 2)))
    assert roots == (Fraction(1), Fraction(1))


def test_order_two_roots_factor_only_the_discriminant():
    # a2 = 1e17 + 3 is past the trial-division limit; the discriminant
    # 6^2 + 4*a2 = 2^4 * 11 * 67 * 283 * 18899 * 6342307 is not
    rec = LinearRecurrence((6, 10**17 + 3), (0, 1))
    roots = characteristic_roots(rec)
    assert set(roots) == set(binet(rec).roots)
    assert roots[0].d == 11 * 67 * 283 * 18899 * 6342307


def _count_factorings(monkeypatch) -> list:
    # recurrences factors only constant terms (discriminants go through
    # squarefree_decompose); start from an empty root cache
    calls = []
    factor = recurrences._factor
    monkeypatch.setattr(recurrences, "_factor", lambda n: calls.append(n) or factor(n))
    characteristic_roots.cache_clear()
    return calls


def test_a_quartic_constant_is_factored_once(monkeypatch):
    calls = _count_factorings(monkeypatch)
    # x^4 - 99999999999973 (a prime): no rational root, no quadratic split
    with pytest.raises(UnsupportedOrderError):
        characteristic_roots(LinearRecurrence((0, 0, 0, 99999999999973), (0, 0, 0, 1)))
    assert calls == [99999999999973]


def test_an_audit_factors_the_constant_once(monkeypatch):
    calls = _count_factorings(monkeypatch)
    # (x^2 + x + 9999991)(x^2 + 2x + 9999973): the audit and its degeneracy
    # verdict both need the roots
    rec = LinearRecurrence((-3, -19999966, -29999955, -99999640000243), (1, 0, 0, 0))
    assert audit_hypotheses(rec).applicable
    assert calls == [-99999640000243]


def test_a_factoring_refusal_names_the_coefficient_as_given():
    with pytest.raises(SearchBudgetError, match="^factoring 1000000000000000003 "):
        characteristic_roots(LinearRecurrence((0, 0, 0, 10**18 + 3), (1, 0, 0, 0)))


def test_characteristic_roots_unsupported():
    # x^4 + x + 1 has no rational root and no integer quadratic split
    with pytest.raises(UnsupportedOrderError):
        characteristic_roots(LinearRecurrence((0, 0, -1, -1), (0, 0, 0, 1)))
    with pytest.raises(UnsupportedOrderError):
        # x^3 - 2: irreducible over the rationals
        characteristic_roots(LinearRecurrence((0, 0, 2), (0, 0, 1)))


def test_independence_pinned():
    v = roots_multiplicatively_independent(quad(3, 2, 2), quad(3, -2, 2), 5)
    assert v.dependent and v.witness == (1, 1)
    v = roots_multiplicatively_independent(quad(1, 1, 3), quad(1, -1, 3), 10)
    assert v.independent and v.witness is None and v.bound == 10
    v = roots_multiplicatively_independent(Fraction(2), Fraction(8), 3)
    assert v.dependent and v.witness == (3, -1)


def test_independence_witness_is_exact():
    rng = random.Random(3)
    for _ in range(200):
        which = rng.randrange(3)
        if which == 0:
            a = Fraction(rng.randint(2, 9), rng.randint(1, 9))
            b = Fraction(rng.choice([-1, 1])) / a  # a*b = +-1
        elif which == 1:
            a = quad(rng.randint(1, 5), rng.randint(1, 5), 7)
            b = rng.choice([a, -a])  # equal up to sign
        else:
            a = quad(3, 1, 7)
            b = quad(2, 1, 3)  # independent-looking cross-field pair
        if not a or not b:
            continue
        v = roots_multiplicatively_independent(a, b, 6)
        w = roots_multiplicatively_independent(b, a, 6)
        assert v.dependent == w.dependent  # symmetric
        if which in (0, 1):
            assert v.dependent
        if v.dependent:
            p, q = v.witness
            assert value_equal(a**p * b**q, 1)


def test_dependence_when_product_or_ratio_is_trivial():
    assert roots_multiplicatively_independent(Fraction(5), Fraction(1, 5), 4).dependent
    assert roots_multiplicatively_independent(Fraction(5), Fraction(-1, 5), 4).dependent
    assert roots_multiplicatively_independent(Fraction(5), Fraction(5), 4).dependent
    assert roots_multiplicatively_independent(Fraction(5), Fraction(-5), 4).dependent
    z = quad(1, 1, 2)
    assert roots_multiplicatively_independent(z, -z, 4).dependent
    assert roots_multiplicatively_independent(z, z.conjugate() * -1, 4).dependent



# -- power tables against the direct-power oracles ----------------------------

UNITS = [quad(1, 1, 2), quad(2, 1, 3), quad(Fraction(1, 2), Fraction(1, 2), 5), quad(5, 2, 6)]
# -1, i, the primitive cube and sixth roots of unity, and their conjugates
UNITY = [
    Fraction(-1), quad(0, 1, -1), quad(0, -1, -1),
    quad(Fraction(-1, 2), Fraction(1, 2), -3), quad(Fraction(-1, 2), Fraction(-1, 2), -3),
    quad(Fraction(1, 2), Fraction(1, 2), -3), quad(Fraction(1, 2), Fraction(-1, 2), -3),
]
nonzero = st.integers(-6, 6).filter(bool)
rationals = st.builds(Fraction, nonzero, st.integers(1, 4))
quadratics = st.builds(
    quad, st.integers(-4, 4), nonzero, st.sampled_from([2, 3, 5, 6, -1, -2, -3])
)
bases = (
    rationals
    | st.builds(pow, st.sampled_from(UNITS), st.integers(-3, 3))
    | st.sampled_from(UNITY)
    | quadratics
)


def relatives(alpha):
    """Numbers tied to alpha: powers, conjugate, negative, rational multiples."""
    options = [
        st.builds(pow, st.just(alpha), st.integers(-3, 3)),
        st.just(-alpha),
        st.builds(lambda r: alpha * r, rationals),
    ]
    if isinstance(alpha, QuadNum):
        options.append(st.sampled_from([alpha.conjugate(), -alpha.conjugate()]))
        if alpha.d in (-1, -3):
            same_field = [z for z in UNITY if isinstance(z, QuadNum) and z.d == alpha.d]
            options.append(st.builds(lambda z: alpha * z, st.sampled_from(same_field)))
    return st.one_of(options)


# first base, then a relative of it or an unrelated (often cross-field) base
base_pairs = bases.flatmap(lambda a: st.tuples(st.just(a), relatives(a) | bases))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(base_pairs, st.integers(1, 9))
@example((quad(1, 1, 2), quad(2, 1, 3)), 9)  # independent cross-field units
@example((quad(1, 1, 2), quad(-1, 1, 2)), 9)  # unit and minus its conjugate: (1, -1)
@example((Fraction(-1), Fraction(-1)), 3)  # both roots of unity: (1, -1)
@example((quad(0, 1, -1), Fraction(-1)), 5)  # i^2 = -1: (2, -1)
@example((Fraction(2), quad(0, 1, 2)), 4)  # 2 = sqrt(2)^2 across representations
def test_dependence_matches_the_ring_scan(pair, expbound):
    alpha, beta = pair
    assert roots_multiplicatively_independent(alpha, beta, expbound) == ring_scan_dependence(
        alpha, beta, expbound
    )


LINEAR = [1, -1, 2, -2, 3, -3]
# x^2 + a*x + b: cyclotomic factors, +-sqrt(k), units, and +-1 +- i
QUADRATIC = [(0, 1), (1, 1), (-1, 1), (0, -2), (0, -3), (0, -8), (2, -1), (-2, -1),
             (0, 2), (-4, 1), (1, -1), (2, 2), (-2, 2), (0, 4), (0, -1), (3, 3)]


def _times(poly, factor):
    out = [0] * (len(poly) + len(factor) - 1)
    for i, x in enumerate(poly):
        for j, y in enumerate(factor):
            out[i + j] += x * y
    return out


def split_recurrence(factors):
    poly = [1]
    for factor in factors:
        poly = _times(poly, factor)
    order = len(poly) - 1
    return LinearRecurrence(tuple(-c for c in poly[1:]), (0,) * (order - 1) + (1,))


linear_factors = st.sampled_from(LINEAR).map(lambda r: (1, -r))
quadratic_factors = st.sampled_from(QUADRATIC).map(lambda ab: (1, *ab))
# orders 3 and 4 whose characteristic polynomial splits into integer factors
split_factors = st.one_of(
    st.lists(linear_factors, min_size=3, max_size=4),
    st.tuples(linear_factors, quadratic_factors),
    st.tuples(linear_factors, linear_factors, quadratic_factors),
    st.tuples(quadratic_factors, quadratic_factors),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(split_factors)
@example([(1, 0, 1), (1, 0, 4)])  # i and 2i: ratio 2, then i and -i: order 2
@example([(1, 2, 2), (1, -2, 2)])  # -1 +- i and 1 +- i: ratios of order 4
@example([(1, -1), (1, 1, 1)])  # 1 and the primitive cube roots of unity
def test_degeneracy_matches_the_root_power_scan(factors):
    rec = split_recurrence(factors)
    assert is_degenerate(rec) == root_power_degeneracy(rec)


def test_dependence_multiplications_grow_linearly_in_the_bound(monkeypatch):
    calls = []
    multiply = QuadNum.__mul__

    def counting(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(QuadNum, "__mul__", counting)
    monkeypatch.setattr(QuadNum, "__rmul__", counting)
    expbound = 40
    verdict = roots_multiplicatively_independent(quad(1, 1, 2), quad(2, 1, 3), expbound)
    assert verdict.independent
    assert len(calls) <= 3 * expbound + 10


# sha256 of the structured documents written by the ring-by-ring scan
PINNED_HYPOTHESES = {
    40: "7fda50c238aa0485e27fc6820b4629d5a500988cbdfce9c9e5ed5f3d609374d9",
    80: "71d0f41cc9b3a9b36c1e60d37f07b7b99f85bbb3ba348e94026c29c1a3077489",
}


@pytest.mark.parametrize("expbound", sorted(PINNED_HYPOTHESES))
def test_hypotheses_document_at_large_exponent_bounds_keeps_its_bytes(expbound, capsys):
    argv = ["hypotheses", "--rec=7,-10,-7,-1;4,-2,4,2", f"--exp-bound={expbound}",
            "--format=structured"]
    # cli.main lifts the interpreter's int-to-str digit cap for the process
    limit = sys.get_int_max_str_digits()
    try:
        assert main(argv) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == PINNED_HYPOTHESES[expbound]
