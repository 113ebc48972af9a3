import operator
import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import factor_oracle
from pellsum import quadfield
from pellsum.errors import MixedFieldError, NotSquarefreeError, SearchBudgetError
from pellsum.normform import NormFormProblem
from pellsum.quadfield import (
    QuadNum,
    _factor,
    is_squarefree,
    quad,
    squarefree_decompose,
    value_equal,
)
from pellsum.recurrences import _signed_divisors


def test_is_squarefree_against_trial_division():
    for n in range(1, 2000):
        expected = all(n % (p * p) != 0 for p in range(2, n + 1) if p * p <= n)
        assert is_squarefree(n) == expected, n


def test_squarefree_decompose_roundtrip():
    rng = random.Random(1234)
    for _ in range(500):
        n = rng.randint(-10**6, 10**6)
        if n == 0:
            continue
        c, d0 = squarefree_decompose(n)
        assert c >= 1
        assert c * c * d0 == n
        assert is_squarefree(abs(d0))
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_squarefree_decompose_examples():
    assert squarefree_decompose(32) == (4, 2)
    assert squarefree_decompose(-12) == (2, -3)
    assert squarefree_decompose(7) == (1, 7)
    assert squarefree_decompose(1) == (1, 1)


# n in +-[1, 1e12]: uniform draws, small cofactors times a prime near 1e9
# (trial division runs to about 3e4), and cofactors times the square of a
# prime near 1e5
_PRIMES_NEAR_1E9 = (999999937, 1000000007, 1000000009, 1000000021)
_PRIMES_NEAR_1E5 = (99989, 99991, 100003, 100019)
_magnitudes = st.one_of(
    st.integers(1, 10**12),
    st.builds(operator.mul, st.integers(1, 1000), st.sampled_from(_PRIMES_NEAR_1E9)),
    st.builds(lambda c, q: c * q * q, st.integers(1, 100), st.sampled_from(_PRIMES_NEAR_1E5)),
)
_factoring_inputs = st.builds(operator.mul, st.sampled_from((1, -1)), _magnitudes)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_factoring_inputs)
@example(1)
@example(-1)
@example(999983 * 999983)
@example(-4 * 1000000007)
def test_factoring_matches_the_trial_division_oracle(n):
    factors = list(_factor(n))
    assert prod(p**e for p, e in factors) == abs(n)
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})
    assert all(e >= 1 for _, e in factors)
    assert is_squarefree(n) == factor_oracle.is_squarefree(n)
    assert squarefree_decompose(n) == factor_oracle.squarefree_decompose(n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(-10**5, 10**5).filter(bool))
@example(1)
@example(-1)
@example(2**16)
@example(83160)  # 128 divisors
def test_signed_divisors_match_the_brute_force_list(n):
    assert _signed_divisors(n) == factor_oracle.signed_divisors(n)


def test_is_squarefree_stops_at_the_first_square_factor():
    # the cofactor 1e17+3 is past the trial-division limit; 4 decides first
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        assert is_squarefree(4 * (10**17 + 3)) is False
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.01


def test_factoring_past_the_trial_limit_refuses_naming_the_number():
    with pytest.raises(SearchBudgetError) as info:
        is_squarefree(10**17 + 3)
    assert "100000000000000003" in str(info.value)
    assert str(quadfield.FACTOR_TRIAL_LIMIT) in str(info.value)
    with pytest.raises(SearchBudgetError, match="-100000000000000003"):
        squarefree_decompose(-(10**17 + 3))


def test_a_cofactor_up_to_the_limit_squared_is_a_prime():
    # 1000000000039 is prime; every divisor up to 1e6 is tried, then it stands
    assert list(_factor(1000000000039)) == [(1000000000039, 1)]
    NormFormProblem(1000000000039, 1)  # pell's validator accepts it
    # 9999991, the largest prime below the limit 1e7, still divides out
    assert list(_factor(2 * 9999991**2)) == [(2, 1), (9999991, 2)]


def test_each_field_d_is_factored_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return is_squarefree(n)

    monkeypatch.setattr(quadfield, "_ACCEPTED_D", set())
    monkeypatch.setattr(quadfield, "is_squarefree", counting)
    w = quad(1, 1, 6)
    for _ in range(5):
        w = w * w + 1
    with pytest.raises(NotSquarefreeError):
        quad(1, 1, 12)
    with pytest.raises(NotSquarefreeError):
        quad(1, 1, 12)
    assert calls == [6, 12, 12]
    # the type check still comes first for a d equal to an accepted one
    for bad in (6.0, Fraction(6), True, [6]):
        with pytest.raises(NotSquarefreeError, match="d must be an int"):
            QuadNum(Fraction(1), Fraction(1), bad)
    assert quadfield._ACCEPTED_D == {6}


def test_constructor_rejects_bad_d():
    for d in (0, 1, 4, 12, 18, -4):
        with pytest.raises(NotSquarefreeError):
            quad(1, 1, d)
    # negative squarefree d is a legitimate imaginary field
    w = quad(Fraction(-1, 2), Fraction(1, 2), -3)
    assert w.norm() == 1


def test_multiplication_schoolbook():
    # (a + b*sqrt(d)) * (c + e*sqrt(d)) expanded by hand
    rng = random.Random(99)
    for _ in range(400):
        d = rng.choice([2, 3, 5, 13, -1, -3])
        a, b, c, e = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        left = quad(a, b, d) * quad(c, e, d)
        assert left.x == a * c + d * b * e
        assert left.y == a * e + b * c


def test_norm_is_multiplicative():
    rng = random.Random(7)
    for _ in range(1000):
        d = rng.choice([2, 3, 5, 13, 61, -1, -7])
        u = quad(rng.randint(-20, 20), rng.randint(-20, 20), d)
        v = quad(rng.randint(-20, 20), rng.randint(-20, 20), d)
        assert (u * v).norm() == u.norm() * v.norm()


def test_norm_and_trace_values():
    z = quad(3, 2, 2)
    assert z.norm() == 9 - 2 * 4 == 1
    assert z.conjugate() == quad(3, -2, 2)
    half = QuadNum(Fraction(11, 2), Fraction(3, 2), 13)
    assert half.norm() == Fraction(121 - 13 * 9, 4) == 1


def test_squaring_the_half_integer_unit():
    eta = QuadNum(Fraction(11, 2), Fraction(3, 2), 13)
    assert eta * eta == QuadNum(Fraction(119, 2), Fraction(33, 2), 13)


def test_division_and_inverse():
    rng = random.Random(5)
    for _ in range(300):
        d = rng.choice([2, 5, 13, -3])
        u = quad(rng.randint(-9, 9), rng.randint(-9, 9), d)
        if not u:
            continue
        assert u / u == quad(1, 0, d)
        assert u * u**-1 == quad(1, 0, d)
    with pytest.raises(ZeroDivisionError):
        quad(1, 1, 2) / quad(0, 0, 2)


def test_integer_powers_match_repeated_product():
    z = quad(1, 1, 2)
    acc = quad(1, 0, 2)
    for k in range(8):
        assert z**k == acc
        acc = acc * z
    assert z**-2 == (z**2) ** -1


def test_mixed_fields_rejected():
    with pytest.raises(MixedFieldError):
        quad(1, 1, 2) + quad(1, 1, 3)
    with pytest.raises(MixedFieldError):
        quad(1, 1, 2) * quad(0, 1, 5)


def test_rational_embedding_and_value_equal():
    # equality on QuadNum is componentwise; value_equal compares values
    assert QuadNum(Fraction(5), Fraction(0), 2) != QuadNum(Fraction(5), Fraction(0), 3)
    assert value_equal(quad(5, 0, 2), quad(5, 0, 3))
    assert value_equal(quad(5, 0, 2), 5)
    assert value_equal(Fraction(7, 2), quad(Fraction(7, 2), 0, 13))
    assert not value_equal(quad(0, 1, 2), quad(0, 1, 3))
    assert not value_equal(quad(1, 1, 2), quad(1, -1, 2))


def test_bool():
    assert not quad(0, 0, 5)
    assert quad(0, 1, 5)


def test_str_forms():
    assert str(quad(3, 2, 2)) == "3 + 2*sqrt(2)"
    assert str(quad(3, -2, 2)) == "3 - 2*sqrt(2)"
    assert str(QuadNum(Fraction(1, 2), Fraction(-1, 2), 5)) == "1/2 - 1/2*sqrt(5)"


def test_arithmetic_with_plain_rationals():
    z = quad(2, 1, 3)
    assert z + 1 == quad(3, 1, 3)
    assert 2 * z == quad(4, 2, 3)
    assert z - Fraction(1, 2) == QuadNum(Fraction(3, 2), Fraction(1), 3)
    assert z / 2 == QuadNum(Fraction(1), Fraction(1, 2), 3)
