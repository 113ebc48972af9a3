import random
from fractions import Fraction

import pytest

from pellsum.errors import TupleTooLargeError
from pellsum.sunits import (
    SPrimeSet,
    SUnit,
    enumerate_sunits,
    is_prime,
    subsums_nonvanishing,
)


def trial_division_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def test_is_prime_against_trial_division():
    for n in range(-5, 10000):
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_on_classic_pseudoprime_traps():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 25326001, 3215031751):
        assert not is_prime(n), n
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)  # 641 * 6700417
    assert is_prime(10**9 + 7)


def test_is_prime_exact_range_edge():
    # psi_12 = 399165290221 * 798330580441 passes every base up to 37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    # psi_13 passes every base up to 41, so it is refused rather than judged
    psi13 = 3317044064679887385961981
    for n in (psi13, psi13 + 2, 10**30):
        with pytest.raises(ValueError):
            is_prime(n)
    with pytest.raises(ValueError):
        SPrimeSet((2, psi13))


def test_prime_set_validation():
    assert len(SPrimeSet((2, 3, 5))) == 3
    with pytest.raises(ValueError):
        SPrimeSet((2, 4))
    with pytest.raises(ValueError):
        SPrimeSet((3, 2))
    with pytest.raises(ValueError):
        SPrimeSet((2, 2, 3))
    with pytest.raises(ValueError):
        SPrimeSet(())


def test_enumeration_single_prime():
    units = list(enumerate_sunits(SPrimeSet((2,)), 1))
    assert [u.value for u in units] == [
        Fraction(1, 2), Fraction(-1, 2),
        Fraction(1), Fraction(-1),
        Fraction(2), Fraction(-2),
    ]


def test_enumeration_count_formula():
    basis = SPrimeSet((2, 3, 5))
    for expbound in (1, 2):
        units = list(enumerate_sunits(basis, expbound))
        assert len(units) == (2 * expbound + 1) ** 3 * 2
        assert len(set(u.value for u in units)) == len(units)
        assert sum(1 for u in units if u.value > 0) == len(units) // 2


def test_enumeration_membership_examples():
    values = {u.value for u in enumerate_sunits(SPrimeSet((2, 3, 5)), 2)}
    assert Fraction(90, 4) in values  # 2^-1 * 3^2 * 5 / 2 = 2^-2 3^2 5
    assert Fraction(120) not in values  # needs 2^3, past the bound
    assert Fraction(-45, 4) in values
    assert Fraction(-45, 8) not in values  # likewise 2^-3


def test_sunit_value():
    basis = SPrimeSet((2, 3, 5))
    u = SUnit(-1, (2, 0, -1), basis)
    assert u.value == Fraction(-4, 5)


def test_subsum_certificates():
    good = subsums_nonvanishing((Fraction(8), Fraction(3)))
    assert good.ok and good.vanishing is None and good.size == 2
    bad = subsums_nonvanishing((Fraction(5), Fraction(-5), Fraction(2)))
    assert not bad.ok and bad.vanishing == (1, 2)
    assert subsums_nonvanishing((Fraction(125), Fraction(-6))).ok
    # full-sum vanishing is caught too
    full = subsums_nonvanishing((Fraction(1), Fraction(2), Fraction(-3)))
    assert not full.ok and full.vanishing == (1, 2, 3)


def test_subsum_verdict_is_permutation_invariant():
    rng = random.Random(8)
    for _ in range(200):
        entries = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        if any(e == 0 for e in entries):
            continue  # zero entries are themselves vanishing subsums
        base = subsums_nonvanishing(tuple(entries)).ok
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert subsums_nonvanishing(tuple(shuffled)).ok == base


def test_subsum_witness_is_lex_first():
    cert = subsums_nonvanishing((Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)))
    assert cert.vanishing == (1, 2)


def test_subsum_size_limits():
    with pytest.raises(ValueError):
        subsums_nonvanishing(())
    with pytest.raises(TupleTooLargeError):
        subsums_nonvanishing(tuple(Fraction(k + 1) for k in range(21)))


def test_sunit_tuple_totals():
    good = (Fraction(125), Fraction(-6))
    assert sum(good) == 119
    assert subsums_nonvanishing(good).ok
    bad = (Fraction(5), Fraction(-5))
    assert sum(bad) == 0 and not subsums_nonvanishing(bad).ok
