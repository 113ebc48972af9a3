import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from pellsum.errors import NotSquarefreeError
import norm_oracle
from pellsum.pell import PellData, _pqa, continued_fraction_sqrt, icbrt, pell_data
from pellsum.quadfield import is_squarefree


def cf_digits_oracle(d, count):
    """First `count` digits of sqrt(d) via generic (a + b*sqrt(d))/c states.

    Deliberately not the (P, Q) recurrence the library uses: full gcd
    reduction and a generic reciprocal step instead.
    """

    def floor_of(a, b, c):
        t = isqrt(b * b * d) if b >= 0 else -isqrt(b * b * d) - 1
        return (a + t) // c

    digits = []
    a, b, c = 0, 1, 1
    for _ in range(count):
        digit = floor_of(a, b, c)
        digits.append(digit)
        # reciprocal of ((a - digit*c) + b*sqrt(d)) / c
        a -= digit * c
        na, nb, nc = c * a, -c * b, a * a - b * b * d
        g = gcd(gcd(abs(na), abs(nb)), abs(nc))
        a, b, c = na // g, nb // g, nc // g
        if c < 0:
            a, b, c = -a, -b, -c
    return digits


def brute_pell(d, rhs, ymax):
    for y in range(1, ymax + 1):
        s = d * y * y + rhs
        if s < 0:
            continue
        x = isqrt(s)
        if x * x == s:
            return x, y
    return None


def test_cf_digits_match_generic_surd_oracle():
    for d in range(2, 120):
        if not is_squarefree(d) or isqrt(d) ** 2 == d:
            continue
        a0, period = continued_fraction_sqrt(d)
        want = cf_digits_oracle(d, 3 * len(period) + 1)
        got = [a0] + period * 3
        assert got == want[: len(got)], d


def test_cf_pinned_examples():
    assert continued_fraction_sqrt(2) == (1, [2])
    assert continued_fraction_sqrt(5) == (2, [4])
    assert continued_fraction_sqrt(13) == (3, [1, 1, 1, 1, 6])


def test_cf_last_digit_is_twice_the_first():
    for d in (2, 3, 5, 7, 13, 29, 61, 94):
        a0, period = continued_fraction_sqrt(d)
        assert period[-1] == 2 * a0


def test_the_walk_matches_the_two_pass_oracle_for_every_squarefree_d_below_2e4(capsys):
    assert norm_oracle.walk_sweep() == 0
    assert capsys.readouterr().out == "12159 Pell walks, 0 walk mismatches\n"
    # period 1, d = a0^2 + 1 (d = 2 among them): the first state after a0 has Q = 1
    for a0 in (1, 2, 3, 4, 100):
        d = a0 * a0 + 1
        assert list(_pqa(d)) == [(a0, a0, 1)], d
        assert continued_fraction_sqrt(d) == (a0, [2 * a0])
    assert list(_pqa(3)) == [(1, 1, 1), (1, 2, 1)]
    assert continued_fraction_sqrt(3) == (1, [1, 2])


def test_walk_sweep_fails_on_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(norm_oracle, "convergent", lambda a0, period: (0, 0))
    assert norm_oracle.walk_sweep(8) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"walk mismatch: d={d}" for d in (2, 3, 5, 6, 7)),
        "5 Pell walks, 5 walk mismatches"]


def test_pell_data_pinned():
    assert pell_data(2) == PellData(2, (3, 2), (1, 1), (6, 4), (2,))
    assert pell_data(5) == PellData(5, (9, 4), (2, 1), (3, 1), (4,))
    assert pell_data(13) == PellData(13, (649, 180), (18, 5), (11, 3), (1, 1, 1, 1, 6))
    d61 = pell_data(61)
    assert d61.fundamental == (1766319049, 226153980)
    assert d61.negative == (29718, 3805)
    assert d61.automorph == (1523, 195)
    assert pell_data(37).automorph == (146, 24)
    assert pell_data(3).negative is None


def test_fundamental_is_brute_minimum():
    for d in range(2, 40):
        if not is_squarefree(d):
            continue
        data = pell_data(d)
        assert data.fundamental == brute_pell(d, 1, 10**4), d


def test_negative_solution_matches_brute_search():
    for d in range(2, 40):
        if not is_squarefree(d):
            continue
        data = pell_data(d)
        x1, y1 = data.fundamental
        brute = brute_pell(d, -1, y1)  # minimal negative has y < y1 when it exists
        assert data.negative == brute, d
        # solvable exactly when the period length is odd
        assert (brute is not None) == (data.cf_period % 2 == 1), d


def test_automorph_is_brute_minimum():
    for d in range(2, 40):
        if not is_squarefree(d):
            continue
        t, u = pell_data(d).automorph
        for v in range(1, u):
            s = d * v * v + 4
            r = isqrt(s)
            assert r * r != s, (d, v)
        assert t * t - d * u * u == 4


def test_automorph_is_odd_only_for_d_5_mod_8():
    for d in range(2, 60):
        if not is_squarefree(d):
            continue
        t, u = pell_data(d).automorph
        if t % 2 == 1:
            assert d % 8 == 5, d
            assert u % 2 == 1


def test_identities_hold():
    for d in (2, 5, 13, 29, 61, 94):
        data = pell_data(d)
        x, y = data.fundamental
        assert x * x - d * y * y == 1
        t, u = data.automorph
        assert t * t - d * u * u == 4
        if data.negative:
            a, b = data.negative
            assert a * a - d * b * b == -1
            # fundamental is the square of the negative solution
            assert data.fundamental == (a * a + d * b * b, 2 * a * b)


def test_unit_powers_stay_half_integral():
    for d in (2, 5, 13, 37, 61):
        eta = pell_data(d).unit()
        z = eta
        for n in range(2, 51):
            z = z * eta
            assert z.x.denominator in (1, 2), (d, n)
            assert z.y.denominator in (1, 2), (d, n)
            assert z.norm() == 1


def test_unit_for_13_is_half_integral():
    eta = pell_data(13).unit()
    assert (eta.x, eta.y) == (Fraction(11, 2), Fraction(3, 2))
    cube = eta * eta * eta  # integral, used for parity fixes on orbits
    assert (cube.x, cube.y) == (649, 180)


def test_icbrt():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(0, 10**15)
        r = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3
    for k in (1, 2, 10, 999, 10**6):
        assert icbrt(k**3) == k
        assert icbrt(k**3 - 1) == k - 1
        assert icbrt(k**3 + 1) == k


def test_bad_d_rejected():
    for d in (0, 1, -2, 4, 12, 50):
        with pytest.raises(NotSquarefreeError):
            pell_data(d)
    with pytest.raises(NotSquarefreeError):
        continued_fraction_sqrt(9)
