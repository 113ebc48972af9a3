"""Continued fractions of sqrt(d) and the classical Pell data derived from them.

The period is found by exact (P, Q) state repetition; the fundamental
solution comes from the convergent at the period boundary; x^2 - d y^2 = -1
is solvable exactly when the period length is odd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from ._records import record
from .errors import InvariantViolationError, NotSquarefreeError
from .quadfield import QuadNum, _validate_d


def _validate_real_d(d: int) -> None:
    if not isinstance(d, int) or isinstance(d, bool) or d <= 1:
        raise NotSquarefreeError(f"d must be a squarefree integer > 1, got {d!r}")
    _validate_d(d)


def continued_fraction_sqrt(d: int) -> tuple[int, list[int]]:
    """Expansion sqrt(d) = [a0; period...], exact.

    State is the pair (P, Q) of the surd (P + sqrt(d))/Q; the period is the
    digit run between the first state and its first repetition.
    """
    _validate_real_d(d)
    a0 = isqrt(d)
    digits: list[int] = []
    P, Q = a0, d - a0 * a0  # state after splitting off a0
    first = (P, Q)
    while True:
        a = (a0 + P) // Q
        digits.append(a)
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) == first:
            return a0, digits


def icbrt(n: int) -> int:
    """Floor integer cube root, Newton iteration on ints."""
    if n < 0:
        raise ValueError("icbrt of negative")
    if n < 2:
        return n
    r = 1 << ((n.bit_length() + 2) // 3)
    while True:
        r2 = (2 * r + n // (r * r)) // 3
        if r2 >= r:
            break
        r = r2
    while r * r * r > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


@record
class PellData:
    """Fundamental data of x^2 - d y^2 = 1 / -1 / 4 for squarefree d > 1.

    fundamental: minimal solution of x^2 - d y^2 = 1 with y >= 1
    negative:    minimal solution of x^2 - d y^2 = -1, None when unsolvable
    automorph:   minimal (t, u) with u >= 1 and t^2 - d u^2 = 4
    period:      continued-fraction period of sqrt(d)
    """

    d: int
    fundamental: tuple[int, int]
    negative: tuple[int, int] | None
    automorph: tuple[int, int]
    period: tuple[int, ...]

    @property
    def cf_period(self) -> int:
        """Length of the continued-fraction period."""
        return len(self.period)

    def unit(self) -> QuadNum:
        """(t + u*sqrt(d))/2 for the automorph; norm 1."""
        t, u = self.automorph
        return QuadNum(Fraction(t, 2), Fraction(u, 2), self.d)


def _convergent(a0: int, period: list[int]) -> tuple[int, int]:
    # p/q over the digits a0, period[0], ..., period[l-2]
    digits = [a0] + period[:-1]
    p_prev, p = 1, digits[0]
    q_prev, q = 0, 1
    for a in digits[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


def _minimal_automorph(d: int, fund: tuple[int, int]) -> tuple[int, int]:
    x1, y1 = fund
    # Solutions of t^2 - d u^2 = 4 are both-even (then (t,u) = 2*(x,y) with
    # x^2 - d y^2 = 1, minimal at 2*fundamental) or both-odd, which forces
    # d = 5 (mod 8). An odd solution eta satisfies eta^3 = x1 + y1*sqrt(d),
    # which caps the search range for u.
    if d % 8 == 5:
        cap_num = icbrt(8 * (x1 + y1 * (isqrt(d) + 1))) + 1
        cap = 2 * cap_num // isqrt(d) + 2
        for u in range(1, cap + 1, 2):
            s = d * u * u + 4
            t = isqrt(s)
            if t * t == s:
                return t, u
    return 2 * x1, 2 * y1


@lru_cache(maxsize=None)
def pell_data(d: int) -> PellData:
    """Compute PellData for squarefree d > 1. All identities re-checked."""
    a0, period = continued_fraction_sqrt(d)
    length = len(period)
    h, k = _convergent(a0, period)
    if h * h - d * k * k != (-1) ** length:
        raise InvariantViolationError(f"convergent identity failed for d={d}")
    if length % 2 == 0:
        fund, neg = (h, k), None
    else:
        neg = (h, k)
        fund = (h * h + d * k * k, 2 * h * k)
    t, u = _minimal_automorph(d, fund)
    x1, y1 = fund
    if x1 * x1 - d * y1 * y1 != 1 or t * t - d * u * u != 4:
        raise InvariantViolationError(f"pell identities failed for d={d}")
    if neg is not None and neg[0] ** 2 - d * neg[1] ** 2 != -1:
        raise InvariantViolationError(f"negative pell identity failed for d={d}")
    return PellData(d, fund, neg, (t, u), tuple(period))
