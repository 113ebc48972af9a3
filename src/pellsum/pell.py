"""Continued fractions of sqrt(d) and the classical Pell data derived from them.

One walk, _pqa, runs through the states (P + sqrt(d))/Q of sqrt(d)'s
expansion and stops at the first Q = 1 after the start, where the period
ends; the period's last digit is 2*a0. The convergent reached there gives
the fundamental solution, and x^2 - d y^2 = -1 is solvable exactly when the
period length is odd.
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


def _pqa(d: int, convergents: bool = True):
    """Walk the states (P + sqrt(d))/Q of sqrt(d) from P = 0, Q = 1 (PQa).

    Yields (a, p, q) per digit a, p/q being the convergent through a; after
    k digits p^2 - d*q^2 = (-1)^k * Q for the next state's Q. Ends before
    the first later state with Q = 1, (a0 + sqrt(d))/1, whose digit 2*a0
    closes the period: the last p/q solves p^2 - d*q^2 = (-1)^period.
    With convergents false p/q stays 1/0, since they grow to the unit's
    size (d = 99999999977: 0.07 s for the digits, 2.1 s with them).
    """
    _validate_real_d(d)
    a0 = isqrt(d)
    P, Q = 0, 1
    p_prev, p, q_prev, q = 0, 1, 1, 0
    while True:
        a = (a0 + P) // Q
        if convergents:
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
        yield a, p, q
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == 1:
            return


def continued_fraction_sqrt(d: int) -> tuple[int, list[int]]:
    """Expansion sqrt(d) = [a0; period...], exact, from one walk of _pqa."""
    a0, *digits = (a for a, _, _ in _pqa(d, convergents=False))
    return a0, [*digits, 2 * a0]


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
    """Compute PellData for squarefree d > 1 from one walk of sqrt(d). All
    identities re-checked."""
    digits = []
    for a, h, k in _pqa(d):
        digits.append(a)
    period = (*digits[1:], 2 * digits[0])
    length = len(period)
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
    return PellData(d, fund, neg, (t, u), period)


def _pell_results(data: PellData) -> dict:
    """The results of a `pell` document; verify-remark checks a record's
    Pell claims against the same dict. Its pairs stay lists, unlike other
    documents' tuples: that check compares them with JSON-loaded lists and
    prints them into its computed text."""
    return {"d": data.d, "a0": isqrt(data.d), "period": list(data.period),
            "period_length": data.cf_period, "fundamental": list(data.fundamental),
            "negative": list(data.negative) if data.negative else None,
            "automorph": list(data.automorph), "unit": str(data.unit())}
