"""Exact arithmetic in quadratic fields Q(sqrt(d)), and integer factoring.

Elements are x + y*sqrt(d) with rational x, y and squarefree integer d.
Negative d is allowed (imaginary quadratic); the Pell machinery elsewhere
restricts itself to d > 1. QuadNum is a frozen record like the package's
other value classes; its constructor coerces x and y to Fraction and checks
each field's d once per process.
Every factoring in the package (squarefree tests and parts, divisors) is
_factor's trial division, which refuses past FACTOR_TRIAL_LIMIT.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import chain

from ._records import record
from .errors import MixedFieldError, NotSquarefreeError, SearchBudgetError

# Largest trial divisor _factor tries: under 1 s of division, then a refusal.
FACTOR_TRIAL_LIMIT = 10**7
_ACCEPTED_D: set[int] = set()  # every d _validate_d has passed


def _factor(n: int) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing |n|, p ascending.

    A generator: a caller may stop at the factor that decides its answer.
    Raises SearchBudgetError when the cofactor left after trial division up
    to FACTOR_TRIAL_LIMIT is past its square, so may be composite.
    """
    m = abs(n)
    for p in chain((2,), range(3, FACTOR_TRIAL_LIMIT + 1, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            yield p, e
    if m > FACTOR_TRIAL_LIMIT**2:
        raise SearchBudgetError(
            f"factoring {n} needs trial divisors past {FACTOR_TRIAL_LIMIT}"
        )
    if m > 1:
        yield m, 1


def is_squarefree(n: int) -> bool:
    """True when no prime square divides |n|. 0 is not squarefree."""
    return n != 0 and all(e == 1 for _, e in _factor(n))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = c^2 * d0 with c >= 1 and d0 squarefree (sign kept on d0)."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    c, d0 = 1, -1 if n < 0 else 1
    for p, e in _factor(n):
        c *= p ** (e // 2)
        d0 *= p ** (e % 2)
    return c, d0


def _validate_d(d: int) -> None:
    if not isinstance(d, int) or isinstance(d, bool):
        raise NotSquarefreeError(f"d must be an int, got {d!r}")
    if d in _ACCEPTED_D:
        return
    if d in (0, 1):
        raise NotSquarefreeError(f"d must not be 0 or 1, got {d}")
    if not is_squarefree(d):
        raise NotSquarefreeError(f"d must be squarefree, got {d}")
    _ACCEPTED_D.add(d)


@record
class QuadNum:
    """x + y*sqrt(d), exact. Immutable; hashable; equality is componentwise.

    Note componentwise equality treats QuadNum(5, 0, 2) and QuadNum(5, 0, 3)
    as distinct even though both denote 5; use value_equal for cross-field
    comparison of values.
    """

    x: Fraction
    y: Fraction
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))
        _validate_d(self.d)

    # -- helpers ---------------------------------------------------------

    def _coerce(self, other) -> "QuadNum":
        if isinstance(other, QuadNum):
            if other.d != self.d:
                raise MixedFieldError(
                    f"cannot combine sqrt({self.d}) with sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(Fraction(other), Fraction(0), self.d)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.x + o.x, self.y + o.y, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.x - o.x, self.y - o.y, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(o.x - self.x, o.y - self.y, self.d)

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self.x, -self.y, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(
            self.x * o.x + self.d * self.y * o.y,
            self.x * o.y + self.y * o.x,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadNum(self.x / n, -self.y / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "QuadNum":
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = QuadNum(Fraction(1), Fraction(0), self.d)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- field structure -------------------------------------------------

    def conjugate(self) -> "QuadNum":
        return QuadNum(self.x, -self.y, self.d)

    def norm(self) -> Fraction:
        """x^2 - d*y^2. Zero only for the zero element (d squarefree)."""
        return self.x * self.x - self.d * self.y * self.y

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        ys = "" if abs(self.y) == 1 else f"{abs(self.y)}*"
        tail = f"{ys}sqrt({self.d})"
        if self.x == 0:
            return tail if self.y > 0 else f"-{tail}"
        op = "+" if self.y > 0 else "-"
        return f"{self.x} {op} {tail}"


quad = QuadNum  # shorthand


def value_equal(a, b) -> bool:
    """Exact equality of values across representations.

    Accepts int, Fraction and QuadNum in any combination. Two irrational
    elements of different fields are never equal (sqrt(d1), sqrt(d2) are
    linearly independent over Q for distinct squarefree d).
    """
    return _value_key(a) == _value_key(b)


def _value_key(v) -> Fraction | tuple[Fraction, Fraction, int]:
    """Hashable key whose equality is value_equal: a rational by its value,
    whatever its representation; an irrational x + y*sqrt(d) as (x, y, d)."""
    if isinstance(v, QuadNum):
        return v.x if v.y == 0 else (v.x, v.y, v.d)
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError(f"expected a number, got {type(v).__name__}")
