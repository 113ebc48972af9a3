"""Rational S-units (signed smooth numbers) and subsum certificates.

An S-unit over the primes P_1 < ... < P_l is sign * prod P_i^(b_i) with
integer exponents of either sign. Enumeration order is deterministic, so
searches over the enumeration report in a fixed order.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import product

from ._records import record
from .errors import TupleTooLargeError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base up to 41
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the primes up to 41.

    Exact for n < psi_13 = 3317044064679887385961981 (about 3.3e24); raises
    ValueError at or above it rather than risk calling a composite prime.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"{n} is too large for the deterministic primality test"
            f" (exact below {_MR_EXACT_BELOW})"
        )
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record
class SPrimeSet:
    """Strictly increasing tuple of primes."""

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        primes = tuple(self.primes)
        object.__setattr__(self, "primes", primes)
        if not primes:
            raise ValueError("need at least one prime")
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if any(a >= b for a, b in zip(primes, primes[1:])):
            raise ValueError("primes must be strictly increasing")

    def __len__(self) -> int:
        return len(self.primes)


@record
class SUnit:
    sign: int
    exponents: tuple[int, ...]
    basis: SPrimeSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.exponents) != len(self.basis):
            raise ValueError("one exponent per prime")

    @property
    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, b in zip(self.basis.primes, self.exponents):
            v *= Fraction(p) ** b
        return v


def enumerate_sunits(basis: SPrimeSet, expbound: int) -> Iterator[SUnit]:
    """All S-units with every |b_i| <= expbound, in a fixed order.

    Order: exponent vectors lexicographically (from -expbound up), sign +1
    before -1.
    """
    if expbound < 0:
        raise ValueError("exponent bound must be >= 0")
    for exps in product(range(-expbound, expbound + 1), repeat=len(basis)):
        for sign in (1, -1):
            yield SUnit(sign, exps, basis)


@record
class SubsumCertificate:
    """Verdict that every nonempty subsum of a tuple is nonzero.

    vanishing, when set, is the lexicographically first offending index set
    (1-based).
    """

    ok: bool
    vanishing: tuple[int, ...] | None
    size: int


def subsums_nonvanishing(entries) -> SubsumCertificate:
    """Check all 2^t - 1 nonempty subsums of up to t = 20 rationals; int
    entries are summed as they are."""
    values = [w if type(w) is int else Fraction(w) for w in entries]
    t = len(values)
    if t < 1:
        raise ValueError("need at least one entry")
    if t > 20:
        raise TupleTooLargeError(f"{t} entries means 2^{t} subsums; capped at 20")

    def scan(start: int, acc, picked: tuple[int, ...]):
        for i in range(start, t):
            total = acc + values[i]
            chosen = picked + (i + 1,)
            if total == 0:
                return chosen
            hit = scan(i + 1, total, chosen)
            if hit is not None:
                return hit
        return None

    witness = scan(0, 0, ())
    return SubsumCertificate(witness is None, witness, t)
