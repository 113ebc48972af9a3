"""Factoring by plain trial division, for comparison.

These are the squarefree test and the squarefree decomposition exactly as
quadfield once wrote them, each with its own loop and no trial-divisor
limit, plus the signed divisors of n by testing every candidate. They are
the reference for quadfield._factor and the helpers built on it.
"""


def is_squarefree(n: int) -> bool:
    """True when no prime square divides |n|. 0 is not squarefree."""
    n = abs(n)
    if n == 0:
        return False
    if n % 4 == 0:
        return False
    while n % 2 == 0:
        n //= 2
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 2
    return True


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = c^2 * d0 with c >= 1 and d0 squarefree (sign kept on d0)."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if n < 0 else 1
    n = abs(n)
    c, d0 = 1, 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        c *= p ** (e // 2)
        if e % 2:
            d0 *= p
        p += 1 if p == 2 else 2
    return c, sign * d0 * n


def signed_divisors(n: int) -> list[int]:
    """Every k and -k with k dividing n, by (|k|, k), testing each k <= |n|."""
    divisors = [k for k in range(1, abs(n) + 1) if n % k == 0]
    return sorted((x for k in divisors for x in (k, -k)), key=lambda v: (abs(v), v))
