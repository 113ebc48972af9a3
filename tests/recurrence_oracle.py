"""The degeneracy and dependence verdicts by direct powers, for comparison.

Both loops recompute every power from scratch, exactly as the recurrence
layer once did: the dependence search walks each ring (p, q) by (p, q) with
a norm pre-filter, and the degeneracy test raises each root to each k. Their
verdicts are the reference for the layer's power tables.
"""

from fractions import Fraction

from pellsum.quadfield import QuadNum, value_equal
from pellsum.recurrences import (
    MAX_UNITY_ORDER,
    DegeneracyVerdict,
    DependenceVerdict,
    characteristic_roots,
)


def power(v, k):
    if isinstance(v, QuadNum):
        return v**k
    return Fraction(v) ** k


def abs_norm(v):
    # both embeddings multiplied; for a rational that is just the square
    if isinstance(v, QuadNum):
        return abs(v.norm())
    return Fraction(v) ** 2


def ring_scan_dependence(alpha, beta, expbound):
    """First (p, q) in (ring, p, q) order with alpha^p = beta^(-q)."""
    na, nb = abs_norm(alpha), abs_norm(beta)
    for ring in range(1, expbound + 1):
        for p in range(0, ring + 1):
            for q in range(-ring, ring + 1):
                if max(p, abs(q)) != ring:
                    continue
                if p == 0 and q <= 0:
                    continue
                if na**p * nb**q != 1:
                    continue
                if value_equal(power(alpha, p), power(beta, -q)):
                    return DependenceVerdict(True, (p, q), expbound)
    return DependenceVerdict(False, None, expbound)


def root_power_degeneracy(rec):
    """The order 3-4 verdict: first k, then root pair, with equal k-th powers."""
    roots = characteristic_roots(rec)
    for k in range(1, MAX_UNITY_ORDER + 1):
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if value_equal(power(roots[i], k), power(roots[j], k)):
                    repeated = k == 1
                    what = "repeated root (ratio 1)" if repeated else (
                        f"ratio of roots {i + 1} and {j + 1} is a root of unity of order {k}"
                    )
                    return DegeneracyVerdict(True, k, repeated, what)
    detail = f"no root ratio is a root of unity up to order {MAX_UNITY_ORDER}"
    return DegeneracyVerdict(False, None, False, detail)


def characteristic_value(rec, x):
    """x^d - a1*x^(d-1) - ... - ad at x, exactly, by Horner's rule."""
    value = Fraction(1)
    for a in rec.coeffs:
        value = value * x - a
    return value
