"""Integer linear recurrences: exact terms, order-2 closed forms, degeneracy,
multiplicative dependence of roots, the audit of the finiteness hypotheses,
and the `recur`, `binet` and `hypotheses` subcommands.

Roots live in Fraction (rational case) or QuadNum (quadratic case, d may be
negative); orders 3 and 4 are handled only when the characteristic
polynomial splits into integer linear and quadratic factors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt

from ._records import record
from .errors import InvariantViolationError, RepeatedRootError, UnsupportedOrderError
from .quadfield import QuadNum, _value_key, squarefree_decompose, value_equal

Root = Fraction | QuadNum


def _check_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@record
class LinearRecurrence:
    """U_n = a1*U_{n-1} + ... + ad*U_{n-d} with integer data.

    coeffs is (a1, ..., ad) with ad != 0; initials is (U_0, ..., U_{d-1}),
    not all zero. Term generation is exact big-integer arithmetic.
    """

    coeffs: tuple[int, ...]
    initials: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(_check_int(a, "coefficient") for a in self.coeffs)
        initials = tuple(_check_int(u, "initial term") for u in self.initials)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "initials", initials)
        if not coeffs:
            raise ValueError("order must be at least 1")
        if coeffs[-1] == 0:
            raise ValueError("last coefficient must be nonzero")
        if len(initials) != len(coeffs):
            raise ValueError(
                f"need {len(coeffs)} initial terms, got {len(initials)}"
            )
        if not any(initials):
            raise ValueError("initial terms must not all be zero")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_literal(cls, text: str) -> "LinearRecurrence":
        """Parse "a1,...,ad;U0,...,U_{d-1}" (whitespace allowed)."""
        parts = text.split(";")
        if len(parts) != 2:
            raise ValueError(
                f"recurrence literal needs one ';' separating coefficients "
                f"from initial terms, got {text!r}"
            )

        def ints(chunk: str, what: str) -> tuple[int, ...]:
            items = [p.strip() for p in chunk.split(",")]
            try:
                return tuple(int(p) for p in items)
            except ValueError:
                raise ValueError(f"could not parse {what} in {chunk!r}") from None

        return cls(ints(parts[0], "coefficients"), ints(parts[1], "initial terms"))


def terms_up_to(rec: LinearRecurrence, n: int) -> list[int]:
    """[U_0, ..., U_n], exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = list(rec.initials[: n + 1])
    for _ in range(len(terms), n + 1):
        terms.append(sum(a * u for a, u in zip(rec.coeffs, reversed(terms))))
    return terms


# -- characteristic roots -------------------------------------------------


def _quadratic_roots(a: int, b: int) -> tuple[Root, Root]:
    # monic x^2 + a*x + b; repeated roots come back as an equal pair
    disc = a * a - 4 * b
    if disc >= 0:
        s = isqrt(disc)
        if s * s == disc:
            return Fraction(-a + s, 2), Fraction(-a - s, 2)
    c, d0 = squarefree_decompose(disc)
    return (
        QuadNum(Fraction(-a, 2), Fraction(c, 2), d0),
        QuadNum(Fraction(-a, 2), Fraction(-c, 2), d0),
    )


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k * k != n:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def _root_key(r: Root):
    if isinstance(r, QuadNum):
        return (1, r.d, r.x, r.y)
    return (0, r, 0, 0)


def characteristic_roots(rec: LinearRecurrence) -> tuple[Root, ...]:
    """Roots of x^d - a1*x^{d-1} - ... - ad, with multiplicity, order d <= 4.

    Deterministic order: rationals ascending, then quadratic roots by
    (d, x, y). Raises UnsupportedOrder when an irreducible factor of degree
    >= 3 remains; 0 is never a root since ad != 0.
    """
    d = rec.order
    if d > 4:
        raise UnsupportedOrderError(f"order {d} is past the exact-root range")
    if d == 1:
        return (Fraction(rec.coeffs[0]),)
    # poly[k] is the coefficient of x^(deg-k), monic
    poly = [1] + [-a for a in rec.coeffs]
    roots: list[Root] = []
    changed = True
    while changed and len(poly) > 3:
        changed = False
        const = poly[-1]
        for r in sorted((x for k in _divisors(const) for x in (k, -k)), key=lambda v: (abs(v), v)):
            quot, acc = [], 0
            for c in poly:
                acc = acc * r + c
                quot.append(acc)
            if quot.pop() == 0:
                roots.append(Fraction(r))
                poly = quot
                changed = True
                break
    deg = len(poly) - 1
    if deg == 1:
        roots.append(Fraction(-poly[1]))
    elif deg == 2:
        roots.extend(_quadratic_roots(poly[1], poly[2]))
    elif deg == 3:
        raise UnsupportedOrderError("irreducible cubic factor; exact roots unavailable")
    elif deg == 4:
        pair = _split_quartic(poly[1], poly[2], poly[3], poly[4])
        if pair is None:
            raise UnsupportedOrderError(
                "quartic does not split into integer quadratics; exact roots unavailable"
            )
        (a1, b1), (a2, b2) = pair
        roots.extend(_quadratic_roots(a1, b1))
        roots.extend(_quadratic_roots(a2, b2))
    return tuple(sorted(roots, key=_root_key))


def _split_quartic(p: int, q: int, r: int, s: int):
    # x^4+px^3+qx^2+rx+s = (x^2+ax+b)(x^2+cx+e) with integer a,b,c,e
    for b in sorted((x for k in _divisors(s) for x in (k, -k)), key=lambda v: (abs(v), v)):
        if s % b:
            continue
        e = s // b
        disc = p * p - 4 * (q - b - e)
        if disc < 0:
            continue
        t = isqrt(disc)
        if t * t != disc or (p + t) % 2:
            continue
        a = (p + t) // 2
        c = p - a
        if a * e + b * c == r:
            return (a, b), (c, e)
    return None


# -- order-2 closed form ---------------------------------------------------


@record
class BinetForm:
    """U_n = f1*a1^n + f2*a2^n for an order-2 recurrence with distinct roots."""

    roots: tuple[Root, Root]
    coeffs: tuple[Root, Root]
    discriminant: int

    def term(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be >= 0")
        f1, f2 = self.coeffs
        a1, a2 = self.roots
        v = _power(a1, n) * f1 + _power(a2, n) * f2
        x = v.x if isinstance(v, QuadNum) else Fraction(v)
        irr = v.y if isinstance(v, QuadNum) else 0
        if irr != 0 or x.denominator != 1:
            raise InvariantViolationError(f"closed form gave non-integer {v} at n={n}")
        return int(x)


def binet(rec: LinearRecurrence) -> BinetForm:
    """Exact roots and coefficients; the 2x2 initial-condition solve.

    Only order 2 with distinct roots; the discriminant a1^2 + 4*a2 decides
    the root field (rational when a perfect square, quadratic otherwise,
    including the negative case).
    """
    if rec.order != 2:
        raise UnsupportedOrderError("closed form implemented for order 2 only")
    a1, a2 = rec.coeffs
    u0, u1 = rec.initials
    disc = a1 * a1 + 4 * a2
    if disc == 0:
        raise RepeatedRootError(f"repeated root, discriminant 0 for coeffs {rec.coeffs}")
    alpha, beta = _quadratic_roots(-a1, -a2)
    f1 = (u1 - u0 * beta) / (alpha - beta)
    return BinetForm((alpha, beta), (f1, u0 - f1), disc)


# -- degeneracy ------------------------------------------------------------


def _power(v, k: int):
    if isinstance(v, QuadNum):
        return v**k
    return Fraction(v) ** k


# Highest root-of-unity order tested; 12 covers every root of unity of
# degree <= 4 (phi(k) <= 4 forces k <= 12).
MAX_UNITY_ORDER = 12


def root_of_unity_order(v) -> int | None:
    """Smallest k <= MAX_UNITY_ORDER with v^k = 1, or None."""
    acc = v
    for k in range(1, MAX_UNITY_ORDER + 1):
        if value_equal(acc, 1):
            return k
        acc = acc * v
    return None


@record
class DegeneracyVerdict:
    degenerate: bool
    unity_order: int | None
    repeated_root: bool
    detail: str


_UNITY_NAMES = {1: "1", 2: "-1", 3: "a primitive cube root of unity",
                4: "a primitive fourth root of unity",
                6: "a primitive sixth root of unity"}


def is_degenerate(rec: LinearRecurrence) -> DegeneracyVerdict:
    """Does some ratio of distinct-index roots equal a root of unity?

    Order 2 is decided by closed coefficient conditions on a = a1, b = a2:
    a = 0 (ratio -1), a^2 = -b (cube root), a^2 = -2b (fourth), a^2 = -3b
    (sixth); a^2 + 4b = 0 means a repeated root (ratio 1), flagged
    separately. Orders 3-4 compare the exact k-th powers of the roots for
    k = 1..MAX_UNITY_ORDER; each k costs one multiplication per root (the
    running power) and one value-key comparison per root pair.
    """
    d = rec.order
    if d == 1:
        return DegeneracyVerdict(False, None, False, "single root, no ratio to test")
    if d == 2:
        a, b = rec.coeffs
        if a * a + 4 * b == 0:
            return DegeneracyVerdict(True, 1, True, "repeated root (ratio 1)")
        for k, cond in ((2, a == 0), (3, a * a == -b), (4, a * a == -2 * b), (6, a * a == -3 * b)):
            if cond:
                return DegeneracyVerdict(
                    True, k, False, f"root ratio is {_UNITY_NAMES[k]}"
                )
        return DegeneracyVerdict(False, None, False, "no coefficient condition holds")
    roots = characteristic_roots(rec)
    powers = roots
    for k in range(1, MAX_UNITY_ORDER + 1):
        if k > 1:
            powers = tuple(v * r for v, r in zip(powers, roots))
        keys = [_value_key(v) for v in powers]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if keys[i] == keys[j]:
                    repeated = k == 1
                    what = "repeated root (ratio 1)" if repeated else (
                        f"ratio of roots {i + 1} and {j + 1} is a root of unity of order {k}"
                    )
                    return DegeneracyVerdict(True, k, repeated, what)
    detail = f"no root ratio is a root of unity up to order {MAX_UNITY_ORDER}"
    return DegeneracyVerdict(False, None, False, detail)


# -- multiplicative dependence ----------------------------------------------


@record
class DependenceVerdict:
    """Outcome of the bounded search for alpha^p * beta^q = 1."""

    dependent: bool
    witness: tuple[int, int] | None
    bound: int

    @property
    def independent(self) -> bool:
        return not self.dependent


def roots_multiplicatively_independent(alpha, beta, expbound: int) -> DependenceVerdict:
    """Search |p|, |q| <= expbound for an exact relation alpha^p * beta^q = 1.

    Witnesses are canonicalized to p >= 0 (and q > 0 when p = 0), scanned in
    rings of growing max(|p|, |q|), lexicographically inside a ring, so the
    reported witness is stable. The relation is checked as alpha^p =
    beta^(-q), which stays inside one field. Ring r extends alpha^r, beta^r
    and beta^-r by one multiplication each and files them in tables keyed
    by value, so a ring costs three multiplications and three lookups; the
    candidates of ring r are exactly the hits on one of its three powers.
    """
    if expbound < 1:
        raise ValueError("exponent bound must be >= 1")
    for v, name in ((alpha, "alpha"), (beta, "beta")):
        nonzero = bool(v) if isinstance(v, QuadNum) else Fraction(v) != 0
        if not nonzero:
            raise ValueError(f"{name} must be nonzero")
    beta_inv = beta.inverse() if isinstance(beta, QuadNum) else 1 / Fraction(beta)
    # value key -> exponents e with alpha^e (resp. beta^e) of that value
    alpha_table = {Fraction(1): [0]}
    beta_table = {Fraction(1): [0]}
    a_pow, b_pow, b_inv_pow = alpha, beta, beta_inv
    for ring in range(1, expbound + 1):
        if ring > 1:
            a_pow, b_pow, b_inv_pow = a_pow * alpha, b_pow * beta, b_inv_pow * beta_inv
        a_key, b_key, b_inv_key = _value_key(a_pow), _value_key(b_pow), _value_key(b_inv_pow)
        alpha_table.setdefault(a_key, []).append(ring)
        beta_table.setdefault(b_key, []).append(ring)
        beta_table.setdefault(b_inv_key, []).append(-ring)
        # each (p, q) below has p == ring or |q| == ring, so it lies on this ring;
        # (0, -ring) is the inverse of (0, ring), which is the canonical one
        found = [(ring, -e) for e in beta_table.get(a_key, ())]
        found += [(p, -ring) for p in alpha_table.get(b_key, ()) if p > 0]
        found += [(p, ring) for p in alpha_table.get(b_inv_key, ())]
        if found:
            return DependenceVerdict(True, min(found), expbound)
    return DependenceVerdict(False, None, expbound)


# -- hypothesis audit -------------------------------------------------------


@record
class RecurrenceHypotheses:
    """The four conditions the pair-sum finiteness statement needs.

    independence holds one certificate per root pair (1-based indices);
    unity_orders has one entry per root (None = not a root of unity up to
    order 12). applicable is the plain conjunction.
    """

    recurrence: LinearRecurrence
    degeneracy: DegeneracyVerdict
    independence: tuple[tuple[int, int, DependenceVerdict], ...]
    unity_orders: tuple[int | None, ...]
    last_coeff_not_unit: bool
    expbound: int

    @property
    def nondegenerate(self) -> bool:
        return not self.degeneracy.degenerate

    @property
    def pairwise_independent(self) -> bool:
        return all(v.independent for _, _, v in self.independence)

    @property
    def no_root_of_unity(self) -> bool:
        return all(order is None for order in self.unity_orders)

    @property
    def applicable(self) -> bool:
        return (
            self.nondegenerate
            and self.pairwise_independent
            and self.no_root_of_unity
            and self.last_coeff_not_unit
        )


def audit_hypotheses(rec: LinearRecurrence, expbound: int = 10) -> RecurrenceHypotheses:
    """Check all four hypotheses with exact root data (order <= 4)."""
    roots = characteristic_roots(rec)
    pairs = tuple(
        (i + 1, j + 1, roots_multiplicatively_independent(a, b, expbound))
        for (i, a), (j, b) in combinations(enumerate(roots), 2)
    )
    orders = tuple(root_of_unity_order(r) for r in roots)
    return RecurrenceHypotheses(
        rec,
        is_degenerate(rec),
        pairs,
        orders,
        abs(rec.coeffs[-1]) != 1,
        expbound,
    )


# -- subcommand handlers (cli.main dispatches here) ----------------------------


def _rec_config(rec) -> dict:
    return {"coeffs": list(rec.coeffs), "initials": list(rec.initials)}


def _hypotheses_json(hyp) -> dict:
    return {
        "exp_bound": hyp.expbound,
        "nondegenerate": hyp.nondegenerate,
        "degeneracy_detail": hyp.degeneracy.detail,
        "unity_orders": list(hyp.unity_orders),
        "independence": [
            {
                "roots": [i, j],
                "dependent": verdict.dependent,
                "witness": list(verdict.witness) if verdict.witness else None,
                "exp_bound": verdict.bound,
            }
            for i, j, verdict in hyp.independence
        ],
        "pairwise_independent": hyp.pairwise_independent,
        "no_root_of_unity": hyp.no_root_of_unity,
        "last_coeff_not_unit": hyp.last_coeff_not_unit,
        "applicable": hyp.applicable,
    }


def _cmd_recur(args):
    rec = LinearRecurrence.from_literal(args.rec)
    terms = terms_up_to(rec, args.n)
    results = {"order": rec.order, "terms": terms}
    shown = ", ".join(map(str, terms[:15])) + (", ..." if len(terms) > 15 else "")
    lines = [f"order {rec.order}, terms U_0 .. U_{args.n}: {shown}"]
    return {"rec": _rec_config(rec)}, results, lines


def _cmd_binet(args):
    rec = LinearRecurrence.from_literal(args.rec)
    form = binet(rec)
    first_terms = [form.term(n) for n in range(11)]
    results = {
        "discriminant": form.discriminant,
        "roots": [str(root) for root in form.roots],
        "coefficients": [str(coeff) for coeff in form.coeffs],
        "first_terms": first_terms,
    }
    lines = [
        f"discriminant {form.discriminant}",
        f"roots {form.roots[0]} and {form.roots[1]}",
        f"U_n = ({form.coeffs[0]}) * alpha^n + ({form.coeffs[1]}) * beta^n",
        "first terms: " + ", ".join(map(str, first_terms)),
    ]
    return {"rec": _rec_config(rec)}, results, lines


def _cmd_hypotheses(args):
    rec = LinearRecurrence.from_literal(args.rec)
    hyp = audit_hypotheses(rec, args.exp_bound)
    results = _hypotheses_json(hyp)
    flags = [
        ("nondegenerate", hyp.nondegenerate),
        ("roots pairwise independent", hyp.pairwise_independent),
        ("no root of unity", hyp.no_root_of_unity),
        ("last coefficient not a unit", hyp.last_coeff_not_unit),
    ]
    lines = [f"{'ok ' if ok else 'NO '} {name}" for name, ok in flags]
    lines.append(
        "all hypotheses hold" if hyp.applicable else "hypotheses do not all hold"
    )
    if not hyp.nondegenerate:
        lines.insert(0, hyp.degeneracy.detail)
    return {"rec": _rec_config(rec)}, results, lines
