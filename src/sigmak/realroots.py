"""Certified real-root isolation and exact algebraic-number queries.

A real algebraic number is a defining polynomial together with a rational
isolating interval containing exactly one of its roots, a simple one.
Every query below is decided exactly.  The decision paths (``compare``,
the chain certifier, the degree-4 closed form) bisect by sign and settle a
tie with one zero test, ``_shares_root``; a rational is compared by one
evaluation.  ``isolate_real_roots``, ``sign_at`` and
``count_real_roots_with_multiplicity`` are the Sturm-based general API and
the tests' independent reference.

``bracket`` is the only way a root becomes a rational: the decimal grid
points next to it, which depend on the number alone and never on how far
isolation or bisection happened to go.  ``approx``, report intervals and the
seeded base points of sampling and scans are all taken from it.  Its probes
are integer Horner values, positive multiples of the defining polynomial's.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ZeroPolynomial
from .poly import (
    Poly,
    _primitive_ints,
    cauchy_root_bound,
    evaluate,
    poly_gcd,
    squarefree_part,
    sturm_chain,
    taylor_shift,
    yun_decomposition,
)
from .rationals import sign


@dataclass(frozen=True)
class IsolatingInterval:
    """Closed rational interval holding exactly one root of the owner's defining polynomial."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


class Order(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class AlgebraicNumber:
    """One real root of a polynomial, pinned by an isolating interval.

    The interval holds exactly one root of ``defining``, and it is simple;
    when the interval is a point the root is that rational number itself,
    otherwise it lies strictly inside, where ``defining`` changes sign.
    ``multiplicity_in_source`` records the multiplicity the root had in the
    polynomial it was isolated from.
    """

    defining: Poly
    interval: IsolatingInterval
    multiplicity_in_source: int = 1

    @cached_property
    def _sign_lo(self) -> int:
        return sign(evaluate(self.defining, self.interval.lo))

    @property
    def is_rational(self) -> bool:
        return self.interval.is_point

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not pinned to a rational point")
        return self.interval.lo

    def __float__(self) -> float:
        if self.is_rational:
            return float(self.interval.lo)
        tight = refine(self, Fraction(1, 10**17))
        return float(tight.interval.midpoint())

    def shift(self, delta: Fraction) -> "AlgebraicNumber":
        """The number ``self + delta``."""
        delta = Fraction(delta)
        return AlgebraicNumber(
            taylor_shift(self.defining, -delta),
            IsolatingInterval(self.interval.lo + delta, self.interval.hi + delta),
            self.multiplicity_in_source,
        )

    def negate(self) -> "AlgebraicNumber":
        mirrored = self.defining.mirror()
        if mirrored.lc < 0:
            mirrored = -mirrored
        return AlgebraicNumber(
            mirrored,
            IsolatingInterval(-self.interval.hi, -self.interval.lo),
            self.multiplicity_in_source,
        )


def from_rational(value, multiplicity: int = 1) -> AlgebraicNumber:
    """Wrap an exact rational as a point algebraic number."""
    value = Fraction(value)
    return AlgebraicNumber(
        Poly([-value, 1]), IsolatingInterval(value, value), multiplicity
    )


def _shares_root(p: Poly, defining: Poly, lo: Fraction, hi: Fraction) -> bool:
    """True iff ``p`` vanishes at the root of ``defining`` in ``[lo, hi]``.

    Needs ``defining`` to have at most one root there, a simple one, and
    ``p`` or ``defining`` nonzero at each end.  ``g = gcd(p, defining)`` then
    has at most that root there and is nonzero at both ends, so it changes
    sign on ``[lo, hi]`` exactly when it has that root.
    """
    g = poly_gcd(p, defining)
    return sign(evaluate(g, lo)) != sign(evaluate(g, hi))


def _bisect_once(q: Poly, lo: Fraction, hi: Fraction, sign_lo: int):
    """One sign-bisection step for a simple root bracketed by opposite signs."""
    mid = (lo + hi) / 2
    s = sign(evaluate(q, mid))
    if s == 0:
        return mid, mid, sign_lo
    if s == sign_lo:
        return mid, hi, sign_lo
    return lo, mid, sign_lo


def refine(alpha: AlgebraicNumber, eps) -> AlgebraicNumber:
    """Same root, interval width <= eps.  Each step at least halves the width."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo, hi = alpha.interval.lo, alpha.interval.hi
    if hi - lo <= eps:
        return alpha
    q = alpha.defining
    s_lo = alpha._sign_lo
    while hi - lo > eps:
        lo, hi, s_lo = _bisect_once(q, lo, hi, s_lo)
        if lo == hi:
            break
    return AlgebraicNumber(q, IsolatingInterval(lo, hi), alpha.multiplicity_in_source)


def isolate_real_roots(p: Poly) -> list[AlgebraicNumber]:
    """All distinct real roots of ``p``, ascending, with pairwise-disjoint intervals.

    Intervals are produced by Sturm bisection from the Cauchy bound; rational
    roots hit during bisection are snapped to exact points.  Multiplicities
    come from the squarefree decomposition of ``p``.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if p.degree < 1:
        return []
    q = squarefree_part(p)
    if q.degree < 1:
        return []
    chain = sturm_chain(q)
    bound = cauchy_root_bound(q)
    total = chain.count(-bound, bound)
    if total == 0:
        return []

    intervals: list[IsolatingInterval] = []

    def split(lo: Fraction, hi: Fraction, count: int):
        if count == 0:
            return
        if count == 1 and sign(evaluate(q, lo)) * sign(evaluate(q, hi)) < 0:
            center = (lo + hi) / 2
            if evaluate(q, center) == 0:
                intervals.append(IsolatingInterval(center, center))
            else:
                intervals.append(IsolatingInterval(lo, hi))
            return
        mid = (lo + hi) / 2
        if evaluate(q, mid) == 0:
            # exact rational root: carve out a strip around it
            w = (hi - lo) / 4
            while (
                evaluate(q, mid - w) == 0
                or evaluate(q, mid + w) == 0
                or chain.count(mid - w, mid + w) > 1
            ):
                w /= 2
            left = chain.count(lo, mid - w)
            right = chain.count(mid + w, hi)
            split(lo, mid - w, left)
            intervals.append(IsolatingInterval(mid, mid))
            split(mid + w, hi, right)
        else:
            left = chain.count(lo, mid)
            split(lo, mid, left)
            split(mid, hi, count - left)

    split(-bound, bound, total)

    factors = yun_decomposition(p)
    out: list[AlgebraicNumber] = []
    for iv in intervals:
        mult = 1
        for fac, m in factors:
            if iv.is_point:
                hit = evaluate(fac, iv.lo) == 0
            else:
                hit = sturm_chain(fac).count(iv.lo, iv.hi) == 1
            if hit:
                mult = m
                break
        out.append(AlgebraicNumber(q, iv, mult))
    return out


def largest_real_root(p: Poly):
    """Rightmost element of ``isolate_real_roots``, or None when no real root exists."""
    roots = isolate_real_roots(p)
    return roots[-1] if roots else None


def sign_at(p: Poly, alpha: AlgebraicNumber) -> int:
    """Exact sign of ``p`` at the algebraic number.

    Zero is certified through ``gcd(p, defining)`` having a root inside the
    isolating interval; otherwise the interval is refined until interval
    evaluation of ``p`` has uniform sign.
    """
    if p.is_zero:
        return 0
    if alpha.is_rational:
        return sign(evaluate(p, alpha.rational_value))
    g = poly_gcd(p, alpha.defining)
    if g.degree >= 1 and sturm_chain(g).count(alpha.interval.lo, alpha.interval.hi) >= 1:
        return 0
    lo, hi = alpha.interval.lo, alpha.interval.hi
    s_lo = alpha._sign_lo
    q = alpha.defining
    while True:
        vlo, vhi = p.eval_interval(lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        lo, hi, s_lo = _bisect_once(q, lo, hi, s_lo)
        if lo == hi:
            return sign(evaluate(p, lo))


def compare(alpha: AlgebraicNumber, beta: AlgebraicNumber) -> Order:
    """Exact ordering of two algebraic numbers."""
    if alpha.is_rational and beta.is_rational:
        a, b = alpha.rational_value, beta.rational_value
        return Order.LESS if a < b else Order.GREATER if a > b else Order.EQUAL
    if alpha.is_rational:
        return Order(-compare(beta, alpha).value)
    if beta.is_rational:
        # on alpha's interval its defining polynomial has the sign at lo just below alpha
        r = beta.rational_value
        if not alpha.interval.contains(r):
            return Order.GREATER if r < alpha.interval.lo else Order.LESS
        return Order(sign(evaluate(alpha.defining, r)) * alpha._sign_lo)

    a_lo, a_hi = alpha.interval.lo, alpha.interval.hi
    b_lo, b_hi = beta.interval.lo, beta.interval.hi
    if a_hi < b_lo:
        return Order.LESS
    if b_hi < a_lo:
        return Order.GREATER

    # the overlap's ends are interval ends, where a defining polynomial is nonzero
    if _shares_root(alpha.defining, beta.defining, max(a_lo, b_lo), min(a_hi, b_hi)):
        return Order.EQUAL
    sa, sb = alpha._sign_lo, beta._sign_lo
    qa, qb = alpha.defining, beta.defining
    while True:
        a_lo, a_hi, sa = _bisect_once(qa, a_lo, a_hi, sa)
        b_lo, b_hi, sb = _bisect_once(qb, b_lo, b_hi, sb)
        if a_hi < b_lo or (a_lo == a_hi and a_lo < b_lo):
            return Order.LESS
        if b_hi < a_lo or (b_lo == b_hi and b_lo < a_lo):
            return Order.GREATER
        if a_lo == a_hi and b_lo == b_hi:
            if a_lo == b_lo:
                return Order.EQUAL
            return Order.LESS if a_lo < b_lo else Order.GREATER


def bracket(alpha: AlgebraicNumber, digits: int) -> tuple[Fraction, Fraction]:
    """``(floor(alpha * 10**digits), ceil(alpha * 10**digits)) / 10**digits``.

    The two ends are equal exactly when ``alpha`` is that decimal.  The
    result depends on the number alone, not on its isolating interval:
    bisection cuts only at grid points inside the interval, and a grid point
    where the defining polynomial vanishes is the number itself.

    With ``m * q = sum a_i x^i`` integral, ``m > 0``, each probe is the integer
    ``sum a_i 10**(digits * (deg - i)) k^i = 10**(digits * deg) * m * q(k / 10**digits)``.
    """
    if digits < 0:
        raise ValueError("digits must be a non-negative integer")
    scale = 10**digits
    if alpha.is_rational:
        value = alpha.rational_value * scale
        return Fraction(math.floor(value), scale), Fraction(math.ceil(value), scale)
    # the root lies strictly inside the interval; grid points a..b lie there too
    a = math.floor(alpha.interval.lo * scale) + 1
    b = math.ceil(alpha.interval.hi * scale) - 1
    scaled = [c * scale**i for i, c in enumerate(reversed(_primitive_ints(alpha.defining)))]
    while a <= b:
        k = (a + b) // 2
        acc = 0
        for c in scaled:
            acc = acc * k + c
        s = sign(acc)
        if s == 0:
            return Fraction(k, scale), Fraction(k, scale)
        if s == alpha._sign_lo:
            a = k + 1
        else:
            b = k - 1
    return Fraction(b, scale), Fraction(a, scale)


def approx(alpha: AlgebraicNumber, digits: int) -> str:
    """Decimal approximation with error below ``10**-digits``, final digit rounded half-even.

    The bracket one digit further decides the rounding: a next digit of 5 is
    an exact tie only when that bracket is a point.
    """
    if digits < 1:
        raise ValueError("digits must be a positive integer")
    return rounded(bracket(alpha, digits + 1), digits)


def rounded(deeper: tuple[Fraction, Fraction], digits: int) -> str:
    """``approx(alpha, digits)`` from ``deeper``, ``bracket(alpha, d)`` for some ``d > digits``.

    ``deeper`` fixes ``bracket(alpha, digits + 1)``, which decides the
    rounding: its lower end is ``lo`` rounded down to that grid, and it is a
    point exactly when ``deeper`` is a point on that grid.
    """
    lo, hi = deeper
    scaled = lo * 10 ** (digits + 1)
    kept, next_digit = divmod(math.floor(scaled), 10)
    tie = lo == hi and scaled.denominator == 1
    if next_digit > 5 or (next_digit == 5 and (not tie or kept % 2)):
        kept += 1
    whole, frac = divmod(abs(kept), 10**digits)
    return f"{'-' if kept < 0 else ''}{whole}.{frac:0{digits}d}"


def count_real_roots_with_multiplicity(p: Poly) -> int:
    """Total number of real roots counted with multiplicity."""
    if p.is_zero:
        raise ZeroPolynomial("root count of the zero polynomial")
    if p.degree < 1:
        return 0
    total = 0
    for fac, mult in yun_decomposition(p):
        total += mult * sturm_chain(fac).count_all()
    return total
