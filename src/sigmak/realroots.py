"""Certified real-root isolation and exact algebraic-number queries.

A real algebraic number is a defining polynomial together with a rational
isolating interval containing exactly one of its roots, a simple one.
Every query below is decided exactly.  One loop, ``_narrowing``, narrows a
number's interval; ``refine``, ``sign_at``, ``compare`` and the chain
certifier iterate it; after a few bisections its steps are Abbott's (2006),
which gain twice the bits of the step before.  The decision paths settle a
tie with one zero test, ``_shares_root``; a rational is compared by one
evaluation.  ``isolate_real_roots`` and ``sign_at`` are the Sturm-based
general API and the tests' independent reference.

``bracket`` is the only way a root becomes a rational: the decimal grid
points next to it, which depend on the number alone and never on how far
isolation or narrowing happened to go.  ``approx``, report intervals and the
seeded base points of sampling and deformation windows are all taken from it.
It narrows by the same steps, and its probes are integer Horner values.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from fractions import Fraction

from ._value import Value
from .errors import ZeroPolynomial
from .poly import (
    Poly,
    _primitive_ints,
    cauchy_root_bound,
    evaluate,
    poly_gcd,
    squarefree_part,
    sturm_chain,
    yun_decomposition,
)
from .rationals import sign

# Bisections before the quadratic steps: the chain certifier settles a sign
# within 4 steps, so only long narrowings, close roots and deep brackets go quadratic.
_PLAIN_BISECTIONS = 4


class IsolatingInterval(Value):
    """Closed rational interval holding exactly one root of the owner's defining polynomial."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def _fields(self) -> tuple:
        return self.lo, self.hi

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


class AlgebraicNumber(Value):
    """One real root of a polynomial, pinned by an isolating interval.

    The interval holds exactly one root of ``defining``, and it is simple;
    when the interval is a point the root is that rational number itself,
    otherwise it lies strictly inside, and ``defining`` rises through it:
    negative at ``interval.lo``, positive at ``interval.hi``.  The
    constructor evaluates the sign at ``lo`` once, negates a ``defining``
    that is positive there and rejects one that vanishes there; only
    ``_rising`` builds a number whose sign is already proved.
    ``multiplicity_in_source`` records the multiplicity the root had in the
    polynomial it was isolated from.
    """

    __slots__ = ("defining", "interval", "multiplicity_in_source")

    def __init__(self, defining: Poly, interval: IsolatingInterval, multiplicity_in_source=1):
        if not interval.is_point:
            s = sign(evaluate(defining, interval.lo))
            if s == 0:
                raise ValueError("the defining polynomial vanishes at the interval's lower end")
            defining = -defining if s > 0 else defining
        self._store(defining, interval, multiplicity_in_source)

    def _store(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return self.defining, self.interval, self.multiplicity_in_source

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


def from_rational(value) -> AlgebraicNumber:
    """Wrap an exact rational as a point algebraic number, a simple root of ``x - value``."""
    value = Fraction(value)
    return AlgebraicNumber(Poly([-value, 1]), IsolatingInterval(value, value))


def _shares_root(p: Poly, defining: Poly, lo: Fraction, hi: Fraction) -> bool:
    """True iff ``p`` vanishes at the root of ``defining`` in ``[lo, hi]``.

    Needs ``defining`` to have at most one root there, a simple one, and
    ``p`` or ``defining`` nonzero at each end.  ``g = gcd(p, defining)`` then
    has at most that root there and is nonzero at both ends, so it changes
    sign on ``[lo, hi]`` exactly when it has that root.
    """
    g = poly_gcd(p, defining)
    return sign(evaluate(g, lo)) != sign(evaluate(g, hi))


def _step(value, cut, n, lo, hi, v_lo, v_hi):
    """One step on ``[lo, hi]``: ``(lo, hi, v_lo, v_hi, cells)`` after it, a point at a zero.

    ``value`` rises through zero once in ``(lo, hi)``; ``cut(lo, hi, i, n)``
    ends the i-th of ``n`` equal cells.  ``n = 2`` bisects.  Else the
    cell end nearest the secant's zero and its neighbour on the change's side
    are probed; their cell is kept when their signs differ (``cells = n**2``),
    else what is left is bisected (``cells = sqrt(n)``) unless it is one grid
    cell.  Only an end without a value is evaluated at ``lo`` or ``hi``; every
    probe whose sign is read lies strictly between, on a grid when ``n`` is at
    most its number of cells.
    """
    i = 1
    if n > 2:
        v_lo = value(lo) if v_lo is None else v_lo
        v_hi = value(hi) if v_hi is None else v_hi
        # integer multiples of the end values; they only steer the guess, even when equal
        a, b = v_lo.numerator * v_hi.denominator, v_hi.numerator * v_lo.denominator
        i = min(max((2 * n * a + a - b) // (2 * (a - b) or 1), 1), n - 1)
    x = cut(lo, hi, i, n)
    v = value(x)
    if v == 0:
        return x, x, v, v, n
    j = i + 1 if v < 0 else i - 1
    y = cut(lo, hi, j, n) if 0 < j < n else None
    lo, hi, v_lo, v_hi = (x, hi, v, v_hi) if j > i else (lo, x, v_lo, v)
    if y is None:
        return lo, hi, v_lo, v_hi, n * n
    w = value(y)
    if w == 0:
        return y, y, w, w, n
    accepted = sign(w) != sign(v)
    lo, hi, v_lo, v_hi = (lo, y, v_lo, w) if (j > i) == accepted else (y, hi, w, v_hi)
    if accepted:
        return lo, hi, v_lo, v_hi, n * n
    if cut(lo, hi, 1, 2) != lo:
        lo, hi, v_lo, v_hi, _ = _step(value, cut, 2, lo, hi, v_lo, v_hi)
    return lo, hi, v_lo, v_hi, max(4, math.isqrt(n))


def _cut(lo: Fraction, hi: Fraction, i: int, n: int) -> Fraction:
    return (lo + hi) / 2 if n == 2 else lo + (hi - lo) * i / n


def _grid_cut(lo: int, hi: int, i: int, n: int) -> int:
    return lo + (hi - lo) * i // n


def _narrowing(alpha: AlgebraicNumber):
    """``(lo, hi)``, ``alpha``'s interval, then after each ``_step`` on it.

    After ``_PLAIN_BISECTIONS`` bisections the steps are Abbott's, so each
    at least halves the width and the bits they gain double.  Every
    interval holds the root with ``defining`` rising through it, or is the
    point a step landed on.
    """
    lo, hi = alpha.interval.lo, alpha.interval.hi
    value = functools.partial(evaluate, alpha.defining)
    v_lo, v_hi, cells = None, None, 4
    for step in itertools.count():
        yield lo, hi
        if lo != hi:
            n = 2 if step < _PLAIN_BISECTIONS else cells
            lo, hi, v_lo, v_hi, cells = _step(value, _cut, n, lo, hi, v_lo, v_hi)


def _rising(defining: Poly, lo: Fraction, hi: Fraction, multiplicity: int = 1) -> AlgebraicNumber:
    """The root of ``defining`` in ``[lo, hi]``, built without evaluating.

    ``defining`` must be proved negative at ``lo`` unless ``lo == hi``: a
    known root on a narrowed interval, or a new one whose bracket proved it.
    """
    alpha = object.__new__(AlgebraicNumber)
    alpha._store(defining, IsolatingInterval(lo, hi), multiplicity)
    return alpha


def refine(alpha: AlgebraicNumber, eps) -> AlgebraicNumber:
    """Same root, interval width <= eps, by ``_narrowing``'s halving and quadratic steps."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if alpha.interval.width <= eps:
        return alpha
    for lo, hi in _narrowing(alpha):
        if hi - lo <= eps:
            return _rising(alpha.defining, lo, hi, alpha.multiplicity_in_source)


def isolate_real_roots(p: Poly) -> list[AlgebraicNumber]:
    """All distinct real roots of ``p``, ascending, in intervals that meet at most at an end.

    Sturm bisection of the squarefree part from the Cauchy bound walks one
    work list of open intervals with their root counts, so roots closer than
    any recursion depth still separate.  A rational root met by bisection
    becomes a point, and its two open sides go back on the list; a lone root
    bracketed by opposite end signs is kept, snapped to the centre when it is
    that.  Multiplicities come from the squarefree decomposition of ``p``.
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

    roots = []  # (lo, hi, q or -q: negative at lo unless lo == hi)
    # (lo, hi, the number of roots in the open interval (lo, hi))
    work = [(-bound, bound, chain.count(-bound, bound))]
    while work:
        lo, hi, count = work.pop()
        if count == 0:
            continue
        if count == 1 and (s_lo := sign(evaluate(q, lo))) * sign(evaluate(q, hi)) < 0:
            center = (lo + hi) / 2
            if evaluate(q, center) == 0:
                lo = hi = center
            roots.append((lo, hi, -q if s_lo > 0 and lo < hi else q))
            continue
        mid = (lo + hi) / 2
        left = chain.count(lo, mid)  # the roots in (lo, mid]
        if evaluate(q, mid) == 0:
            roots.append((mid, mid, q))
            work += [(lo, mid, left - 1), (mid, hi, count - left)]
        else:
            work += [(lo, mid, left), (mid, hi, count - left)]
    roots.sort(key=lambda root: root[0])

    factors = yun_decomposition(p)
    out: list[AlgebraicNumber] = []
    for lo, hi, defining in roots:
        mult = 1
        for fac, m in factors:
            if lo == hi:
                hit = evaluate(fac, lo) == 0
            else:
                hit = sturm_chain(fac).count(lo, hi) == 1
            if hit:
                mult = m
                break
        out.append(_rising(defining, lo, hi, mult))
    return out


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
    for lo, hi in _narrowing(alpha):
        if lo == hi:
            return sign(evaluate(p, lo))
        vlo, vhi = p.eval_interval(lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1


def compare(alpha: AlgebraicNumber, beta: AlgebraicNumber) -> Order:
    """Exact ordering of two algebraic numbers."""
    if alpha.is_rational and beta.is_rational:
        a, b = alpha.rational_value, beta.rational_value
        return Order.LESS if a < b else Order.GREATER if a > b else Order.EQUAL
    if alpha.is_rational:
        return Order(-compare(beta, alpha).value)
    if beta.is_rational:
        # on alpha's interval its defining polynomial is negative just below alpha
        r = beta.rational_value
        if not alpha.interval.contains(r):
            return Order.GREATER if r < alpha.interval.lo else Order.LESS
        return Order(-sign(evaluate(alpha.defining, r)))

    a_lo, a_hi = alpha.interval.lo, alpha.interval.hi
    b_lo, b_hi = beta.interval.lo, beta.interval.hi
    if a_hi < b_lo:
        return Order.LESS
    if b_hi < a_lo:
        return Order.GREATER

    # the overlap's ends are interval ends, where a defining polynomial is nonzero
    if _shares_root(alpha.defining, beta.defining, max(a_lo, b_lo), min(a_hi, b_hi)):
        return Order.EQUAL
    # the narrowings shrink to the two distinct roots, which separates them
    for (a_lo, a_hi), (b_lo, b_hi) in zip(_narrowing(alpha), _narrowing(beta)):
        if a_hi < b_lo:
            return Order.LESS
        if b_hi < a_lo:
            return Order.GREATER


def bracket(alpha: AlgebraicNumber, digits: int) -> tuple[Fraction, Fraction]:
    """``(floor(alpha * 10**digits), ceil(alpha * 10**digits)) / 10**digits``.

    The ends are equal exactly when ``alpha`` is that decimal.  ``_step``
    narrows on the grid, quadratically after a few bisections; every sign it
    reads is at a grid point inside the interval, so the result depends on
    the number alone, and a grid point where the defining polynomial
    vanishes is it.

    With ``m * q = sum a_i x^i`` integral, ``m > 0``, each probe is the integer
    ``sum a_i 10**(digits * (deg - i)) k^i = 10**(digits * deg) * m * q(k / 10**digits)``.
    """
    if digits < 0:
        raise ValueError("digits must be a non-negative integer")
    scale = 10**digits
    if alpha.is_rational:
        value = alpha.rational_value * scale
        return Fraction(math.floor(value), scale), Fraction(math.ceil(value), scale)
    scaled = [c * scale**i for i, c in enumerate(reversed(_primitive_ints(alpha.defining)))]

    def probe(k):
        acc = 0
        for c in scaled:
            acc = acc * k + c
        return acc

    # grid indices with the root strictly between; an end that lies outside
    # the interval is never probed by a step, its value only steers the secant
    lo, hi = math.floor(alpha.interval.lo * scale), math.ceil(alpha.interval.hi * scale)
    v_lo, v_hi, cells = None, None, 4
    for step in itertools.count():
        if hi - lo <= 1:
            return Fraction(lo, scale), Fraction(hi, scale)
        n = 2 if step < _PLAIN_BISECTIONS else min(cells, hi - lo)
        lo, hi, v_lo, v_hi, cells = _step(probe, _grid_cut, n, lo, hi, v_lo, v_hi)


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
