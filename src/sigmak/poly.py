"""Exact univariate polynomial kernel.

Dense polynomials over the rationals with everything the certificate path
needs: arithmetic, derivatives, Taylor shifts, gcd and squarefree machinery
and Sturm chains.  All arithmetic is exact; no operation in this module
ever rounds.  Gcds and Sturm chains run on one integer remainder chain of
positive multiples of the rational polynomials.  The resultant and
discriminant are proof devices of the paper, not steps of the decision;
they live with the test oracles.

Coefficients are stored ascending, ``coeffs[k]`` multiplying ``x**k``.  The
zero polynomial has an empty coefficient tuple and degree ``-inf``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from ._value import Value
from .errors import ZeroPolynomial
from .rationals import on_common_denominator, sign

NEG_INF = float("-inf")


class Poly(Value):
    """Immutable dense univariate polynomial with ``Fraction`` coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def _fields(self) -> tuple:
        return (self.coeffs,)

    # -- basic structure -----------------------------------------------------

    @property
    def degree(self):
        """Degree, or ``-inf`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        """Leading coefficient."""
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor) -> "Poly":
        factor = Fraction(factor)
        return Poly([factor * c for c in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self.scale(1 / self.lc)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact rational long division: ``self = q*other + r`` with deg r < deg other."""
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if len(rem) - 1 < d:
            return Poly(), self
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - d] = q
            for j in range(d + 1):
                rem[i - d + j] -= q * other.coeffs[j]
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    # -- evaluation ----------------------------------------------------------

    def eval_interval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Interval Horner evaluation: encloses ``p([lo, hi])``."""
        acc_lo = acc_hi = Fraction(0)
        for c in reversed(self.coeffs):
            products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
            acc_lo = min(products) + c
            acc_hi = max(products) + c
        return acc_lo, acc_hi


def evaluate(p: Poly, x):
    """Horner evaluation: exact for rational ``x``, floating point for float ``x``."""
    if not p.coeffs:
        return 0 * x
    acc = 0 * x
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def derivative(p: Poly, k: int = 1) -> Poly:
    """k-th derivative.  Degree drops by exactly ``k`` when ``k <= deg p``."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    cs = p.coeffs
    for _ in range(k):
        cs = tuple(cs[i] * i for i in range(1, len(cs)))
    return Poly(cs)


def taylor_shift(p: Poly, a) -> Poly:
    """Return ``q`` with ``q(x) = p(x + a)``, computed exactly.

    Repeated synthetic division collects the Taylor coefficients of ``p``
    at ``a`` in place.
    """
    a = Fraction(a)
    cs = list(p.coeffs)
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return Poly(cs)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals: the last element of ``_remainder_chain``, made monic."""
    ints = [_primitive_ints(f) for f in (p, q) if not f.is_zero]
    if not ints:
        return Poly()
    last = _remainder_chain(*ints)[-1] if len(ints) == 2 else ints[0]
    return Poly(last).monic() if len(last) > 1 else Poly([1])


def squarefree_part(p: Poly) -> Poly:
    """``p / gcd(p, p')`` made monic: same real roots, all simple."""
    if p.is_zero:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    if p.degree == 0:
        return Poly([1])
    g = poly_gcd(p, derivative(p))
    quotient, rem = p.divmod(g)
    assert rem.is_zero
    return quotient.monic()


def yun_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Squarefree decomposition ``p ~ prod f_i^i`` (monic factors, ascending i)."""
    if p.is_zero:
        raise ZeroPolynomial("decomposition of the zero polynomial")
    if p.degree < 1:
        return []
    p = p.monic()
    dp = derivative(p)
    g = poly_gcd(p, dp)
    b = (p // g).monic()
    d = (dp // g) - derivative(b)
    out: list[tuple[Poly, int]] = []
    i = 1
    while b.degree >= 1:
        fac = poly_gcd(b, d)
        if fac.degree >= 1:
            out.append((fac, i))
        b = (b // fac).monic()
        d = (d // fac) - derivative(b)
        i += 1
    return out


def _primitive_ints(p: Poly) -> list[int]:
    """Coefficients of ``p`` scaled by a positive rational to coprime integers."""
    ints, _ = on_common_denominator([c.as_integer_ratio() for c in p.coeffs])
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _value(q: list[int], x: Fraction) -> int:
    """``den**deg * q(num / den)`` for ``x = num / den``: an integer with the sign of ``q(x)``."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    for c in reversed(q):
        acc = acc * num + c * power
        power *= den
    return acc


class SturmChain(Value):
    """Sturm sequence of the squarefree part of a polynomial.

    Consecutive elements satisfy the negated-Euclidean-remainder recurrence;
    the sign-variation difference ``V(a) - V(b)`` counts the distinct real
    roots in the half-open interval ``(a, b]``.
    """

    __slots__ = ("chain",)

    def __init__(self, chain: Sequence[Poly]):
        object.__setattr__(self, "chain", tuple(chain))

    def _fields(self) -> tuple:
        return (self.chain,)

    def variations(self, x: Fraction) -> int:
        signs = [sign(evaluate(q, x)) for q in self.chain]
        return _count_variations(signs)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct real roots in ``(lo, hi]``."""
        if lo > hi:
            raise ValueError("empty interval")
        return self.variations(lo) - self.variations(hi)


def _count_variations(signs: Sequence[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            out += 1
        prev = s
    return out


def _remainder_chain(a: list[int], b: list[int]) -> list[list[int]]:
    """``a, b`` and the negated remainders after them as primitive integer lists.

    Each is a positive multiple of a signed remainder: ``prem(a, b)`` is
    ``lc(b)^(deg a - deg b + 1)`` times the rational remainder, negated when
    that factor is negative.  For ``b`` a positive multiple of ``a'``, by
    Sturm's theorem, its sign variations count the distinct real roots of
    ``a`` between two points that are not roots, squarefree or not.
    """
    chain = [a, b]
    while r := _prem(a, b):
        # -r over its content, negated back where lc(b)^(deg a - deg b + 1) < 0
        g = math.gcd(*r) * (-1 if b[-1] > 0 or (len(a) - len(b)) % 2 else 1)
        a, b = b, [v // g for v in r]
        chain.append(b)
    return chain


@lru_cache(maxsize=4096)
def sturm_chain(p: Poly) -> SturmChain:
    """Standard Sturm chain: the remainder chain of the squarefree part of ``p``.

    On the squarefree part ``count`` is exact at any end points, roots
    included.  Cached for polynomials whose roots are queried again.
    """
    q = squarefree_part(p)
    if q.degree < 1:
        return SturmChain((q,))
    chain = _remainder_chain(_primitive_ints(q), _primitive_ints(derivative(q)))
    return SturmChain(map(Poly, chain))


def cauchy_root_bound(p: Poly) -> Fraction:
    """``1 + max|a_i| / |a_n|``: every real root lies strictly inside ``(-B, B)``."""
    if p.is_zero:
        raise ZeroPolynomial("root bound of the zero polynomial")
    if p.degree < 1:
        return Fraction(1)
    top = abs(p.lc)
    rest = max(abs(c) for c in p.coeffs[:-1])
    return 1 + rest / top


# -- pseudo-remainders --------------------------------------------------------


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials: ``lc(b)^(da-db+1) * a mod b``.

    The scaling by ``lc(b)`` happens exactly ``da - db + 1`` times even when
    the degree drops early, matching the classical definition the
    subresultant divisions rely on.
    """
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for i in range(da, db - 1, -1):
        top = r[i]
        r = [lb * c for c in r]
        if top:
            for j in range(db + 1):
                r[i - db + j] -= top * b[j]
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return r
