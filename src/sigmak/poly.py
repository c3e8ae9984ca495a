"""Exact univariate polynomial kernel.

Dense polynomials over the rationals with everything the certificate path
needs: arithmetic, derivatives, Taylor shifts, gcd and squarefree machinery,
Sturm chains, resultants and discriminants.  All arithmetic is exact; no
operation in this module ever rounds.  Gcds, remainder sequences and
resultants run on integer forms, positive multiples of the rational ones.

Coefficients are stored ascending, ``coeffs[k]`` multiplying ``x**k``.  The
zero polynomial has an empty coefficient tuple and degree ``-inf``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DegreeTooLow, ZeroPolynomial
from .rationals import sign

NEG_INF = float("-inf")


class Poly:
    """Immutable dense univariate polynomial with ``Fraction`` coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

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

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return "Poly(" + " + ".join(terms) + ")"

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

    def mirror(self) -> "Poly":
        """p(-x)."""
        return Poly([c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

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

    def __call__(self, x):
        return evaluate(self, x)

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


def _clear_denominators(p: Poly) -> tuple[list[int], int]:
    """Integer coefficients of ``den * p`` for the least positive ``den`` making them integral."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _primitive_ints(p: Poly) -> list[int]:
    """Coefficients of ``p`` scaled by a positive rational to coprime integers."""
    ints, _ = _clear_denominators(p)
    g = math.gcd(*ints)
    return [v // g for v in ints]


class SturmChain:
    """Sturm sequence of the squarefree part of a polynomial.

    Consecutive elements satisfy the negated-Euclidean-remainder recurrence;
    the sign-variation difference ``V(a) - V(b)`` counts the distinct real
    roots in the half-open interval ``(a, b]``.
    """

    __slots__ = ("chain",)

    def __init__(self, chain: Sequence[Poly]):
        object.__setattr__(self, "chain", tuple(chain))

    def __setattr__(self, name, value):
        raise AttributeError("SturmChain is immutable")

    def variations(self, x: Fraction) -> int:
        signs = [sign(evaluate(q, x)) for q in self.chain]
        return _count_variations(signs)

    def variations_at_infinity(self, positive: bool) -> int:
        signs = []
        for q in self.chain:
            if q.is_zero:
                signs.append(0)
            elif positive:
                signs.append(sign(q.lc))
            else:
                signs.append(sign(q.lc) * (-1 if q.degree % 2 else 1))
        return _count_variations(signs)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct real roots in ``(lo, hi]``."""
        if lo > hi:
            raise ValueError("empty interval")
        return self.variations(lo) - self.variations(hi)

    def count_all(self) -> int:
        """Distinct real roots on the whole line."""
        return self.variations_at_infinity(False) - self.variations_at_infinity(True)


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
    """``a, b`` and the negated remainders after them as primitive integer lists."""
    chain = [a, b]
    while r := _prem(a, b):
        # -r over its content, negated back where lc(b)^(deg a - deg b + 1) < 0
        g = math.gcd(*r) * (-1 if b[-1] > 0 or (len(a) - len(b)) % 2 else 1)
        a, b = b, [v // g for v in r]
        chain.append(b)
    return chain


def remainder_sequence(p: Poly) -> SturmChain:
    """Signed remainder sequence ``p, p', -rem, ...`` of ``p`` itself.

    By Sturm's theorem its variations count the distinct real roots of
    ``p`` between two points that are not roots of ``p``, squarefree or
    not, so ``count_all``, which looks only at +-oo, is exact for any ``p``.
    Chain polynomials are rescaled by positive factors to primitive integer
    form, which leaves all sign variations unchanged.  They are built on
    integers: ``prem(a, b)`` is ``lc(b)^(deg a - deg b + 1)`` times the
    rational remainder, and is negated when that factor is negative.
    """
    if p.is_zero:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    q = _primitive_ints(p)
    if len(q) < 2:
        return SturmChain((Poly(q),))
    return SturmChain(map(Poly, _remainder_chain(q, _primitive_ints(derivative(p)))))


@lru_cache(maxsize=4096)
def sturm_chain(p: Poly) -> SturmChain:
    """Standard Sturm chain: the remainder sequence of the squarefree part of ``p``.

    On the squarefree part ``count`` is exact at any end points, roots
    included.  Cached for polynomials whose roots are queried again.
    """
    return remainder_sequence(squarefree_part(p))


def cauchy_root_bound(p: Poly) -> Fraction:
    """``1 + max|a_i| / |a_n|``: every real root lies strictly inside ``(-B, B)``."""
    if p.is_zero:
        raise ZeroPolynomial("root bound of the zero polynomial")
    if p.degree < 1:
        return Fraction(1)
    top = abs(p.lc)
    rest = max(abs(c) for c in p.coeffs[:-1])
    return 1 + rest / top


# -- resultants ---------------------------------------------------------------


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


def _resultant_subresultant(a: list[int], b: list[int]) -> int:
    """Resultant of integer polynomials by the subresultant remainder sequence."""
    da, db = len(a) - 1, len(b) - 1
    s = 1
    if da < db:
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        a, b, da, db = b, a, db, da
    ca, cb = math.gcd(*a), math.gcd(*b)
    a = [v // ca for v in a]
    b = [v // cb for v in b]
    t = s * ca**db * cb**da
    if db == 0:
        return t * b[0] ** da
    s = 1
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _prem(a, b)
        if r == [0] or not r:
            return 0
        a = b
        divisor = g * h**delta
        b = [v // divisor for v in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta > 0 else h
        if len(b) - 1 == 0:
            da = len(a) - 1
            return t * s * (b[0] ** da // h ** (da - 1))


def resultant(p1: Poly, p2: Poly) -> Fraction:
    """Determinant of the Sylvester matrix of ``p1`` and ``p2``.

    Computed by the subresultant remainder sequence on the integer forms of
    both polynomials, which keeps intermediate coefficients from blowing up.
    """
    if p1.is_zero or p2.is_zero:
        raise ZeroPolynomial("resultant needs two nonzero polynomials")
    d, e = int(p1.degree), int(p2.degree)
    if d == 0 and e == 0:
        return Fraction(1)
    if d == 0:
        return p1.coeffs[0] ** e
    if e == 0:
        return p2.coeffs[0] ** d
    a, da = _clear_denominators(p1)
    b, db = _clear_denominators(p2)
    return Fraction(_resultant_subresultant(a, b), da**e * db**d)


def discriminant(p: Poly) -> Fraction:
    """``(-1)^(n(n-1)/2) / a_n * res(p, p')``."""
    if p.is_zero:
        raise ZeroPolynomial("discriminant of the zero polynomial")
    n = int(p.degree)
    if n < 1:
        raise DegreeTooLow("discriminant needs degree >= 1")
    if n == 1:
        return Fraction(1)
    res = resultant(p, derivative(p))
    return Fraction((-1) ** (n * (n - 1) // 2)) / p.lc * res
