"""Certificates for the descending chain of largest derivative roots.

A degree-n polynomial with positive leading coefficient passes the right
chain test when every derivative ``p^(k)`` has a real root at or above the
largest real root of ``p^(k+1)``.  On success the witnesses form the
descending chain ``x_0 >= x_1 >= ... >= x_{n-1}``; the strict variant
additionally needs ``x_0 > x_1``, i.e. a strictly negative sign at level 0.

The certifier walks the levels from ``x_{n-1}``, the root of the linear
``p^(n-1)``, upwards.  Once ``x_{k+1}`` is certified as the largest root of
``p^(k+1)``, ``p^(k+1) > 0`` on ``(x_{k+1}, oo)``, so ``p^(k)`` is strictly
increasing and unbounded on ``[x_{k+1}, oo)``.  Level k therefore needs
only the sign ``s`` of ``p^(k)`` at ``x_{k+1}``:

* ``s > 0``: ``p^(k)`` has no root at or above ``x_{k+1}``; the chain fails.
* ``s = 0``: ``x_k = x_{k+1}``, with multiplicity one more than in ``p^(k+1)``.
* ``s < 0``: ``x_k`` is the one root of ``p^(k)`` above ``x_{k+1}``, and it
  is simple, so ``p^(k)`` itself serves as its defining polynomial.

Let ``[lo, hi]`` isolate ``x_{k+1}``.  When it is not a point, the root
lies strictly inside, so ``hi > x_{k+1}``.  Then ``p^(k)(hi) < 0`` proves
``s < 0``, and so does ``p^(k)(hi) = 0``: ``hi`` is a root above
``x_{k+1}``, so ``x_k = hi`` exactly.  That second case needs
``hi > x_{k+1}`` strictly; at ``hi = x_{k+1}`` a zero would be a tie.

``s > 0`` is proved by the tangent bound
``p^(k)(hi) - p^(k+1)(hi) * (hi - lo) > 0``.  On ``[x_{k+1}, hi]`` the
derivative ``p^(k+1)`` is positive, and it is increasing because
``p^(k+2) > 0`` above ``x_{k+2} <= x_{k+1}`` (at the top level ``p^(n)``
is a positive constant).  So ``p^(k)(hi) - p^(k)(x_{k+1})`` is at most
``p^(k+1)(hi) * (hi - x_{k+1})``, which is at most
``p^(k+1)(hi) * (hi - lo)``, and the bound is a lower bound on
``p^(k)(x_{k+1})``.  It uses no value of ``p^(k)`` below ``x_{k+1}``, and
its slack shrinks with the width of ``[lo, hi]``.

Narrowing ``[lo, hi]`` decides every level with ``s != 0``; only a tie
``s = 0`` needs the exact zero test: the gcd with the defining polynomial
of ``x_{k+1}`` changes sign on ``[lo, hi]``.  So no level isolates the
roots of ``p^(k)``.

Every sign the chain decides runs on integers.  The derivative ladder is
built once as primitive integer coefficient lists, each a positive multiple
of ``p^(k)``, and a sign at ``x = N/D`` is the sign of the integer
``D^d * Q(N/D)``.  The tangent bound is multiplied through by its positive
denominators the same way; only the narrowing of ``x_{k+1}``'s interval
still runs in ``Fraction``.  Every root the certifier builds is one whose
defining polynomial is proved to rise through it, so it is built through
``realroots._rising`` without evaluating that sign again: the root found
above ``x_{k+1}`` is defined by the ladder entry of ``p^(k)``, negative at
the start of its bracket, and a narrowed interval or a tie's repeated root
keeps the defining polynomial of ``x_{k+1}``.

At a failure level ``p^(k)(x_{k+1}) > 0`` is proved, so any ``w`` with
``p^(k)(w) <= 0`` witnesses a real root in ``[w, x_{k+1})``.  An odd
degree has one far enough to the left; else the lower ends of the
certified ``x_{k+1}, ..., x_{n-1}`` are tried.  Only without a witness
does ``missing_root`` count the real roots of ``p^(k)``, by Sturm's theorem
at +-oo on the integer remainder chain of the ladder entries of ``p^(k)``
and ``p^(k+1)``, squarefree or not.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from fractions import Fraction
from typing import Optional

from ._value import Value
from .errors import DegreeTooLow
from .poly import Poly, _count_variations, _primitive_ints, _remainder_chain, _value
from .rationals import sign
from .realroots import (
    AlgebraicNumber,
    _PLAIN_BISECTIONS,
    _narrowing,
    _rising,
    _shares_root,
    bracket,
    from_rational,
)

class ChainVerdict(enum.Enum):
    STRICT = "strict-right"
    NOT_STRICT = "right-not-strict"
    FAILED = "not-right"


class ChainCertificate(Value):
    """Checkable evidence for the right-chain decision.

    ``chain[k]`` is the largest real root of ``p^(k)`` (None above the
    failure level), ``signs[k]`` the exact sign of ``p^(k)`` at ``x_{k+1}``
    for k in 0..n-2.  ``missing_root`` marks a failure level whose
    derivative has no real root at all, as opposed to roots that all lie
    below the required threshold.
    """

    def __init__(
        self,
        verdict: ChainVerdict,
        polynomial: Poly,
        chain: tuple[Optional[AlgebraicNumber], ...],
        signs: tuple[Optional[int], ...],
        failure_level: Optional[int] = None,
        missing_root: bool = False,
        top_multiplicity: Optional[int] = None,
    ):
        vars(self).update(
            verdict=verdict, polynomial=polynomial, chain=chain, signs=signs,
            failure_level=failure_level, missing_root=missing_root,
            top_multiplicity=top_multiplicity,
        )

    def _fields(self) -> tuple:
        return (self.verdict, self.polynomial, self.chain, self.signs,
                self.failure_level, self.missing_root, self.top_multiplicity)

    @property
    def succeeded(self) -> bool:
        return self.verdict is not ChainVerdict.FAILED

    @cached_property
    def x0_bracket(self) -> tuple[Fraction, Fraction]:
        """``bracket(chain[0], 6)``: the 6-digit decimal bracket of the top root.

        Sampling and the default deformation windows start from it; it is
        computed once per certificate.  Needs a certificate that succeeded.
        """
        return bracket(self.chain[0], 6)


def _normalize(p: Poly) -> Poly:
    # roots are unchanged under global negation; the sign test needs lc > 0
    return -p if p.lc < 0 else p


def _ladder(p: Poly) -> tuple[list[list[int]], list[int]]:
    """Primitive integer forms of ``p, p', ..., p^(n-1)`` and the slopes between them.

    ``ladder[k]`` is a positive multiple of ``p^(k)``, and the derivative of
    ``ladder[k]`` is ``slopes[k] * ladder[k + 1]``.
    """
    ladder = [_primitive_ints(p)]
    slopes = []
    for _ in range(int(p.degree) - 1):
        d = [i * c for i, c in enumerate(ladder[-1])][1:]
        g = math.gcd(*d)
        ladder.append([c // g for c in d])
        slopes.append(g)
    return ladder, slopes


def _tangent_bound(q_hi: int, dq: list[int], slope: int, lo: Fraction, hi: Fraction) -> int:
    """An integer with the sign of ``q(hi) - q'(hi) * (hi - lo)``.

    ``q_hi`` is ``_value(q, hi)`` and ``q' = slope * dq``.  The integer is
    the bound times the positive factor ``den(hi)**deg(q) * den(hi - lo)``.
    """
    width = hi - lo
    dq_hi = _value(dq, hi) * hi.denominator
    return q_hi * width.denominator - slope * dq_hi * width.numerator


def _sign_at_increasing(
    q: list[int], dq: list[int], slope: int, alpha: AlgebraicNumber
) -> tuple[int, Fraction, Fraction]:
    """Exact sign of ``q`` at ``alpha``, for ``q`` strictly increasing and convex on ``[alpha, oo)``.

    ``q`` and ``dq`` are integer forms with ``q' = slope * dq``.  Also
    returns the narrowing ``(lo, hi)`` of ``alpha`` that decided the sign;
    on a negative sign ``q`` is ``<= 0`` at ``hi``.  Every nonzero sign
    settles by narrowing alone and a tie never does, so the exact zero test
    runs once, when the plain bisections of ``_narrowing`` end.
    """
    for steps, (lo, hi) in enumerate(_narrowing(alpha)):
        if lo == hi:
            s = sign(_value(q, lo))
        elif (q_hi := _value(q, hi)) <= 0:
            s = -1
        elif _tangent_bound(q_hi, dq, slope, lo, hi) > 0:
            s = 1
        elif steps == _PLAIN_BISECTIONS and _shares_root(Poly(q), alpha.defining, lo, hi):
            s = 0
        else:
            continue
        return s, lo, hi


def _root_above(q: list[int], start: Fraction) -> AlgebraicNumber:
    """The one root of ``q`` in ``[start, oo)``, given ``q(start) <= 0`` and ``q`` increasing there.

    Steps out from ``start`` by doubling widths until ``q`` turns positive.
    Every probe ``start + j`` has the denominator of ``start``, so the
    probes run in its numerator.
    """
    num, den = start.numerator, start.denominator
    value = _value(q, start)
    width = den
    while value < 0:
        hi = num + width
        value = _value(q, Fraction(hi, den))
        if value > 0:
            return _rising(Poly(q), Fraction(num, den), Fraction(hi, den))
        num, width = hi, 2 * width
    return from_rational(Fraction(num, den))


def _has_no_real_root(q: list[int], dq: list[int], below: list[AlgebraicNumber]) -> bool:
    """True iff ``q`` has no real root, given ``q > 0`` at the largest root in ``below``.

    ``dq`` is a positive multiple of ``q'``.  Any ``w`` with ``q(w) <= 0``
    witnesses a root in ``[w, x_{k+1})``: an odd degree has one far enough
    to the left, else the lower ends in ``below`` are tried.  Without one,
    Sturm's theorem at -oo and +oo counts the distinct real roots of ``q``.
    """
    if len(q) % 2 == 0 or any(_value(q, alpha.interval.lo) <= 0 for alpha in below):
        return False
    chain = _remainder_chain(q, dq)
    at_plus = [sign(c[-1]) for c in chain]
    # an odd-degree element changes sign between +oo and -oo
    at_minus = [s if len(c) % 2 else -s for s, c in zip(at_plus, chain)]
    return _count_variations(at_minus) == _count_variations(at_plus)


def certify_right(p: Poly) -> ChainCertificate:
    """Decide the right-chain property of ``p`` with exact sign evidence."""
    if p.is_zero or p.degree < 1:
        raise DegreeTooLow("chain certification needs degree >= 1")
    p = _normalize(p)
    n = int(p.degree)
    ladder, slopes = _ladder(p)

    chain: list[Optional[AlgebraicNumber]] = [None] * n
    signs: list[Optional[int]] = [None] * max(n - 1, 0)
    lin = ladder[n - 1]
    chain[n - 1] = from_rational(Fraction(-lin[0], lin[1]))

    for k in range(n - 2, -1, -1):
        alpha = chain[k + 1]
        s, lo, hi = _sign_at_increasing(ladder[k], ladder[k + 1], slopes[k], alpha)
        multiplicity = alpha.multiplicity_in_source
        chain[k + 1] = _rising(alpha.defining, lo, hi, multiplicity)
        signs[k] = s
        if s > 0:
            return ChainCertificate(
                verdict=ChainVerdict.FAILED,
                polynomial=p,
                chain=tuple(chain),
                signs=tuple(signs),
                failure_level=k,
                missing_root=_has_no_real_root(ladder[k], ladder[k + 1], chain[k + 1 :]),
            )
        if s == 0:
            chain[k] = _rising(alpha.defining, lo, hi, multiplicity + 1)
        else:
            chain[k] = _root_above(ladder[k], hi)

    if n == 1:
        verdict = ChainVerdict.STRICT
    else:
        verdict = ChainVerdict.STRICT if signs[0] < 0 else ChainVerdict.NOT_STRICT
    return ChainCertificate(
        verdict=verdict,
        polynomial=p,
        chain=tuple(chain),
        signs=tuple(signs),
        top_multiplicity=chain[0].multiplicity_in_source,
    )
