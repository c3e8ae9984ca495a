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

Bisection of ``[lo, hi]`` decides every level with ``s != 0``; only a tie
``s = 0`` needs the exact zero test: the gcd with the defining polynomial
of ``x_{k+1}`` changes sign on ``[lo, hi]``.  So no level isolates the
roots of ``p^(k)``.  At a failure level ``missing_root`` counts the real
roots of ``p^(k)`` at +-oo with the remainder sequence of ``p^(k)``
itself, without its squarefree part.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .errors import DegreeTooLow, NoRealRoot, ZeroPolynomial
from .poly import Poly, derivative, evaluate, remainder_sequence
from .rationals import sign
from .realroots import (
    AlgebraicNumber,
    IsolatingInterval,
    _bisect_once,
    _shares_root,
    bracket,
    count_real_roots_with_multiplicity,
    from_rational,
    largest_real_root,
)

# Bisection steps a level takes before its exact zero test.  Every level with
# a nonzero sign settles by bisection alone and a tie never does, so the gcd
# is only worth its cost once bisection has stalled.  On seeded degree-12 to
# 32 equations a negative sign settled within 3 steps and a positive one,
# proved by the tangent bound, within 4; on 3000 random integer polynomials
# of degree 2 to 10 both settled within 7.
_STEPS_BEFORE_ZERO_TEST = 8


class ChainVerdict(enum.Enum):
    STRICT = "strict-right"
    NOT_STRICT = "right-not-strict"
    FAILED = "not-right"


@dataclass(frozen=True)
class ChainCertificate:
    """Checkable evidence for the right-chain decision.

    ``chain[k]`` is the largest real root of ``p^(k)`` (None above the
    failure level), ``signs[k]`` the exact sign of ``p^(k)`` at ``x_{k+1}``
    for k in 0..n-2.  ``missing_root`` marks a failure level whose
    derivative has no real root at all, as opposed to roots that all lie
    below the required threshold.
    """

    verdict: ChainVerdict
    polynomial: Poly
    chain: tuple[Optional[AlgebraicNumber], ...]
    signs: tuple[Optional[int], ...]
    failure_level: Optional[int] = None
    missing_root: bool = False
    top_multiplicity: Optional[int] = None

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


def _sign_at_increasing(
    q: Poly, dq: Poly, alpha: AlgebraicNumber
) -> tuple[int, AlgebraicNumber]:
    """Exact sign of ``q`` at ``alpha``, for ``q`` strictly increasing and convex on ``[alpha, oo)``.

    ``dq`` is the derivative of ``q``.  Also returns ``alpha`` with its
    interval narrowed by the bisection that decided the sign; on a negative
    sign ``q`` is ``<= 0`` at its upper end.
    """
    if alpha.is_rational:
        return sign(evaluate(q, alpha.rational_value)), alpha
    defining = alpha.defining
    lo, hi, s_lo = alpha.interval.lo, alpha.interval.hi, alpha._sign_lo
    steps = 0
    while lo != hi:
        q_hi = evaluate(q, hi)
        if q_hi <= 0:
            s = -1
            break
        if q_hi - evaluate(dq, hi) * (hi - lo) > 0:
            s = 1
            break
        if steps == _STEPS_BEFORE_ZERO_TEST and _shares_root(q, defining, lo, hi):
            s = 0
            break
        lo, hi, s_lo = _bisect_once(defining, lo, hi, s_lo)
        steps += 1
    else:
        s = sign(evaluate(q, lo))
    narrowed = AlgebraicNumber(
        defining, IsolatingInterval(lo, hi), alpha.multiplicity_in_source
    )
    return s, narrowed


def _root_above(q: Poly, start: Fraction) -> AlgebraicNumber:
    """The one root of ``q`` in ``[start, oo)``, given ``q(start) <= 0`` and ``q`` increasing there.

    Steps out from ``start`` by doubling widths until ``q`` turns positive.
    """
    lo, width = start, Fraction(1)
    value = evaluate(q, lo)
    while value < 0:
        hi = lo + width
        value = evaluate(q, hi)
        if value > 0:
            return AlgebraicNumber(q.monic(), IsolatingInterval(lo, hi))
        lo, width = hi, 2 * width
    return from_rational(lo)


def certify_right(p: Poly) -> ChainCertificate:
    """Decide the right-chain property of ``p`` with exact sign evidence."""
    if p.is_zero or p.degree < 1:
        raise DegreeTooLow("chain certification needs degree >= 1")
    p = _normalize(p)
    n = int(p.degree)
    ders = [p]
    for _ in range(n - 1):
        ders.append(derivative(ders[-1]))

    chain: list[Optional[AlgebraicNumber]] = [None] * n
    signs: list[Optional[int]] = [None] * max(n - 1, 0)
    lin = ders[n - 1]
    chain[n - 1] = from_rational(-lin.coeff(0) / lin.coeff(1))

    for k in range(n - 2, -1, -1):
        s, below = _sign_at_increasing(ders[k], ders[k + 1], chain[k + 1])
        chain[k + 1] = below
        signs[k] = s
        if s > 0:
            return ChainCertificate(
                verdict=ChainVerdict.FAILED,
                polynomial=p,
                chain=tuple(chain),
                signs=tuple(signs),
                failure_level=k,
                missing_root=remainder_sequence(ders[k]).count_all() == 0,
            )
        if s == 0:
            chain[k] = AlgebraicNumber(
                below.defining, below.interval, below.multiplicity_in_source + 1
            )
        else:
            chain[k] = _root_above(ders[k], below.interval.hi)

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


def certify_left(p: Poly) -> ChainCertificate:
    """Mirror test: left chain of ``p`` equals the right chain of ``p(-x)``.

    The witnesses are reported in the original coordinates, so ``chain[k]``
    is the smallest real root of ``p^(k)`` at or below the smallest real
    root of ``p^(k+1)``.
    """
    if p.is_zero or p.degree < 1:
        raise DegreeTooLow("chain certification needs degree >= 1")
    cert = certify_right(_normalize(p.mirror()))
    return ChainCertificate(
        verdict=cert.verdict,
        polynomial=_normalize(p),
        chain=tuple(a.negate() if a is not None else None for a in cert.chain),
        signs=cert.signs,
        failure_level=cert.failure_level,
        missing_root=cert.missing_root,
        top_multiplicity=cert.top_multiplicity,
    )


def is_real_rooted(p: Poly) -> bool:
    """True iff the number of real roots counted with multiplicity equals the degree."""
    if p.is_zero:
        raise ZeroPolynomial("real-rootedness of the zero polynomial")
    if p.degree < 1:
        return True
    return count_real_roots_with_multiplicity(p) == int(p.degree)


def multiplicity_at_largest_root(p: Poly) -> int:
    """Multiplicity of the largest real root of ``p``."""
    root = largest_real_root(p)
    if root is None:
        raise NoRealRoot("polynomial has no real root")
    return root.multiplicity_in_source
