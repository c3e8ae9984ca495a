"""Certificates for the descending chain of largest derivative roots.

A degree-n polynomial with positive leading coefficient passes the right
chain test when every derivative ``p^(k)`` has a real root at or above the
largest real root of ``p^(k+1)``.  Because ``p^(k)`` is strictly increasing
and unbounded beyond that root, the test at level k reduces to one exact
sign: ``sign(p^(k)(x_{k+1})) <= 0``.  On success the witnesses form the
descending chain ``x_0 >= x_1 >= ... >= x_{n-1}``; the strict variant
additionally needs ``x_0 > x_1``, i.e. a strictly negative sign at level 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import DegreeTooLow, NoRealRoot, ZeroPolynomial
from .poly import Poly, derivative, sturm_chain
from .realroots import (
    AlgebraicNumber,
    count_real_roots_with_multiplicity,
    from_rational,
    largest_real_root,
    sign_at,
)


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


def _normalize(p: Poly) -> Poly:
    # roots are unchanged under global negation; the sign test needs lc > 0
    return -p if p.lc < 0 else p


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
        s = sign_at(ders[k], chain[k + 1])
        signs[k] = s
        if s > 0:
            return ChainCertificate(
                verdict=ChainVerdict.FAILED,
                polynomial=p,
                chain=tuple(chain),
                signs=tuple(signs),
                failure_level=k,
                missing_root=sturm_chain(ders[k]).count_all() == 0,
            )
        chain[k] = largest_real_root(ders[k])

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
