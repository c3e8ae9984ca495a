"""Constructors for the named equation families.

Includes the classical product equation, the pure-top-derivative equation,
single-term Hessian-type equations, the non-negative-coefficient family
(signed top term allowed), and the arctangent phase equation whose
coefficients are trigonometric in the phase.  Every constructor is
cross-checkable against the generic stability certifier.  mpmath is
imported only by the phase equation, so the exact constructors load
without it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .equations import SigmaKPolynomial
from .errors import (
    DegeneratePhase,
    DegreeOutOfRange,
    HypothesisViolated,
    NonPositiveConstant,
    PhaseOutOfRange,
    PrecisionOutOfRange,
)
from .rationals import parse_rational, sign


def monge_ampere(n: int, c0) -> SigmaKPolynomial:
    """Pure product equation: ``sigma_n = c0`` with ``c0 > 0``."""
    c0 = Fraction(c0)
    if c0 <= 0:
        raise NonPositiveConstant("the product equation needs a positive constant")
    return SigmaKPolynomial(n, (c0,) + (Fraction(0),) * (n - 1))


def j_equation(n: int, c_top) -> SigmaKPolynomial:
    """Top-derivative equation: ``sigma_n = c_top * sigma_{n-1}`` with ``c_top > 0``."""
    c_top = Fraction(c_top)
    if c_top <= 0:
        raise NonPositiveConstant("the top-derivative equation needs a positive constant")
    return SigmaKPolynomial(n, (Fraction(0),) * (n - 1) + (c_top,))


class NonnegResult(NamedTuple):
    equation: SigmaKPolynomial
    hypothesis_ok: bool


def nonneg_coeff(n: int, c, c_top=0) -> NonnegResult:
    """Non-negative lower coefficients with a signed top term.

    The family is ``sigma_n + c_top * sigma_{n-1} - sum_{k<=n-2} c_k sigma_k
    = 0`` with every ``c_k >= 0`` and at least one positive; such equations
    are always strictly stable.  The stored top coefficient is ``-c_top``
    because the defining convention subtracts every lower term.
    """
    c = tuple(Fraction(v) for v in c)
    c_top = Fraction(c_top)
    if len(c) != n - 1:
        raise HypothesisViolated(f"expected {n - 1} lower coefficients, got {len(c)}")
    if any(v < 0 for v in c):
        raise HypothesisViolated("lower coefficients must be non-negative")
    if sum(c) <= 0:
        raise HypothesisViolated("at least one lower coefficient must be positive")
    return NonnegResult(SigmaKPolynomial(n, c + (-c_top,)), True)


def hessian_type(n: int, k: int, ck) -> SigmaKPolynomial:
    """Single lower term: ``sigma_n = ck * sigma_k`` with ``ck > 0`` and ``k <= n-2``."""
    ck = Fraction(ck)
    if ck <= 0:
        raise NonPositiveConstant("the single-term equation needs a positive constant")
    if not 0 <= k <= n - 2:
        raise HypothesisViolated(f"term index {k} not in 0..{n - 2}")
    c = [Fraction(0)] * (n - 1)
    c[k] = ck
    return nonneg_coeff(n, c, 0).equation


# -- phase equation -----------------------------------------------------------

_PHASE_RE = re.compile(
    r"^\s*(?P<mult>[+-]?[0-9./]*)\s*pi\s*(?P<off>[+-]\s*[0-9./]+)?\s*$", re.IGNORECASE
)


def parse_phase(text: str) -> tuple[Fraction, Fraction]:
    """Parse a phase given as a rational multiple of pi plus an optional offset.

    Accepted forms: ``"3/4pi"``, ``"-1/2pi"``, ``"pi"``, ``"0.75pi+1/10"``,
    or a plain rational meaning a zero pi-multiple.
    """
    match = _PHASE_RE.match(text)
    if match is None:
        return Fraction(0), parse_rational(text)
    mult_text = match.group("mult").strip()
    if mult_text in ("", "+"):
        mult = Fraction(1)
    elif mult_text == "-":
        mult = Fraction(-1)
    else:
        mult = parse_rational(mult_text)
    off_text = match.group("off")
    offset = parse_rational(off_text.replace(" ", "")) if off_text else Fraction(0)
    return mult, offset


@dataclass(frozen=True)
class DhymSpec:
    """Phase equation parameters: degree, phase ``pi_mult*pi + offset``, digits."""

    n: int
    pi_mult: Fraction
    offset: Fraction = Fraction(0)
    precision: int = 15


def _raw_mpf_to_fraction(raw) -> Fraction:
    sign_bit, mantissa, exponent, _ = raw
    value = Fraction(mantissa) * Fraction(2) ** exponent
    return -value if sign_bit else value


def _pi_bounds(dps: int) -> tuple[Fraction, Fraction]:
    import mpmath

    old = mpmath.iv.dps
    try:
        mpmath.iv.dps = dps
        lo_raw, hi_raw = mpmath.iv.pi._mpi_
        return _raw_mpf_to_fraction(lo_raw), _raw_mpf_to_fraction(hi_raw)
    finally:
        mpmath.iv.dps = old


def sign_of_pi_combination(a: Fraction, b: Fraction) -> int:
    """Exact sign of ``a*pi + b`` for rationals (zero only when both vanish)."""
    if a == 0:
        return sign(b)
    dps = 40
    while dps <= 20_000:
        lo, hi = _pi_bounds(dps)
        candidates = (a * lo + b, a * hi + b)
        if min(candidates) > 0:
            return 1
        if max(candidates) < 0:
            return -1
        dps *= 2
    raise PhaseOutOfRange("phase is numerically indistinguishable from a branch endpoint")


@dataclass(frozen=True)
class DhymResult:
    equation: SigmaKPolynomial
    expected_chain: tuple[float, ...]
    branch: str


def dhym(spec: DhymSpec) -> DhymResult:
    """Build the phase equation ``sum arctan(lam_i) = theta`` as a sigma_k equation.

    The coefficients are ``c_k = sin(theta - k pi/2) / sin(n pi/2 - theta)``,
    rounded to ``precision`` decimal digits; the expected largest-root chain
    is ``x_k = tan((theta - k pi/2) / (n - k))``.  The phase must lie in the
    supercritical branch ``((n-2) pi/2, n pi/2)`` or its mirror.
    """
    n = spec.n
    if n < 1:
        raise DegreeOutOfRange("degree must be >= 1")
    digits = spec.precision
    if not isinstance(digits, int) or isinstance(digits, bool) or digits < 0:
        raise PrecisionOutOfRange("precision must be a non-negative integer")
    q, r = Fraction(spec.pi_mult), Fraction(spec.offset)
    in_branch = (
        sign_of_pi_combination(q - Fraction(n - 2, 2), r) > 0
        and sign_of_pi_combination(q - Fraction(n, 2), r) < 0
    )
    in_mirror = (
        sign_of_pi_combination(q + Fraction(n, 2), r) > 0
        and sign_of_pi_combination(q + Fraction(n - 2, 2), r) < 0
    )
    if in_branch:
        branch = "supercritical"
    elif in_mirror:
        branch = "mirror"
    else:
        raise PhaseOutOfRange(
            "phase must lie in ((n-2)pi/2, n pi/2) or (-n pi/2, -(n-2)pi/2)"
        )
    if r == 0 and (Fraction(n, 2) - q).denominator == 1:
        raise DegeneratePhase("sin(n pi/2 - theta) vanishes at this phase")
    import mpmath

    scale = 10**digits
    with mpmath.workdps(digits + 30):
        theta = mpmath.pi * q.numerator / q.denominator + mpmath.mpf(r.numerator) / r.denominator
        denom = mpmath.sin(n * mpmath.pi / 2 - theta)
        coeffs = tuple(
            Fraction(int(mpmath.nint(mpmath.sin(theta - k * mpmath.pi / 2) / denom * scale)), scale)
            for k in range(n)
        )
        chain = tuple(
            float(mpmath.tan((theta - k * mpmath.pi / 2) / (n - k))) for k in range(n)
        )
    return DhymResult(SigmaKPolynomial(n, coeffs), chain, branch)
