"""Constructors for the named equation families.

Includes the classical product equation, the pure-top-derivative equation,
single-term Hessian-type equations, the non-negative-coefficient family
(signed top term allowed), and the arctangent phase equation whose
coefficients are trigonometric in the phase.  Every constructor is
cross-checkable against the generic stability certifier.  The phase
equation's values are tangents of rational combinations of pi, each rounded
once from exact enclosures whose precision doubles until the rounding is decided.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .equations import SigmaKPolynomial
from .errors import (
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

# a literal ``parse_rational`` reads: digits, "_", ".", "/" and a decimal exponent
_LITERAL = r"[0-9_./]*(?:e[+-]?[0-9_]+)?"
_PHASE_RE = re.compile(
    rf"^\s*(?P<mult>[+-]?{_LITERAL})\s*pi\s*(?P<off>[+-]\s*{_LITERAL})?\s*$", re.IGNORECASE
)


def parse_phase(text: str) -> tuple[Fraction, Fraction]:
    """Parse a phase given as a rational multiple of pi plus an optional offset.

    Accepted forms: ``"3/4pi"``, ``"-1/2pi"``, ``"pi"``, ``"0.75pi+1/10"``,
    ``"3/2pi-1e-49"``, or a plain rational meaning a zero pi-multiple.
    """
    match = _PHASE_RE.match(text)
    if match is None:
        return Fraction(0), parse_rational(text)
    mult = match.group("mult").strip()
    mult = parse_rational({"": "1", "+": "1", "-": "-1"}.get(mult, mult))
    return mult, parse_rational((match.group("off") or "0").replace(" ", ""))


@functools.cache  # one entry per working precision that _decide tries
def _pi(w: int) -> tuple[int, int]:
    """``(P, e)`` with ``|P - 2**w pi| < e``, by Machin: pi = 16 atan(1/5) - 4 atan(1/239).

    Fixed point as in Brent & Zimmermann, *Modern Computer Arithmetic*, ch. 4: each
    atan term floors once, and the alternating tail is below the first term that floors to 0.
    """
    total, e = 0, 0
    for k, weight in ((5, 16), (239, -4)):
        power, i = (1 << w) // k, 0
        while power:
            total += (-1) ** i * weight * (power // (2 * i + 1))
            power, i = power // (k * k), i + 1
        e += abs(weight) * (i + 1)
    return total, e


def _line(a: Fraction, b: Fraction, w: int) -> tuple[int, int]:
    """Integers ``lo < 2**w (a pi + b) < hi``, with ``lo + hi`` even."""
    p, e = _pi(w)
    x, e = round(a * p + b * (1 << w)), math.ceil(abs(a) * e) + 1
    return x - e, x + e


def _tan_bounds(a: Fraction, b: Fraction, w: int):
    """Rational bounds on ``tan(a pi + b)``, or None where ``2**-w`` does not resolve them.

    Exact where the value is rational, only at ``b = 0`` with ``4a`` an integer (Niven);
    no other value is a rounding tie.  Else ``y = a pi + b - m pi/2`` has ``|y| <= 1``,
    so each Taylor term of sin y and cos y floors from one off by less than 2, as in ``_pi``.
    """
    if b == 0 and (4 * a).denominator == 1:
        value = (0, 1, None, -1)[(4 * a).numerator % 4]  # None: a pole
        return None if value is None else (Fraction(value),) * 2
    m = round(Fraction(2 * _line(a, b, w)[0], _pi(w)[0]))  # about (a pi + b) / (pi/2)
    lo, hi = _line(a - Fraction(m, 2), b, w)
    if max(-lo, hi) > 1 << w:
        return None
    y, e, sums = (lo + hi) // 2, (hi - lo) // 2 + 2, []
    for term, k in ((abs(y), 2), (1 << w, 1)):  # term i has k = 2i + 2 (sin), 2i + 1 (cos)
        total = 0
        while term:
            total += (-1) ** ((k - 1) // 2) * term
            term = (term * y * y >> 2 * w) // (k * (k + 1))
            k, e = k + 2, e + 2
        sums.append(total)
    s, c = sign(y) * sums[0], sums[1]
    s, c = (-c, s) if m % 2 else (s, c)  # tan(y + pi/2) = -cos(y) / sin(y)
    if abs(c) <= e:
        return None
    corners = [Fraction(s + i, c + j) for i in (-e, e) for j in (-e, e)]
    return min(corners), max(corners)


def _decide(rounding, bounds, a: Fraction, b: Fraction):
    """``rounding`` of what ``bounds(a, b, w)`` encloses, doubling ``w`` until both ends agree."""
    for w in (64 << i for i in range(11)):  # up to 65536 bits, about 20000 digits
        pair = bounds(a, b, w)
        if pair and rounding(pair[0]) == rounding(pair[1]):
            return rounding(pair[0])
    raise PhaseOutOfRange("phase is numerically indistinguishable from a branch endpoint")


def sign_of_pi_combination(a: Fraction, b: Fraction) -> int:
    """Exact sign of ``a*pi + b`` for rationals (zero only when both vanish)."""
    return sign(b) if a == 0 else _decide(sign, _line, a, b)


def _double(value: Fraction) -> float:
    """The double nearest ``value``: infinite from halfway past the largest double."""
    return float(value) if abs(value) < 2**1024 - 2**970 else sign(value) * math.inf


class DhymResult(NamedTuple):
    equation: SigmaKPolynomial
    expected_chain: tuple[float, ...]
    branch: str


def dhym(n: int, pi_mult, offset=Fraction(0), precision: int = 15) -> DhymResult:
    """Build the phase equation ``sum arctan(lam_i) = theta`` as a sigma_k equation.

    The phase is ``theta = pi_mult * pi + offset``.  The coefficients are
    ``c_k = sin(theta - k pi/2) / sin(n pi/2 - theta)``, rounded to
    ``precision`` decimal digits; the expected largest-root chain is
    ``x_k = tan((theta - k pi/2) / (n - k))``.  The phase must lie in the
    supercritical branch ``((n-2) pi/2, n pi/2)`` or its mirror.
    """
    if n < 1:
        raise DegreeOutOfRange("degree must be >= 1")
    if not isinstance(precision, int) or isinstance(precision, bool) or precision < 0:
        raise PrecisionOutOfRange("precision must be a non-negative integer")
    q, r = Fraction(pi_mult), Fraction(offset)
    for branch, side in (("supercritical", 1), ("mirror", -1)):
        if (
            sign_of_pi_combination(side * q - Fraction(n - 2, 2), side * r) > 0
            and sign_of_pi_combination(side * q - Fraction(n, 2), side * r) < 0
        ):
            break
    else:
        raise PhaseOutOfRange("phase must lie in ((n-2)pi/2, n pi/2) or (-n pi/2, -(n-2)pi/2)")
    # c_k = -sin(phi + (n - k) pi/2) / sin(phi) with phi = theta - n pi/2, so
    # c_k = (-1, -u, 1, u)[(n - k) % 4] with u = cot(phi) = tan((n+1) pi/2 - theta)
    unit = 10**precision
    u = _decide(lambda v: Fraction(round(v * unit), unit), _tan_bounds, Fraction(n + 1, 2) - q, -r)
    coeffs = tuple((Fraction(-1), -u, Fraction(1), u)[(n - k) % 4] for k in range(n))
    chain = tuple(
        _decide(_double, _tan_bounds, (q - Fraction(k, 2)) / (n - k), r / (n - k)) for k in range(n)
    )
    return DhymResult(SigmaKPolynomial(n, coeffs), chain, branch)
