"""The log-concavity ratio, root deformation and midpoint convexity sampling.

The log-concavity ratio of an analytic function is ``f * f'' / f'^2`` away
from critical points, extended by its limit at isolated critical points
(signed infinity allowed, 0 by definition where critical points accumulate).
For chain-certified polynomials the ratio increases monotonically above the
largest derivative root toward ``1 - 1/n``, and it drops as the top root is
deformed upwards; ``alpha``, ``deform`` and ``certify --convexity-pairs``
print these profiles and samples beside the exact certificate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .equations import (
    SigmaKPolynomial,
    certify_stable,
    cone_membership,
    sample_region,
)
from .errors import NotCertified, NotStableEquation, OutOfDeformationRange
from .poly import Poly, derivative, evaluate, taylor_shift
from .realroots import Order, compare, from_rational
from .rootchain import ChainCertificate, certify_right


class Regime(enum.Enum):
    REGULAR = "regular"
    CRITICAL_LIMIT = "critical-limit"
    CRITICAL_ZERO_BY_DEFINITION = "critical-zero-by-definition"


@dataclass(frozen=True)
class AlphaSample:
    """Ratio value at one point; ``alpha`` is None when the two-sided limit disagrees."""

    x: object
    alpha: object
    regime: Regime


def _first_nonzero(coeffs: Sequence[Fraction], start: int = 0) -> Optional[int]:
    for i in range(start, len(coeffs)):
        if coeffs[i] != 0:
            return i
    return None


def alpha(p: Poly, x) -> AlphaSample:
    """Log-concavity ratio of ``p`` at ``x`` with exact critical-point limits.

    At a rational critical point the common root factor of numerator and
    denominator is cancelled through the Taylor expansion; a float critical
    point is handled by symmetric numeric limits.
    """
    dp = derivative(p)
    if dp.is_zero:
        return AlphaSample(x, 0, Regime.CRITICAL_ZERO_BY_DEFINITION)
    dv = evaluate(dp, x)
    if dv != 0:
        ddp = derivative(dp)
        value = evaluate(p, x) * evaluate(ddp, x) / (dv * dv)
        return AlphaSample(x, value, Regime.REGULAR)
    if isinstance(x, float):
        return AlphaSample(x, _alpha_float_limit(p, x), Regime.CRITICAL_LIMIT)
    t = taylor_shift(p, Fraction(x)).coeffs
    u = _first_nonzero(t)
    i1 = _first_nonzero(t, 1)
    i2 = _first_nonzero(t, 2)
    if i2 is None:
        return AlphaSample(x, 0, Regime.CRITICAL_LIMIT)
    lead_num = (t[u] if u is not None else Fraction(0)) * i2 * (i2 - 1) * t[i2]
    lead_den = (i1 * t[i1]) ** 2
    order = (u + (i2 - 2)) - 2 * (i1 - 1)
    if u is None or lead_num == 0:
        return AlphaSample(x, 0, Regime.CRITICAL_LIMIT)
    if order > 0:
        return AlphaSample(x, Fraction(0), Regime.CRITICAL_LIMIT)
    if order == 0:
        return AlphaSample(x, lead_num / lead_den, Regime.CRITICAL_LIMIT)
    if order % 2 == 0:
        inf = math.inf if lead_num > 0 else -math.inf
        return AlphaSample(x, inf, Regime.CRITICAL_LIMIT)
    return AlphaSample(x, None, Regime.CRITICAL_LIMIT)


def _alpha_float_limit(p: Poly, x: float):
    dp = derivative(p)
    ddp = derivative(dp)

    def at(z: float) -> float:
        return evaluate(p, z) * evaluate(ddp, z) / evaluate(dp, z) ** 2

    scale = 1.0 + abs(x)
    estimates = []
    for k in range(4, 9):
        h = scale * 10.0**-k
        estimates.append((at(x + h), at(x - h)))
    right, left = estimates[-1]
    if math.isfinite(right) and math.isfinite(left) and abs(right - left) <= 1e-3 * (
        1 + abs(right)
    ):
        return (right + left) / 2
    if right > 1e12 and left > 1e12:
        return math.inf
    if right < -1e12 and left < -1e12:
        return -math.inf
    return None


@dataclass(frozen=True)
class DeformationState:
    """Taylor tail of the certified polynomial at ``y``: the top root moved to ``y``."""

    y: Fraction
    multiplicity: int
    poly: Poly


_WINDOW_SLACK = Fraction(1, 10**9)
# the descent check samples x only this far above the larger parameter
_DESCENT_X_MARGIN = Fraction(1, 100)


def deformation(
    p: Poly,
    y,
    *,
    certificate: Optional[ChainCertificate] = None,
) -> DeformationState:
    """Drop the Taylor terms below the top multiplicity at ``y``.

    ``y`` must lie between the largest root of ``p^(m)`` and the largest
    root of ``p`` (rational approximants of either endpoint are accepted
    within ``1e-9``); the result keeps ``y`` as its largest real root with
    the same multiplicity, degenerating one order higher at the lower end.
    """
    cert = certificate if certificate is not None else certify_right(p)
    if not cert.succeeded:
        raise NotCertified("deformation needs a chain-certified polynomial")
    n = int(cert.polynomial.degree)
    m = cert.top_multiplicity or 1
    if m >= n:
        raise OutOfDeformationRange("top root already has full multiplicity")
    y = Fraction(y)
    below = compare(from_rational(y + _WINDOW_SLACK), cert.chain[m])
    above = compare(from_rational(y - _WINDOW_SLACK), cert.chain[0])
    if below is Order.LESS or above is Order.GREATER:
        raise OutOfDeformationRange(
            f"deformation parameter {y} outside the admissible root window"
        )
    shifted = list(taylor_shift(cert.polynomial, y).coeffs)
    for k in range(min(m, len(shifted))):
        shifted[k] = Fraction(0)
    back = taylor_shift(Poly(shifted), -y)
    return DeformationState(y=y, multiplicity=m, poly=back)


def _x_max(cert: ChainCertificate, x_max) -> Fraction:
    """``x_max``, or by default 1.7 times the 6-digit upper bracket of ``x_0``, plus 1."""
    if x_max is None:
        return cert.x0_bracket[1] * Fraction(17, 10) + 1
    return Fraction(x_max)


@dataclass(frozen=True)
class DescentReport:
    curves: int
    comparisons: int
    min_margin: object
    all_positive: bool


def deformation_alpha_descent(
    p: Poly,
    y_grid: Sequence,
    *,
    x_count: int = 200,
    x_max=None,
    certificate: Optional[ChainCertificate] = None,
) -> DescentReport:
    """Verify the ratio strictly drops as the deformation parameter grows.

    For every adjacent pair of grid parameters the two deformed ratios are
    compared at shared x samples above the larger parameter; the minimum
    observed margin is reported (positive means strict descent everywhere).
    """
    cert = certificate if certificate is not None else certify_right(p)
    if not cert.succeeded:
        raise NotCertified("descent check needs a chain-certified polynomial")
    ys = sorted(Fraction(v) for v in y_grid)
    states = [deformation(p, y, certificate=cert) for y in ys]
    if len(ys) < 2:
        return DescentReport(len(ys), 0, None, True)
    x_max = _x_max(cert, x_max)
    min_margin = None
    comparisons = 0
    for (y_a, state_a), (y_b, state_b) in zip(
        zip(ys, states), zip(ys[1:], states[1:])
    ):
        lo = y_b + _DESCENT_X_MARGIN
        if lo >= x_max:
            continue
        for i in range(1, x_count + 1):
            x = lo + (x_max - lo) * Fraction(i, x_count)
            va = alpha(state_a.poly, x).alpha
            vb = alpha(state_b.poly, x).alpha
            margin = va - vb
            comparisons += 1
            if min_margin is None or margin < min_margin:
                min_margin = margin
    return DescentReport(
        curves=len(ys),
        comparisons=comparisons,
        min_margin=min_margin,
        all_positive=min_margin is not None and min_margin > 0,
    )


@dataclass(frozen=True)
class MidpointReport:
    pairs: int
    failures: int
    failure_examples: tuple
    mode: str


def midpoint_convexity_test(
    f: SigmaKPolynomial, pairs: int, seed: int, *, mode: str = "float"
) -> MidpointReport:
    """Sample point pairs in the stable component and test every midpoint.

    Convexity predicts zero failures; each midpoint must pass the component
    criterion (equation positive plus depth-1 cone membership).
    """
    report = certify_stable(f)
    if not report.is_strict:
        raise NotStableEquation("midpoint test needs a strictly stable equation")
    points = sample_region(f, 2 * pairs, seed, mode=mode)
    failures = 0
    examples = []
    for i in range(pairs):
        a, b = points[2 * i], points[2 * i + 1]
        mid = tuple((u + v) / 2 for u, v in zip(a, b))
        if not cone_membership(f, mid).in_stable_component:
            failures += 1
            if len(examples) < 5:
                examples.append(mid)
    label = "numeric (non-certificate)" if mode == "float" else "exact"
    return MidpointReport(pairs, failures, tuple(examples), label)


def alpha_profile(p: Poly, lo: float, hi: float, count: int) -> list[tuple[float, float]]:
    """(x, alpha) rows across a uniform grid, for CSV plotting.

    A critical point whose one-sided limits disagree has no value; its row
    reads ``nan``, as a sample that overflows the float range does.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    if not hi > lo:
        raise ValueError("empty range")
    rows = []
    for i in range(count):
        x = lo + (hi - lo) * i / max(count - 1, 1)
        value = alpha(p, float(x)).alpha
        rows.append((x, math.nan if value is None else float(value)))
    return rows


def deformation_profile(
    p: Poly,
    y_grid: Sequence,
    x_count: int,
    x_max=None,
    *,
    certificate: Optional[ChainCertificate] = None,
) -> list[tuple[float, float, float]]:
    """(x, y, alpha) rows for the family of deformed ratios, for CSV plotting."""
    cert = certificate if certificate is not None else certify_right(p)
    if not cert.succeeded:
        raise NotCertified("deformation profile needs a certified polynomial")
    x_max = _x_max(cert, x_max)
    rows = []
    for y in sorted(Fraction(v) for v in y_grid):
        state = deformation(p, y, certificate=cert)
        lo = float(y) + 1e-2
        for i in range(x_count):
            x = lo + (float(x_max) - lo) * i / max(x_count - 1, 1)
            rows.append((x, float(y), float(alpha(state.poly, float(x)).alpha)))
    return rows
