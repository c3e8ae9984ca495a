"""The log-concavity ratio, root deformation and midpoint convexity sampling.

The log-concavity ratio of an analytic function is ``f * f'' / f'^2`` away
from critical points, extended by its limit at isolated critical points
(signed infinity allowed, 0 by definition where critical points accumulate).
For chain-certified polynomials the ratio increases monotonically above the
largest derivative root toward ``1 - 1/n``, and it drops as the top root is
deformed upwards; ``deformation_family`` owns that family, its window and
its grids.  It and ``deformation`` take the polynomial's chain certificate,
which holds the window's ends.  The profiles behind ``alpha`` and
``deform`` are exact: rational grids, and ratios of integer Horner values,
so only the printing rounds.
``certify --convexity-pairs`` samples its points in floating point.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .equations import (
    SigmaKPolynomial,
    _check_count,
    _in_component,
    certify_stable,
    sample_region,
)
from .errors import (
    DegenerateWindow, EmptySampleRange, NotCertified, NotStableEquation, OutOfDeformationRange
)
from .poly import Poly, _primitive_ints, _value, derivative, evaluate, taylor_shift
from .rationals import on_common_denominator
from .realroots import Order, bracket, compare, from_rational
from .rootchain import ChainCertificate


class Regime(enum.Enum):
    REGULAR = "regular"
    CRITICAL_LIMIT = "critical-limit"
    CRITICAL_ZERO_BY_DEFINITION = "critical-zero-by-definition"


class AlphaSample(NamedTuple):
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

    At a critical point the common root factor of numerator and denominator
    is cancelled through the Taylor expansion at ``x``, read as a rational.
    """
    dp = derivative(p)
    if dp.is_zero:
        return AlphaSample(x, 0, Regime.CRITICAL_ZERO_BY_DEFINITION)
    dv = evaluate(dp, x)
    if dv != 0:
        ddp = derivative(dp)
        value = evaluate(p, x) * evaluate(ddp, x) / (dv * dv)
        return AlphaSample(x, value, Regime.REGULAR)
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


def _ratio(p: Poly):
    """``x -> alpha(p, x).alpha`` for rational ``x``, on integer forms of ``p, p', p''`` built once.

    The positive factor that makes ``p`` a primitive integer list cancels in
    ``p * p'' / p'^2``, and so do the powers of ``den(x)`` that ``_value``
    multiplies in.  A critical point takes ``alpha``'s exact limit.
    """
    q = _primitive_ints(p)
    dq = [i * c for i, c in enumerate(q)][1:]
    ddq = [i * c for i, c in enumerate(dq)][1:]

    def at(x: Fraction):
        d = _value(dq, x)
        return Fraction(_value(q, x) * _value(ddq, x), d * d) if d else alpha(p, x).alpha

    return at


def _grid(lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    """``count`` evenly spaced rationals from ``lo`` to ``hi``; a single one is ``lo``."""
    return [lo + (hi - lo) * Fraction(i, max(count - 1, 1)) for i in range(count)]


_WINDOW_SLACK = Fraction(1, 10**9)
# deformed ratios are sampled only this far above the deformation parameter
_DESCENT_X_MARGIN = Fraction(1, 100)


def _top_multiplicity(cert: ChainCertificate) -> int:
    """The multiplicity ``m`` of the top root, below the degree ``n`` for a window to exist.

    Raises ``NotCertified`` for a failed certificate and ``DegenerateWindow``
    for ``m >= n``, where the window is the single point ``x_0``.
    """
    if not cert.succeeded:
        raise NotCertified("deformation needs a chain-certified polynomial")
    if cert.top_multiplicity >= len(cert.chain):
        raise DegenerateWindow("degenerate deformation window")
    return cert.top_multiplicity


def deformation(cert: ChainCertificate, y) -> Poly:
    """The certified ``p`` with its Taylor terms at ``y`` below the top multiplicity ``m`` dropped.

    ``y`` must lie between the largest root of ``p^(m)`` and the largest
    root of ``p`` (rational approximants of either endpoint are accepted
    within ``1e-9``); the result keeps ``y`` as its largest real root with
    the same multiplicity, degenerating one order higher at the lower end.
    """
    m = _top_multiplicity(cert)
    y = Fraction(y)
    below = compare(from_rational(y + _WINDOW_SLACK), cert.chain[m])
    above = compare(from_rational(y - _WINDOW_SLACK), cert.chain[0])
    if below is Order.LESS or above is Order.GREATER:
        raise OutOfDeformationRange(
            f"deformation parameter {y} outside the admissible root window"
        )
    shifted = taylor_shift(cert.polynomial, y).coeffs
    return taylor_shift(Poly([0] * m + list(shifted[m:])), -y)


def _x_max(cert: ChainCertificate, x_max) -> Fraction:
    """``x_max``, or by default ``hi + 7/10 |hi| + 1``, ``hi`` the 6-digit upper bracket of ``x_0``.

    The default is 1.7 times ``hi`` plus 1 when ``hi >= 0``, and at least 1 above ``x_0``.
    """
    if x_max is not None:
        return Fraction(x_max)
    hi = cert.x0_bracket[1]
    return hi + Fraction(7, 10) * abs(hi) + 1


# curves in the default deformation grid
DEFORM_CURVES = 12


def _default_grid(cert: ChainCertificate) -> list[Fraction]:
    """``DEFORM_CURVES`` parameters evenly inside the deformation window, its upper end last."""
    m = _top_multiplicity(cert)
    # chain[m] < chain[0] when m < n, so deep enough brackets separate them
    digits, low, high = 6, bracket(cert.chain[m], 6)[1], cert.x0_bracket[0]
    while not high > low:
        digits *= 2
        low, high = bracket(cert.chain[m], digits)[1], bracket(cert.chain[0], digits)[0]
    step = (high - low) / DEFORM_CURVES
    return [low + step * i for i in range(1, DEFORM_CURVES + 1)]


class DescentReport(NamedTuple):
    curves: int
    comparisons: int
    min_margin: object
    all_positive: bool


def deformation_family(
    cert: ChainCertificate,
    y_grid: Optional[Sequence],
    x_count: int,
    descent_count: int,
    x_max=None,
) -> tuple[list[tuple[Fraction, Fraction, object]], DescentReport]:
    """Exact (x, y, alpha) rows of the deformed ratios, and their descent in ``y``.

    Whatever the grid, a failed certificate raises ``NotCertified`` and a top
    root of multiplicity ``n`` raises ``DegenerateWindow``.  ``y_grid`` None
    takes ``_default_grid``.  Each curve is deformed once.
    Its rows take ``x_count`` samples from just above its parameter; each
    adjacent pair is compared at ``descent_count`` samples above the larger
    parameter, and a positive minimum margin means strict descent.  An
    ``x_max`` at or below the largest parameter plus that margin leaves the
    top curve no sample and raises ``EmptySampleRange``.
    """
    _top_multiplicity(cert)
    ys = sorted(Fraction(v) for v in (_default_grid(cert) if y_grid is None else y_grid))
    ratios = [_ratio(deformation(cert, y)) for y in ys]
    x_max = _x_max(cert, x_max)
    if ys and not x_max > ys[-1] + _DESCENT_X_MARGIN:
        raise EmptySampleRange("x_max must lie above the largest deformation parameter plus 1/100")
    rows, margins = [], []
    for y, ratio in zip(ys, ratios):
        rows += [(x, y, ratio(x)) for x in _grid(y + _DESCENT_X_MARGIN, x_max, x_count)]
    for y_b, ratio_a, ratio_b in zip(ys[1:], ratios, ratios[1:]):
        lo = y_b + _DESCENT_X_MARGIN
        margins += [ratio_a(x) - ratio_b(x) for x in _grid(lo, x_max, descent_count + 1)[1:]]
    low = min(margins, default=None)
    ok = len(ys) < 2 or (low is not None and low > 0)
    return rows, DescentReport(len(ys), len(margins), low, ok)


class MidpointReport(NamedTuple):
    pairs: int
    failures: int
    failure_examples: tuple
    mode: str


def midpoint_convexity_test(
    f: SigmaKPolynomial, pairs: int, seed: int, *, mode: str = "float"
) -> MidpointReport:
    """Sample point pairs in the stable component and test every midpoint.

    Convexity predicts zero failures; each midpoint, taken exactly, must pass
    the component criterion (equation positive plus depth-1 cone membership).
    ``pairs`` must be a non-negative ``int``, not a bool (``ValueError``),
    checked before any point is drawn.  The midpoint of ``a`` and ``b`` is
    decided on integers: with ``D`` the common denominator of both points'
    coordinates, it is ``(D a_i + D b_i) / 2D``, and it becomes
    ``Fraction``s only as a failure example.
    """
    report = certify_stable(f)
    if not report.is_strict:
        raise NotStableEquation("midpoint test needs a strictly stable equation")
    _check_count("pairs", pairs)
    points = sample_region(f, 2 * pairs, seed, mode=mode)
    failures = 0
    examples = []
    for i in range(pairs):
        pair = points[2 * i] + points[2 * i + 1]
        xs, d = on_common_denominator([v.as_integer_ratio() for v in pair])
        sums = [x + y for x, y in zip(xs, xs[f.n:])]
        if not _in_component(f, sums, 2 * d):
            failures += 1
            if len(examples) < 5:
                examples.append(tuple(Fraction(x, 2 * d) for x in sums))
    label = "numeric (non-certificate)" if mode == "float" else "exact"
    return MidpointReport(pairs, failures, tuple(examples), label)


def alpha_profile(p: Poly, lo, hi, count: int) -> list[tuple[Fraction, object]]:
    """Exact (x, alpha) rows across a uniform rational grid, for CSV plotting.

    A critical point whose one-sided limits disagree has no value; its row
    reads None.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    lo, hi = Fraction(lo), Fraction(hi)
    if not hi > lo:
        raise ValueError("empty range")
    ratio = _ratio(p)
    return [(x, ratio(x)) for x in _grid(lo, hi, count)]
