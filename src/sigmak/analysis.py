"""Numeric and exact analysis of the log-concavity ratio and the level-set Hessian.

The log-concavity ratio of an analytic function is ``f * f'' / f'^2`` away
from critical points, extended by its limit at isolated critical points
(signed infinity allowed, 0 by definition where critical points accumulate).
For chain-certified polynomials the ratio increases monotonically above the
largest derivative root toward ``1 - 1/n``; that monotonicity is exactly the
positive definiteness of the level-set Hessian along the diagonal curve, and
both sides of that identity are computed here independently.
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
    diagonal_restriction,
    elementary_symmetric,
    evaluate as eval_equation,
    graph_lambda_n,
    sample_region,
)
from .errors import (
    CriticalPoint,
    DegreeTooLow,
    DenominatorNotPositive,
    NotCertified,
    NotOnLevelSet,
    NotStableEquation,
    OutOfDeformationRange,
    TopCoefficientNotZero,
    ZeroCoordinate,
)
from .poly import Poly, derivative, evaluate, taylor_shift
from .rationals import comb0
from .realroots import Order, bracket, compare, from_rational
from .rootchain import ChainCertificate, ChainVerdict, certify_right


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
class AlphaLimitReport:
    limit: Fraction
    witnesses: tuple[tuple[object, object], ...]
    deviations_decreasing: bool


def alpha_limit(p: Poly) -> AlphaLimitReport:
    """The ratio limit ``1 - 1/n`` with a witness sequence approaching it."""
    if p.is_zero or p.degree < 1:
        raise DegreeTooLow("ratio limit needs degree >= 1")
    n = int(p.degree)
    limit = 1 - Fraction(1, n)
    scale = 1 + max(abs(c) for c in p.coeffs)
    witnesses = []
    deviations = []
    for power in (3, 4, 5):
        x = Fraction(10) ** power * scale
        value = alpha(p, x).alpha
        witnesses.append((x, value))
        deviations.append(abs(value - limit))
    decreasing = all(deviations[i + 1] <= deviations[i] for i in range(len(deviations) - 1))
    return AlphaLimitReport(limit, tuple(witnesses), decreasing)


def alpha_derivative(p: Poly, x):
    """Closed-form derivative of the ratio: ``(p'^2 p'' + p p' p''' - 2 p p''^2) / p'^3``."""
    dp = derivative(p)
    v1 = evaluate(dp, x)
    if v1 == 0:
        raise CriticalPoint("ratio derivative undefined where p' vanishes")
    ddp = derivative(dp)
    dddp = derivative(ddp)
    v0 = evaluate(p, x)
    v2 = evaluate(ddp, x)
    v3 = evaluate(dddp, x)
    return (v1 * v1 * v2 + v0 * v1 * v3 - 2 * v0 * v2 * v2) / v1**3


@dataclass(frozen=True)
class MonotonicityReport:
    increasing: bool
    min_delta: object
    max_value: object
    limit: Fraction
    endpoint_ok: bool
    strict_top: bool
    grid: tuple
    values: tuple


def monotonicity_scan(
    p: Poly,
    samples: int = 512,
    *,
    span=Fraction(1000),
    tolerance=Fraction(1, 10**9),
    certificate: Optional[ChainCertificate] = None,
) -> MonotonicityReport:
    """Sampled check that the ratio increases on ``(x_1 + eps, x_1 + span]``.

    ``eps = 1e-9 (1 + |x_1|)``.  The grid mixes geometric offsets accumulating
    at ``x_1`` with a uniform sweep; values are exact at rational grid points.
    Endpoint behaviour: for a strict chain the ratio starts far below zero,
    otherwise it starts near ``1 - 1/m`` for the top multiplicity m.
    """
    cert = certificate if certificate is not None else certify_right(p)
    if not cert.succeeded:
        raise NotCertified("monotonicity scan needs a chain-certified polynomial")
    n = int(cert.polynomial.degree)
    if n < 2:
        raise DegreeTooLow("scan needs degree >= 2")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    base = bracket(cert.chain[1], 12)[1]
    span = Fraction(span)
    eps = Fraction(1, 10**9) * (1 + abs(base))

    offsets = set()
    geo = span / 2
    while geo > eps and len(offsets) < samples // 2:
        offsets.add(geo)
        geo /= 2
    remaining = samples - len(offsets)
    for i in range(1, remaining + 1):
        offsets.add(eps + (span - eps) * Fraction(i, remaining))
    grid = sorted(base + off for off in offsets)

    poly = cert.polynomial
    values = [alpha(poly, x).alpha for x in grid]
    deltas = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    min_delta = min(deltas) if deltas else Fraction(0)
    increasing = all(d >= -Fraction(tolerance) for d in deltas)
    limit = 1 - Fraction(1, n)
    max_value = max(values)
    strict_top = cert.verdict is ChainVerdict.STRICT
    if strict_top:
        endpoint_ok = values[0] < 0
    else:
        m = cert.top_multiplicity or 1
        endpoint_ok = abs(values[0] - (1 - Fraction(1, m))) < Fraction(1, 10)
    return MonotonicityReport(
        increasing=increasing,
        min_delta=min_delta,
        max_value=max_value,
        limit=limit,
        endpoint_ok=endpoint_ok,
        strict_top=strict_top,
        grid=tuple(grid),
        values=tuple(values),
    )


@dataclass(frozen=True)
class ProductBoundReport:
    holds: bool
    display_value: object
    product_bound_value: object


def alpha_product_bound(p: Poly, x) -> ProductBoundReport:
    """Exact check of ``(n-2) p' p'' >= n p p'''`` and the equivalent ratio-product bound.

    Both inequalities are evaluated non-strictly: pure powers saturate them
    with equality.
    """
    if p.is_zero or p.degree < 3:
        raise DegreeTooLow("product bound needs degree >= 3")
    n = int(p.degree)
    dp = derivative(p)
    ddp = derivative(dp)
    dddp = derivative(ddp)
    v0, v1, v2, v3 = (evaluate(q, x) for q in (p, dp, ddp, dddp))
    display = (n - 2) * v1 * v2 - n * v0 * v3
    product = (1 - Fraction(2, n)) * v1 * v2 - v0 * v3
    holds = display >= 0 and (v1 * v2 <= 0 or product >= 0)
    return ProductBoundReport(holds, display, product)


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
class BorderedHessianReport:
    gradient: tuple
    hessian: tuple
    bordered: tuple
    sigma_n: object
    constraint_minor: object


def _weighted_sigma(c: Sequence[Fraction], values: Sequence, upto: int):
    e = elementary_symmetric(values, upto=upto)
    return sum(c[k] * e[k] for k in range(min(upto, len(c) - 1) + 1))


def bordered_hessian_entries(f: SigmaKPolynomial, point: Sequence) -> BorderedHessianReport:
    """Gradient, Hessian and bordered Hessian of the constraint ratio on the level set.

    The ratio is ``sum c_k sigma_k / sigma_n`` (top coefficient must be
    translated away first).  The bordered (n-1)x(n-1) block eliminates the
    last coordinate through the tangency relation, and equals the graph
    Hessian of the last coordinate up to the factor ``C_{0;n} / (lambda_n
    sigma_n)``.
    """
    n = f.n
    if f.c[n - 1] != 0:
        raise TopCoefficientNotZero("translate the equation before the ratio Hessian")
    if len(point) != n:
        raise NotOnLevelSet(f"point has {len(point)} coordinates, equation has {n}")
    exact = all(isinstance(v, (int, Fraction)) for v in point)
    coords = [Fraction(v) for v in point] if exact else [float(v) for v in point]
    if any(v == 0 for v in coords):
        raise ZeroCoordinate("all coordinates must be nonzero")
    value = eval_equation(f, coords)
    sigma_n = math.prod(coords) if not exact else Fraction(math.prod(coords))
    tol = 0 if exact else 1e-9 * (1 + abs(float(sigma_n)))
    if abs(value) > tol:
        raise NotOnLevelSet(f"f(point) = {value}, not on the zero level set")

    c = f.c

    def c0_without(skip: tuple[int, ...]):
        rest = [coords[i] for i in range(n) if i not in skip]
        return _weighted_sigma(c, rest, n - 2)

    c0 = [c0_without((i,)) for i in range(n)]
    grad = tuple(-c0[i] / (coords[i] * sigma_n) for i in range(n))
    hess = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j:
                entry = 2 * c0[i] / (coords[i] ** 2 * sigma_n)
            else:
                entry = c0_without((i, j)) / (coords[i] * coords[j] * sigma_n)
            hess[i][j] = entry
            hess[j][i] = entry
    hn = grad[n - 1]
    if hn == 0:
        raise DenominatorNotPositive("last-coordinate gradient entry vanishes")
    bordered = []
    for i in range(n - 1):
        row = []
        for j in range(n - 1):
            row.append(
                hess[i][j]
                + hess[n - 1][n - 1] * grad[i] * grad[j] / hn**2
                - hess[i][n - 1] * grad[j] / hn
                - hess[j][n - 1] * grad[i] / hn
            )
        bordered.append(tuple(row))
    return BorderedHessianReport(
        gradient=grad,
        hessian=tuple(tuple(r) for r in hess),
        bordered=tuple(bordered),
        sigma_n=sigma_n,
        constraint_minor=c0[n - 1],
    )


@dataclass(frozen=True)
class ScalarIdentityReport:
    direct: object
    via_ratio: object
    difference: object


def diagonal_hessian_scalar(f: SigmaKPolynomial, x) -> ScalarIdentityReport:
    """The scalar controlling the graph Hessian on the diagonal curve, both ways.

    ``direct`` assembles the explicit binomial sums at ``(x, ..., x,
    lambda_n(x))``; ``via_ratio`` is ``r'(x)^2 * (d alpha_r/dx) / (n(n-1))``
    for the diagonal restriction r.  The two agree identically; the report
    carries their difference as evidence.
    """
    n = f.n
    if n < 3:
        raise DegreeTooLow("diagonal Hessian scalar needs degree >= 3")
    if f.c[n - 1] != 0:
        raise TopCoefficientNotZero("translate the equation first")
    c = f.c
    exact = isinstance(x, (int, Fraction))
    x = Fraction(x) if exact else float(x)
    denom = x ** (n - 1) - sum(
        c[k] * comb0(n - 1, k - 1) * x ** (k - 1) for k in range(1, n - 1)
    )
    if not denom > 0:
        raise DenominatorNotPositive("diagonal graph denominator must be positive")
    lam_n = sum(c[k] * comb0(n - 1, k) * x**k for k in range(0, n - 1)) / denom
    c11 = sum(
        c[k] * (comb0(n - 2, k - 1) * x ** (k - 1) + comb0(n - 2, k - 2) * x ** (k - 2) * lam_n)
        for k in range(1, n - 1)
    )
    c1n = sum(c[k] * comb0(n - 1, k - 1) * x ** (k - 1) for k in range(1, n - 1))
    c212 = sum(
        c[k] * (comb0(n - 3, k - 2) * x ** (k - 2) + comb0(n - 3, k - 3) * x ** (k - 3) * lam_n)
        for k in range(2, n - 1)
    )
    c21n = sum(c[k] * comb0(n - 2, k - 2) * x ** (k - 2) for k in range(2, n - 1))
    direct = 2 * (n - 1) * (x ** (n - 2) * lam_n - c11) * (x ** (n - 2) - c21n) - (
        n - 2
    ) * (x ** (n - 1) - c1n) * (x ** (n - 3) * lam_n - c212)
    r = diagonal_restriction(f)
    via_ratio = evaluate(derivative(r), x) ** 2 * alpha_derivative(r, x) / (n * (n - 1))
    return ScalarIdentityReport(direct, via_ratio, direct - via_ratio)


@dataclass(frozen=True)
class NumericHessianReport:
    matrix: tuple
    min_eigenvalue: float
    step: float
    label: str = "conjecture-exploration"


def numeric_graph_hessian(
    f: SigmaKPolynomial, base: Sequence, step: float = 1e-4
) -> NumericHessianReport:
    """Central-difference Hessian of the graph coordinate; exploration only."""
    import numpy as np

    m = f.n - 1
    base = [float(v) for v in base]
    graph_lambda_n(f, base)  # raises DenominatorNotPositive outside the projection

    def g(delta):
        pt = [base[i] + delta.get(i, 0.0) for i in range(m)]
        return float(graph_lambda_n(f, pt))

    steps = [step * (1.0 + abs(b)) for b in base]
    center = g({})
    h = np.zeros((m, m))
    for i in range(m):
        hi = steps[i]
        h[i, i] = (g({i: hi}) - 2 * center + g({i: -hi})) / hi**2
        for j in range(i + 1, m):
            hj = steps[j]
            mixed = (
                g({i: hi, j: hj})
                - g({i: hi, j: -hj})
                - g({i: -hi, j: hj})
                + g({i: -hi, j: -hj})
            ) / (4 * hi * hj)
            h[i, j] = mixed
            h[j, i] = mixed
    eigenvalues = np.linalg.eigvalsh((h + h.T) / 2)
    return NumericHessianReport(
        matrix=tuple(tuple(float(v) for v in row) for row in h),
        min_eigenvalue=float(eigenvalues.min()),
        step=step,
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
    """(x, alpha) rows across a uniform grid, for CSV plotting."""
    if count < 1:
        raise ValueError("need at least one sample")
    if not hi > lo:
        raise ValueError("empty range")
    rows = []
    for i in range(count):
        x = lo + (hi - lo) * i / max(count - 1, 1)
        rows.append((x, float(alpha(p, float(x)).alpha)))
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
