"""Checks of the paper's lemmas on the log-concavity ratio and the level-set Hessian.

For chain-certified polynomials the ratio ``p * p'' / p'^2`` increases
above the largest derivative root toward ``1 - 1/n``; that monotonicity is
exactly the positive definiteness of the level-set Hessian along the
diagonal curve.  Both sides of that identity are computed here
independently: the ratio's limit, derivative, monotonicity and product
bound, the bordered and diagonal Hessian of the level set, and a
finite-difference graph Hessian.  ``translate`` shifts the coordinates so
the top coefficient vanishes, the form the Hessian lemmas assume, and
``graph_lambda_n`` solves the level set for its last coordinate, the graph
the Hessians are taken of.  No command of ``sigmak`` needs them; the tests
check the lemmas with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from sigmak.analysis import alpha
from sigmak.equations import (
    SigmaKPolynomial,
    _read_point,
    diagonal_restriction,
    elementary_symmetric,
    evaluate as eval_equation,
)
from sigmak.errors import DegreeTooLow, DimensionMismatch, NotCertified, SigmaKError
from sigmak.poly import Poly, derivative, evaluate
from sigmak.rationals import comb0
from sigmak.realroots import bracket
from sigmak.rootchain import ChainCertificate, ChainVerdict, certify_right

from _oracles import TopCoefficientNotZero

# the graph denominator must exceed this at a base point with a float coordinate
FLOAT_MARGIN = 1e-9


class DenominatorNotPositive(SigmaKError):
    """The graph denominator is not positive at the given base point."""


class CriticalPoint(SigmaKError):
    """The derivative vanishes at the evaluation point."""


class ZeroCoordinate(SigmaKError):
    """A point coordinate is zero where division by it is required."""


class NotOnLevelSet(SigmaKError):
    """The point does not lie on the zero level set."""


def translate(f: SigmaKPolynomial) -> tuple[SigmaKPolynomial, Fraction]:
    """Shift all coordinates by the top coefficient so it vanishes.

    Substituting ``mu = lam - c_{n-1}`` gives coefficients
    ``d_j = sum_{k>=j} c_k c_{n-1}^{k-j} C(n-j, k-j) - c_{n-1}^{n-j}``
    and ``d_{n-1} = 0``; the shift is returned alongside.
    """
    shift = f.c[f.n - 1]
    if shift == 0:
        return f, Fraction(0)
    d = []
    for j in range(f.n - 1):
        total = sum(
            f.c[k] * shift ** (k - j) * comb0(f.n - j, k - j)
            for k in range(j, f.n)
        )
        d.append(total - shift ** (f.n - j))
    d.append(Fraction(0))
    return SigmaKPolynomial(f.n, tuple(d)), shift


def graph_lambda_n(f: SigmaKPolynomial, base: Sequence):
    """The last coordinate that puts ``(base, lambda_n)`` on the zero level set.

    Solves ``f = 0`` linearly in the missing coordinate; requires the
    denominator (the one-variable partial restriction at the base) to be
    positive.
    """
    if f.n < 2:
        raise DimensionMismatch("graph form needs degree >= 2")
    if len(base) != f.n - 1:
        raise DimensionMismatch(f"base has {len(base)} coordinates, expected {f.n - 1}")
    _read_point(base)  # refuses what cone_membership refuses
    exact = all(isinstance(v, (int, Fraction)) for v in base)
    margin = Fraction(0) if exact else FLOAT_MARGIN
    e = elementary_symmetric(base)
    numerator = sum(f.c[k] * e[k] for k in range(f.n))
    denominator = e[f.n - 1] - sum(f.c[k] * e[k - 1] for k in range(1, f.n))
    if not denominator > margin:
        raise DenominatorNotPositive(
            "graph denominator must be positive at the base point"
        )
    return numerator / denominator


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
class BorderedHessianReport:
    gradient: tuple
    hessian: tuple
    bordered: tuple
    sigma_n: object
    constraint_minor: object


def _weighted_sigma(c: Sequence[Fraction], values: Sequence, upto: int):
    e = elementary_symmetric(values)
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
