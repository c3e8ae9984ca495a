"""Independent oracles used by the test suite.

The root and chain oracles go through numpy floating point.  The resultant
oracle is an exact determinant of the Sylvester matrix by fraction-free
Bareiss elimination, an algorithm ``sigmak.poly`` does not use.  The exact
chain oracle certifies the right chain by isolating every real root of
every derivative with Sturm chains and keeping the largest, where
``sigmak.rootchain`` runs one monotone sign test per level.  The membership
oracle builds one partial restriction per level and evaluates it afresh at
every coordinate subset it checks, where ``sigmak.equations`` shares the
symmetric functions across levels and subsets.  The rounding and
remainder oracles (``bracket_by_fractions``, ``remainder_sequence_by_division``,
``gcd_by_division``) bisect and divide in ``Fraction`` arithmetic, where
``sigmak`` works on integer forms.  All stay deliberately separate from the
exact code paths they are used to check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from sigmak.equations import (
    FLOAT_MARGIN,
    MembershipReport,
    SigmaKPolynomial,
    certify_stable,
    evaluate,
    partial_restriction,
)
from sigmak.errors import DimensionMismatch, NotStableEquation
from sigmak.poly import Poly, SturmChain, derivative, sturm_chain
from sigmak.poly import evaluate as poly_evaluate
from sigmak.rationals import sign
from sigmak.realroots import AlgebraicNumber, from_rational, largest_real_root, sign_at
from sigmak.rootchain import ChainCertificate, ChainVerdict


def complex_roots(coeffs_ascending) -> np.ndarray:
    """All complex roots via the companion matrix (numpy)."""
    desc = [float(c) for c in reversed(list(coeffs_ascending))]
    if len(desc) <= 1:
        return np.array([])
    return np.roots(desc)


def real_roots(coeffs_ascending, imag_tol: float = 1e-9) -> list[float]:
    roots = complex_roots(coeffs_ascending)
    if len(roots) == 0:
        return []
    scale = 1.0 + max(abs(r) for r in roots)
    return sorted(r.real for r in roots if abs(r.imag) <= imag_tol * scale)


def distinct_real_roots(coeffs_ascending, merge_tol: float = 1e-6) -> list[float]:
    merged: list[float] = []
    for r in real_roots(coeffs_ascending):
        if not merged or abs(r - merged[-1]) > merge_tol * (1.0 + abs(r)):
            merged.append(r)
    return merged


def resultant_by_root_product(p_coeffs, q_coeffs) -> complex:
    """lc(p)^deg(q) * prod q(alpha) over the complex roots alpha of p."""
    roots = complex_roots(p_coeffs)
    q_desc = [float(c) for c in reversed(list(q_coeffs))]
    lead = float(list(p_coeffs)[-1])
    value = lead ** (len(q_desc) - 1)
    for r in roots:
        value *= np.polyval(q_desc, r)
    return value


def float_chain(coeffs_ascending, imag_tol: float = 1e-9):
    """Largest real root of every derivative, descending order of derivatives.

    Returns a list with one entry per derivative level 0..n-1; None marks a
    level whose derivative has no (numerically) real root.
    """
    coeffs = [float(c) for c in coeffs_ascending]
    if coeffs and coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    n = len(coeffs) - 1
    chain = []
    current = coeffs
    for _ in range(n):
        found = real_roots(current, imag_tol)
        chain.append(found[-1] if found else None)
        current = [current[i] * i for i in range(1, len(current))]
    return chain


def float_chain_verdict(coeffs_ascending, tol: float = 1e-9):
    """Right-chain verdict from the float chain: 'strict', 'non-strict' or 'failed'.

    A level fails when its derivative has no real root at or above the next
    level's largest root (within tol).
    """
    chain = float_chain(coeffs_ascending)
    n = len(chain)
    for k in range(n - 1, -1, -1):
        if chain[k] is None:
            return "failed"
    if n <= 1:
        return "strict"  # a linear polynomial counts as strict by convention
    for k in range(n - 1):
        if chain[k] < chain[k + 1] - tol:
            return "failed"
    if n >= 2 and chain[0] > chain[1] + tol:
        return "strict"
    return "non-strict"


def near_tie(coeffs_ascending, gap: float = 1e-6) -> bool:
    """True when any two chain values are too close to trust float comparison."""
    chain = float_chain(coeffs_ascending)
    values = [v for v in chain if v is not None]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) < gap:
                return True
    # ambiguous realness: conjugate pairs sitting near the real axis
    coeffs = [float(c) for c in coeffs_ascending]
    current = coeffs
    for _ in range(len(coeffs) - 1):
        roots = complex_roots(current)
        if len(roots):
            scale = 1.0 + max(abs(r) for r in roots)
            for r in roots:
                if 1e-9 * scale < abs(r.imag) < 1e-5 * scale:
                    return True
        current = [current[i] * i for i in range(1, len(current))]
    return False


def _sylvester_matrix(p1, p2) -> list[list[Fraction]]:
    d, e = int(p1.degree), int(p2.degree)
    size = d + e
    m = [[Fraction(0)] * size for _ in range(size)]
    for j in range(e):
        for i in range(d + 1):
            m[j + i][j] = p1.coeffs[d - i]
    for j in range(d):
        for i in range(e + 1):
            m[j + i][e + j] = p2.coeffs[e - i]
    return m


def _bareiss_determinant(m: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-free Bareiss elimination.

    Rows are first scaled to integers; the accumulated scale divides the
    result at the end so the value is the exact rational determinant.
    """
    size = len(m)
    if size == 0:
        return Fraction(1)
    scale = 1
    rows: list[list[int]] = []
    for row in m:
        den = 1
        for c in row:
            den = den * c.denominator // math.gcd(den, c.denominator)
        scale *= den
        rows.append([int(c * den) for c in row])
    sign_fix = 1
    prev = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, size):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign_fix = -sign_fix
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return Fraction(sign_fix * rows[size - 1][size - 1], scale)


def bracket_by_fractions(alpha: AlgebraicNumber, digits: int) -> tuple[Fraction, Fraction]:
    """Decimal bracket of ``alpha`` by bisecting at ``Fraction`` grid points."""
    scale = 10**digits
    if alpha.is_rational:
        value = alpha.rational_value * scale
        return Fraction(math.floor(value), scale), Fraction(math.ceil(value), scale)
    a = math.floor(alpha.interval.lo * scale) + 1
    b = math.ceil(alpha.interval.hi * scale) - 1
    sign_lo = sign(poly_evaluate(alpha.defining, alpha.interval.lo))
    while a <= b:
        k = (a + b) // 2
        s = sign(poly_evaluate(alpha.defining, Fraction(k, scale)))
        if s == 0:
            return Fraction(k, scale), Fraction(k, scale)
        if s == sign_lo:
            a = k + 1
        else:
            b = k - 1
    return Fraction(b, scale), Fraction(a, scale)


def _primitive_by_fractions(p: Poly) -> Poly:
    if p.is_zero:
        return p
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints)
    return Poly([v // g for v in ints])


def remainder_sequence_by_division(p: Poly) -> SturmChain:
    """``p, p', -rem, ...`` by rational long division, each made primitive."""
    q = _primitive_by_fractions(p)
    if q.degree < 1:
        return SturmChain((q,))
    chain = [q, _primitive_by_fractions(derivative(q))]
    while True:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(_primitive_by_fractions(-rem))
    return SturmChain(chain)


def gcd_by_division(p: Poly, q: Poly) -> Poly:
    """Monic gcd by Euclid with monic rational remainders."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
        if not a.is_zero and a.degree >= 1:
            a = a.monic()
    if a.is_zero:
        return a
    return a.monic() if a.degree >= 1 else Poly([1])


def certify_right_by_isolation(p: Poly) -> ChainCertificate:
    """Right-chain certificate from full root isolation of every derivative.

    ``chain[k]`` is the largest of all isolated real roots of ``p^(k)``;
    ``signs[k]`` is ``sign_at(p^(k), chain[k+1])``.  Expects degree >= 1.
    """
    p = -p if p.lc < 0 else p
    n = int(p.degree)
    ders = [p]
    for _ in range(n - 1):
        ders.append(derivative(ders[-1]))
    chain = [None] * n
    signs = [None] * max(n - 1, 0)
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
    if n == 1 or signs[0] < 0:
        verdict = ChainVerdict.STRICT
    else:
        verdict = ChainVerdict.NOT_STRICT
    return ChainCertificate(
        verdict=verdict,
        polynomial=p,
        chain=tuple(chain),
        signs=tuple(signs),
        top_multiplicity=chain[0].multiplicity_in_source,
    )


def cone_membership_by_subsets(
    f: SigmaKPolynomial, point, *, exhaustive: bool = False, margin=None
) -> MembershipReport:
    """Nested cone membership with every restriction value computed from scratch.

    Each level builds its partial restriction and evaluates it at the
    coordinates left after dropping the largest ones; the exhaustive scan
    (``exhaustive``, or a float value within ten margins of zero) evaluates
    it again at every subset, in ascending index order.
    """
    report = certify_stable(f)
    if not report.is_stable:
        raise NotStableEquation("membership is only defined for stable equations")
    if len(point) != f.n:
        raise DimensionMismatch(f"point has {len(point)} coordinates, equation has {f.n}")
    exact = all(isinstance(v, (int, Fraction)) for v in point)
    if margin is None:
        margin = Fraction(0) if exact else FLOAT_MARGIN
    coords = [Fraction(v) for v in point] if exact else [float(v) for v in point]
    order = sorted(range(f.n), key=lambda i: coords[i])
    ascending = [coords[i] for i in order]

    level_values = []
    failing_level = None
    failing_subset = None
    for level in range(f.n - 1, -1, -1):
        if level == 0:
            value = evaluate(f, coords)
            worst = ()
        else:
            g = partial_restriction(f, level)
            value = evaluate(g, ascending[: f.n - level])
            worst = tuple(sorted(order[f.n - level :]))
            use_exhaustive = exhaustive or (
                not exact and abs(value) <= 10 * float(margin)
            )
            if use_exhaustive:
                for dropped in combinations(range(f.n), level):
                    kept = [coords[i] for i in range(f.n) if i not in dropped]
                    v = evaluate(g, kept)
                    if v < value:
                        value = v
                        worst = dropped
        level_values.append((level, value))
        if not value > margin:
            failing_level = level
            failing_subset = worst
            break
    if failing_level is None:
        member = 0
    elif failing_level == f.n - 1:
        member = None
    else:
        member = failing_level + 1
    return MembershipReport(
        member_level=member,
        failing_level=failing_level,
        failing_subset=failing_subset,
        level_values=tuple(level_values),
    )
