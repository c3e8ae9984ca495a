"""Independent oracles used by the test suite.

The root and chain oracles go through numpy floating point.  The resultant
oracle is an exact determinant of the Sylvester matrix by fraction-free
Bareiss elimination, an algorithm ``sigmak.poly`` does not use.  The exact
chain oracle certifies the right chain by isolating every real root of
every derivative with Sturm chains and keeping the largest, where
``sigmak.rootchain`` runs one monotone sign test per level.  The membership
oracle builds one partial restriction per level and evaluates it afresh at
every coordinate subset it checks, where ``sigmak.equations`` shares the
symmetric functions across levels and subsets.
``sample_region_by_fractions`` builds each sampled coordinate in
``Fraction`` arithmetic and decides it with that oracle, where
``sample_region`` draws on one integer grid.  The rounding oracle
``bracket_by_fractions`` bisects the decimal grid, reading each sign from
the homogeneous integer form with its own Horner loop, and the remainder
oracles (``remainder_sequence_by_division``, ``gcd_by_division``) divide in
``Fraction`` arithmetic, where ``sigmak`` narrows by quadratic steps and
works on primitive integer forms.  The closed-form oracle
``closed_form_criterion`` decides degrees 2 to 4 by the paper's explicit
inequalities, with an mpmath bracket of the depressed cubic's largest root
certified against the cubic, and shares no chain code with
``sigmak.rootchain``.  ``certify_left`` (the right chain of ``p(-x)``),
``is_real_rooted``, ``multiplicity_at_largest_root`` and
``count_real_roots_with_multiplicity`` wrap the Sturm API and the right
chain for the tests that need them, and ``mirror``, ``negate`` and
``shift`` move a polynomial or an algebraic number to ``-x`` or ``x + d``.
``resultant`` and ``discriminant`` (the subresultant remainder sequence on
integer forms, ``_resultant_subresultant``, checked against the Bareiss
determinant), ``partial_restriction`` (the equation one cone level down) and
``largest_real_root`` (the rightmost isolated root) are the paper's proof
devices and the references the tests build on; no decision of ``sigmak``
calls them.  All stay deliberately separate from the exact code paths they
are used to check.
"""

from __future__ import annotations

import importlib.util
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from sigmak.equations import (
    MembershipReport,
    SigmaKPolynomial,
    StabilityVerdict,
    certify_stable,
    evaluate,
)
from sigmak.errors import (
    DegreeOutOfRange,
    DegreeTooLow,
    DimensionMismatch,
    NotStableEquation,
    SigmaKError,
    ZeroPolynomial,
)
from sigmak.poly import (
    Poly,
    SturmChain,
    _clear_denominators,
    _prem,
    derivative,
    sturm_chain,
    taylor_shift,
    yun_decomposition,
)
from sigmak.presets import hessian_type, j_equation, monge_ampere, nonneg_coeff
from sigmak.rationals import sign
from sigmak.realroots import (
    AlgebraicNumber,
    IsolatingInterval,
    _shares_root,
    from_rational,
    isolate_real_roots,
    sign_at,
)
from sigmak.rootchain import ChainCertificate, ChainVerdict, _normalize, certify_right


ROOT = Path(__file__).resolve().parents[1]
EX11_C = ("-20", "9", "-64", "19", "0")
EX12_C = ("-24", "-2", "65", "19", "0")


def bench_module(stem: str):
    """``bench/<stem>.py``, loaded from its file; ``bench`` is not a package."""
    spec = importlib.util.spec_from_file_location(f"_bench_{stem}", ROOT / "bench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_equations(seed: int, degrees) -> list[SigmaKPolynomial]:
    """EX11, EX12, the exact presets and the certify-highdeg families at each degree.

    The family members are drawn in order from ``random.Random(seed)``.
    """
    fs = [
        SigmaKPolynomial(5, tuple(Fraction(v) for v in EX11_C)),
        SigmaKPolynomial(5, tuple(Fraction(v) for v in EX12_C)),
        monge_ampere(3, Fraction(1)),
        j_equation(4, Fraction(2)),
        hessian_type(4, 1, Fraction(3)),
        nonneg_coeff(4, [Fraction(1), Fraction(2), Fraction(3)], Fraction(-5)).equation,
    ]
    workloads = bench_module("workloads")
    rng = random.Random(seed)
    for n in degrees:
        for family in workloads.CertifyHighdeg.families:
            fs.append(SigmaKPolynomial(n, workloads.family_equation(rng, n, family)))
    return fs


class NoRealRoot(SigmaKError):
    """The polynomial has no real root."""


class BadSubsetSize(SigmaKError):
    """A partial restriction was requested for an invalid subset size."""


class TopCoefficientNotZero(SigmaKError):
    """The operation requires the top-order coefficient to vanish (translate first)."""


class RootBracketNotCertified(SigmaKError):
    """A high-precision root bracket failed its exact check at every precision tried."""


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


def _resultant_subresultant(a: list[int], b: list[int]) -> int:
    """Resultant of integer polynomials by the subresultant remainder sequence."""
    da, db = len(a) - 1, len(b) - 1
    s = 1
    if da < db:
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        a, b, da, db = b, a, db, da
    ca, cb = math.gcd(*a), math.gcd(*b)
    a = [v // ca for v in a]
    b = [v // cb for v in b]
    t = s * ca**db * cb**da
    if db == 0:
        return t * b[0] ** da
    s = 1
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _prem(a, b)
        if r == [0] or not r:
            return 0
        a = b
        divisor = g * h**delta
        b = [v // divisor for v in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta > 0 else h
        if len(b) - 1 == 0:
            da = len(a) - 1
            return t * s * (b[0] ** da // h ** (da - 1))


def resultant(p1: Poly, p2: Poly) -> Fraction:
    """Determinant of the Sylvester matrix of ``p1`` and ``p2``.

    Computed by the subresultant remainder sequence on the integer forms of
    both polynomials, which keeps intermediate coefficients from blowing up.
    """
    if p1.is_zero or p2.is_zero:
        raise ZeroPolynomial("resultant needs two nonzero polynomials")
    d, e = int(p1.degree), int(p2.degree)
    if d == 0 and e == 0:
        return Fraction(1)
    if d == 0:
        return p1.coeffs[0] ** e
    if e == 0:
        return p2.coeffs[0] ** d
    a, da = _clear_denominators(p1)
    b, db = _clear_denominators(p2)
    return Fraction(_resultant_subresultant(a, b), da**e * db**d)


def discriminant(p: Poly) -> Fraction:
    """``(-1)^(n(n-1)/2) / a_n * res(p, p')``."""
    if p.is_zero:
        raise ZeroPolynomial("discriminant of the zero polynomial")
    n = int(p.degree)
    if n < 1:
        raise DegreeTooLow("discriminant needs degree >= 1")
    if n == 1:
        return Fraction(1)
    res = resultant(p, derivative(p))
    return Fraction((-1) ** (n * (n - 1) // 2)) / p.lc * res


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


def _homogeneous_weights(p: Poly, den: int) -> list[int]:
    """``c_j * den^(n-j)``, top first, with ``c_j`` the coefficients of ``p`` over their lcd.

    Horner over these weights at ``num`` gives ``sum_j c_j num^j den^(n-j)``,
    which is ``lcd * den^n * p(num / den)``: the sign of ``p`` at ``num / den``.
    """
    lcd = math.lcm(*(c.denominator for c in p.coeffs))
    n = len(p.coeffs) - 1
    return [
        c.numerator * (lcd // c.denominator) * den ** (n - j)
        for j, c in reversed(list(enumerate(p.coeffs)))
    ]


def _homogeneous_sign(weights: list[int], num: int) -> int:
    value = 0
    for w in weights:
        value = value * num + w
    return (value > 0) - (value < 0)


def bracket_by_fractions(alpha: AlgebraicNumber, digits: int) -> tuple[Fraction, Fraction]:
    """Decimal bracket of ``alpha`` by bisecting the grid points ``k / 10^digits``.

    Each sign is read from the homogeneous integer form
    ``sum_j c_j k^j 10^(digits (n-j))`` of the defining polynomial.
    """
    scale = 10**digits
    if alpha.is_rational:
        value = alpha.rational_value * scale
        return Fraction(math.floor(value), scale), Fraction(math.ceil(value), scale)
    a = math.floor(alpha.interval.lo * scale) + 1
    b = math.ceil(alpha.interval.hi * scale) - 1
    lo = Fraction(alpha.interval.lo)
    sign_lo = _homogeneous_sign(_homogeneous_weights(alpha.defining, lo.denominator), lo.numerator)
    grid = _homogeneous_weights(alpha.defining, scale)
    while a <= b:
        k = (a + b) // 2
        s = _homogeneous_sign(grid, k)
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


def largest_real_root(p: Poly):
    """Rightmost element of ``isolate_real_roots``, or None when no real root exists."""
    roots = isolate_real_roots(p)
    return roots[-1] if roots else None


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


def partial_restriction(f: SigmaKPolynomial, subset) -> SigmaKPolynomial:
    """Drop ``l`` coordinates: same family one level down, coefficients shifted.

    ``subset`` is either the size l itself or the index set to drop; by
    symmetry only the size matters.
    """
    if isinstance(subset, int):
        l = subset
    else:
        indices = set(subset)
        if not all(isinstance(i, int) and 0 <= i < f.n for i in indices):
            raise BadSubsetSize("subset indices out of range")
        l = len(indices)
    if not 1 <= l <= f.n - 1:
        raise BadSubsetSize(f"subset size {l} not in 1..{f.n - 1}")
    return SigmaKPolynomial(f.n - l, f.c[l:])


def cone_membership_by_subsets(
    f: SigmaKPolynomial, point, *, exhaustive: bool = False, margin=0
) -> MembershipReport:
    """Nested cone membership with every restriction value computed from scratch.

    Every coordinate and the margin are read exactly, a float as
    ``Fraction(v)``.  Each level builds its partial restriction and
    evaluates it at the coordinates left after dropping the largest ones;
    the exhaustive scan evaluates it again at every subset, in ascending
    index order.
    """
    report = certify_stable(f)
    if not report.is_stable:
        raise NotStableEquation("membership is only defined for stable equations")
    if len(point) != f.n:
        raise DimensionMismatch(f"point has {len(point)} coordinates, equation has {f.n}")
    margin = Fraction(margin)
    coords = [Fraction(v) for v in point]
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
            if exhaustive:
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


def sample_region_by_fractions(
    f: SigmaKPolynomial, count: int, seed: int, *, mode: str = "exact"
) -> list[tuple]:
    """``sample_region``'s points, each coordinate built as a ``Fraction``.

    A draw takes a base ``x0_hi + t_0 * spread`` and the coordinates
    ``base + t_i * spread``, every ``t`` a ``random.Random(seed)`` draw
    rounded to 24 bits, in ``Fraction`` arithmetic.  A float point is the
    ``float`` of each coordinate.  ``cone_membership_by_subsets`` decides
    each draw; the kept ones are returned in order.
    """
    x0_hi = certify_stable(f).certificate.x0_bracket[1]
    spread = x0_hi + 1 if x0_hi + 1 > 0 else Fraction(1)
    rng = random.Random(seed)

    def jitter() -> Fraction:
        return Fraction(round(rng.random() * 2**24), 2**24) * spread

    out = []
    for _ in range(40 * (count + 1)):
        if len(out) == count:
            break
        base = x0_hi + jitter()
        coords = tuple(base + jitter() for _ in range(f.n))
        if mode == "float":
            coords = tuple(float(v) for v in coords)
        if cone_membership_by_subsets(f, coords).in_stable_component:
            out.append(coords)
    assert len(out) == count, f"{len(out)} of {count} points in {40 * (count + 1)} draws"
    return out


# -- real-rootedness and the left chain ---------------------------------------


def count_real_roots_with_multiplicity(p: Poly) -> int:
    """Total number of real roots counted with multiplicity."""
    if p.is_zero:
        raise ZeroPolynomial("root count of the zero polynomial")
    if p.degree < 1:
        return 0
    total = 0
    for fac, mult in yun_decomposition(p):
        total += mult * sturm_chain(fac).count_all()
    return total


def mirror(p: Poly) -> Poly:
    """p(-x)."""
    return Poly([c if k % 2 == 0 else -c for k, c in enumerate(p.coeffs)])


def negate(alpha: AlgebraicNumber) -> AlgebraicNumber:
    """The number ``-alpha``."""
    mirrored = mirror(alpha.defining)
    if mirrored.lc < 0:
        mirrored = -mirrored
    return AlgebraicNumber(
        mirrored,
        IsolatingInterval(-alpha.interval.hi, -alpha.interval.lo),
        alpha.multiplicity_in_source,
    )


def shift(alpha: AlgebraicNumber, delta: Fraction) -> AlgebraicNumber:
    """The number ``alpha + delta``."""
    delta = Fraction(delta)
    return AlgebraicNumber(
        taylor_shift(alpha.defining, -delta),
        IsolatingInterval(alpha.interval.lo + delta, alpha.interval.hi + delta),
        alpha.multiplicity_in_source,
    )


def certify_left(p: Poly) -> ChainCertificate:
    """Mirror test: left chain of ``p`` equals the right chain of ``p(-x)``.

    The witnesses are reported in the original coordinates, so ``chain[k]``
    is the smallest real root of ``p^(k)`` at or below the smallest real
    root of ``p^(k+1)``.
    """
    if p.is_zero or p.degree < 1:
        raise DegreeTooLow("chain certification needs degree >= 1")
    cert = certify_right(_normalize(mirror(p)))
    return ChainCertificate(
        verdict=cert.verdict,
        polynomial=_normalize(p),
        chain=tuple(negate(a) if a is not None else None for a in cert.chain),
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


# -- closed-form criteria for degree <= 4 -------------------------------------


def _verdict_from_sign(value_sign: int) -> StabilityVerdict:
    if value_sign > 0:
        return StabilityVerdict.STRICTLY_STABLE
    if value_sign == 0:
        return StabilityVerdict.STABLE
    return StabilityVerdict.NOT_STABLE


def _sign_c0_plus_2_pow32(c0: Fraction, base: Fraction) -> int:
    """Exact sign of ``c0 + 2*base**(3/2)`` for ``base >= 0``."""
    if c0 >= 0:
        return 1 if (c0 > 0 or base > 0) else 0
    return sign(4 * base**3 - c0**2)


def _raw_mpf_to_fraction(raw) -> Fraction:
    """The exact value of an mpmath ``_mpf_`` tuple ``(sign, mantissa, exponent, bits)``."""
    sign_bit, mantissa, exponent, _ = raw
    value = Fraction(mantissa) * Fraction(2) ** exponent
    return -value if sign_bit else value


def _largest_cubic_root_bracket(c2: Fraction, c1: Fraction, dps: int):
    """Conservative rational bracket of the largest root of ``x^3 - 3 c2 x - c1``.

    The explicit branch formula is evaluated at ``dps`` digits and padded by
    a generous error allowance; the bracket is certified afterwards against
    the cubic itself before being trusted.
    """
    import mpmath

    disc = 4 * c2**3 - c1**2
    with mpmath.workdps(dps):
        mc2 = mpmath.mpf(c2.numerator) / c2.denominator
        mc1 = mpmath.mpf(c1.numerator) / c1.denominator
        argument = mc1 / (2 * mc2 ** mpmath.mpf("1.5"))
        if disc >= 0:
            argument = max(mpmath.mpf(-1), min(mpmath.mpf(1), argument))
            root = 2 * mpmath.sqrt(mc2) * mpmath.cos(mpmath.acos(argument) / 3)
        else:
            argument = max(mpmath.mpf(1), argument)
            root = 2 * mpmath.sqrt(mc2) * mpmath.cosh(mpmath.acosh(argument) / 3)
        # a rounding error in the coefficients moves the root by about that
        # error over cubic'(root), which vanishes at a double root
        slope = max(3 * abs(root**2 - mc2), mpmath.mpf(10) ** -dps)
        pad = mpmath.mpf(10) ** (10 - dps) * (1 + abs(root)) * max(1, (1 + abs(root)) ** 2 / slope)
        lo = _raw_mpf_to_fraction((root - pad)._mpf_)
        hi = _raw_mpf_to_fraction((root + pad)._mpf_)
    return lo, hi


def closed_form_criterion(f: SigmaKPolynomial) -> StabilityVerdict:
    """Explicit stability criterion for degree 2, 3 or 4 with zero top coefficient.

    Degree 2: ``c0 > 0``.  Degree 3: ``c1 >= 0`` and ``c0 > -2 c1^(3/2)``.
    Degree 4: ``c2 >= 0``, ``c1 >= -2 c2^(3/2)`` and ``c0 > -3 c2 x1^2 -
    3 c1 x1`` where ``x1`` is the largest root of the depressed cubic,
    taken from its trigonometric/hyperbolic branch formula.  Irrational
    comparisons are settled by exact sign tests on squared or cubed forms
    where possible, otherwise by high-precision evaluation with outward
    rounding, a bracket of ``x1`` certified against the cubic, the gcd of
    the criterion and the cubic changing sign on it, else bisection of it.
    """
    n = f.n
    if n not in (2, 3, 4):
        raise DegreeOutOfRange("closed forms cover degrees 2..4 only")
    if f.c[n - 1] != 0:
        raise TopCoefficientNotZero("translate the equation first")
    if n == 2:
        return _verdict_from_sign(sign(f.c[0]))
    if n == 3:
        c0, c1 = f.c[0], f.c[1]
        if c1 < 0:
            return StabilityVerdict.NOT_STABLE
        return _verdict_from_sign(_sign_c0_plus_2_pow32(c0, c1))

    c0, c1, c2 = f.c[0], f.c[1], f.c[2]
    if c2 < 0:
        return StabilityVerdict.NOT_STABLE
    if c1 < 0 and c1**2 > 4 * c2**3:
        return StabilityVerdict.NOT_STABLE
    if c2 == 0:
        # x1 = c1^(1/3) with c1 >= 0, so 3*c1*x1 = 3*c1^(4/3)
        if c0 >= 0:
            return _verdict_from_sign(1 if (c0 > 0 or c1 > 0) else 0)
        return _verdict_from_sign(sign(27 * c1**4 - (-c0) ** 3))
    cubic = Poly([-c1, -3 * c2, Fraction(0), Fraction(1)])
    boundary = Poly([c0, 3 * c1, 3 * c2])
    if c1 < 0 and c1**2 == 4 * c2**3:
        # x1 = sqrt(c2) is a double root of the cubic, the rational -c1/(2 c2)
        return _verdict_from_sign(sign(boundary(-c1 / (2 * c2))))
    dps = 40
    while dps <= 2560:
        lo, hi = _largest_cubic_root_bracket(c2, c1, dps)
        # convex above 0 and rising at lo (lo^2 > c2): x1 is its one root above lo
        if 0 < lo < hi and lo**2 > c2 and cubic(lo) < 0 < cubic(hi):
            if _shares_root(boundary, cubic, lo, hi):
                return StabilityVerdict.STABLE
            # boundary(x1) != 0: bisect until its enclosure about the midpoint has one sign
            while lo < hi:
                rad = (hi - lo) / 2
                vlo, vhi = taylor_shift(boundary, lo + rad).eval_interval(-rad, rad)
                if vlo > 0 or vhi < 0:
                    return _verdict_from_sign(1 if vlo > 0 else -1)
                mid = (lo + hi) / 2
                s = sign(cubic(mid))
                lo, hi = (mid, mid) if s == 0 else (mid, hi) if s < 0 else (lo, mid)
            return _verdict_from_sign(sign(boundary(lo)))
        dps *= 2
    raise RootBracketNotCertified("could not certify a bracket of the cubic's largest root")
