"""The general inverse sigma_k model and its semialgebraic cone machinery.

An equation of degree n is ``f(lam) = sigma_n(lam) - sum_{k<n} c_k
sigma_k(lam) = 0`` with rational coefficients ``c_0..c_{n-1}``.  The module
evaluates f, forms partial and diagonal restrictions, translates away the
top coefficient, certifies stability through the diagonal chain
certificate, answers membership queries for the nested subsolution cones,
and decides dominance between two stable equations.

Membership convention: cone level l (1 <= l <= n-1) holds when every size-l
partial restriction is positive at the point and level l+1 holds; level 0
is the stable component itself, f > 0 together with level 1.  Because each
restriction is monotone in every coordinate once the level above holds,
only the subset that drops the l largest coordinates needs checking on the
fast path.  Level l restricted to that subset is ``sigma_m - sum_{k<m}
c_{l+k} sigma_k`` at the m = n - l smallest coordinates, so one ascending
pass over the sorted coordinates serves every level: a running vector of
symmetric functions gains one coordinate per level, and no restriction is
built.  The exhaustive scan, asked for or forced by a float value near
zero, evaluates every subset of a level; subsets that share a prefix of
indices share its symmetric functions.  Both reproduce, bit for bit, the
values of ``evaluate`` on the same coordinates in the same order.
"""

from __future__ import annotations

import enum
import math
import random
from itertools import combinations
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import (
    BadSubsetSize,
    DenominatorNotPositive,
    DimensionMismatch,
    NotStableEquation,
    SamplingExhausted,
)
from .poly import Poly
from .rationals import comb0
from .realroots import Order, compare
from .rootchain import ChainCertificate, ChainVerdict, certify_right

FLOAT_MARGIN = 1e-9


@dataclass(frozen=True)
class SigmaKPolynomial:
    """Degree n and coefficients c_0..c_{n-1} of a general inverse sigma_k equation."""

    n: int
    c: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("degree must be >= 1")
        object.__setattr__(self, "c", tuple(Fraction(v) for v in self.c))
        if len(self.c) != self.n:
            raise DimensionMismatch(
                f"expected {self.n} coefficients, got {len(self.c)}"
            )


def elementary_symmetric(values: Sequence, upto: Optional[int] = None) -> list:
    """e_0..e_upto of the values by the stable one-pass recurrence."""
    m = len(values) if upto is None else upto
    zero = 0
    for v in values:
        zero = zero * v  # adopt float when any coordinate is float
    e = [zero] * (m + 1)
    e[0] = 1 + zero
    for i, v in enumerate(values):
        top = min(i + 1, m)
        for j in range(top, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e


def _restriction_value(e: Sequence, c: Sequence, level: int):
    """The size-``level`` partial restriction at coordinates with symmetric functions ``e``."""
    m = len(c) - level
    value = e[m]
    for k in range(m):
        value = value - c[level + k] * e[k]
    return value


def evaluate(f: SigmaKPolynomial, point: Sequence):
    """f at the point: sigma_n minus the weighted lower symmetric functions."""
    if len(point) != f.n:
        raise DimensionMismatch(f"point has {len(point)} coordinates, equation has {f.n}")
    return _restriction_value(elementary_symmetric(point), f.c, 0)


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


def diagonal_restriction(f: SigmaKPolynomial) -> Poly:
    """The univariate restriction to the diagonal: x^n - sum c_k C(n,k) x^k."""
    coeffs = [-f.c[k] * comb0(f.n, k) for k in range(f.n)]
    coeffs.append(Fraction(1))
    return Poly(coeffs)


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


class StabilityVerdict(enum.Enum):
    STRICTLY_STABLE = "strictly-stable-convex"
    STABLE = "stable"
    NOT_STABLE = "not-stable"


@dataclass(frozen=True)
class StabilityReport:
    verdict: StabilityVerdict
    certificate: ChainCertificate

    @property
    def is_stable(self) -> bool:
        return self.verdict is not StabilityVerdict.NOT_STABLE

    @property
    def is_strict(self) -> bool:
        return self.verdict is StabilityVerdict.STRICTLY_STABLE


_VERDICT_FROM_CHAIN = {
    ChainVerdict.STRICT: StabilityVerdict.STRICTLY_STABLE,
    ChainVerdict.NOT_STRICT: StabilityVerdict.STABLE,
    ChainVerdict.FAILED: StabilityVerdict.NOT_STABLE,
}


# callers query a handful of equations repeatedly; a larger cache only keeps
# the certificates of equations never asked about again alive
@lru_cache(maxsize=64)
def certify_stable(f: SigmaKPolynomial) -> StabilityReport:
    """Stability of the equation, decided on the diagonal restriction."""
    cert = certify_right(diagonal_restriction(f))
    return StabilityReport(_VERDICT_FROM_CHAIN[cert.verdict], cert)


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the nested cone membership check.

    ``member_level`` is the deepest level containing the point (0 denotes
    the stable component itself), or None when even the top level fails.
    ``level_values`` holds the minimum restriction value at every level
    checked, descending.
    """

    member_level: Optional[int]
    failing_level: Optional[int]
    failing_subset: Optional[tuple[int, ...]]
    level_values: tuple[tuple[int, object], ...]

    @property
    def in_stable_component(self) -> bool:
        return self.member_level == 0

    @property
    def is_subsolution(self) -> bool:
        return self.member_level is not None and self.member_level <= 1


def _is_exact_point(point: Sequence) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in point)


def _empty_sigmas(size: int, exact: bool) -> list:
    """``e_0..e_size`` of no values, ready for ``_add_value``."""
    one = Fraction(1) if exact else 1.0
    return [one] + [one - one] * size


def _add_value(e: list, v, top: int) -> None:
    """One step of ``elementary_symmetric``: fold ``v`` into ``e_1..e_top`` in place."""
    for j in range(top, 0, -1):
        e[j] = e[j] + v * e[j - 1]


def _shared_ok(product, exact: bool) -> bool:
    """Whether ``e_0..e_m`` grown from ``_empty_sigmas`` equal ``elementary_symmetric``'s.

    ``product`` is ``e_m``, the product of the m values added.  Exact values
    always agree.  In float, ``elementary_symmetric`` starts from a zero
    that carries the sign of that product, and the sign reaches the result
    only once a product of some of the values, taken in order, is 0, inf or
    nan; ``product`` is then one too.
    """
    return exact or (product != 0 and math.isfinite(product))


def _kept_subset_values(coords: list, c: Sequence, level: int, exact: bool) -> list:
    """Restriction values at every kept subset of ``n - level`` coordinates.

    The subsets come in lexicographic order of their indices.  Subsets that
    share a prefix of indices share its symmetric functions, and each subset
    adds its values in ascending index order, as ``evaluate`` does.
    """
    m = len(coords) - level
    out = []
    path = []

    def extend(e, start, depth):
        # leave room for the m - depth - 1 indices still to pick
        for i in range(start, level + depth + 1):
            grown = e.copy()
            _add_value(grown, coords[i], depth + 1)
            path.append(i)
            if depth + 1 < m:
                extend(grown, i + 1, depth + 1)
            else:
                if not _shared_ok(grown[m], exact):
                    grown = elementary_symmetric([coords[j] for j in path])
                out.append(_restriction_value(grown, c, level))
            path.pop()

    extend(_empty_sigmas(m, exact), 0, 0)
    return out


def cone_membership(
    f: SigmaKPolynomial,
    point: Sequence,
    *,
    exhaustive: bool = False,
    margin=None,
) -> MembershipReport:
    """Locate the deepest nested cone containing the point.

    Checks run from the top level down, in one ascending pass over the
    sorted coordinates: level ``l`` drops the ``l`` largest ones, so the
    symmetric functions it needs are those of the ``n - l`` smallest, and
    one running vector gains one coordinate per level.  Level 0 evaluates
    f at the point as given.  The exhaustive scan (``exhaustive``, or a
    float value within ten margins of zero) minimises over every subset,
    sharing the symmetric functions of common index prefixes.  ``margin``
    widens every strict inequality to ``> margin`` (defaults to 0 exactly,
    1e-9 in float mode).
    """
    report = certify_stable(f)
    if not report.is_stable:
        raise NotStableEquation("membership is only defined for stable equations")
    n = f.n
    if len(point) != n:
        raise DimensionMismatch(f"point has {len(point)} coordinates, equation has {n}")
    exact = _is_exact_point(point)
    if margin is None:
        margin = Fraction(0) if exact else FLOAT_MARGIN
    if exact:
        coords = [Fraction(v) for v in point]
        c = f.c
    else:
        # a Fraction times a float is computed as the float of the Fraction times it
        coords = [float(v) for v in point]
        c = [float(v) for v in f.c]
    order = sorted(range(n), key=lambda i: coords[i])
    ascending = [coords[i] for i in order]
    running = _empty_sigmas(n, exact)

    level_values = []
    failing_level = None
    failing_subset = None
    for level in range(n - 1, -1, -1):
        if level == 0:
            value = evaluate(f, coords)
            worst = ()
        else:
            m = n - level
            _add_value(running, ascending[m - 1], m)
            e = running if _shared_ok(running[m], exact) else elementary_symmetric(ascending[:m])
            value = _restriction_value(e, c, level)
            worst = tuple(sorted(order[m:]))
            if exhaustive or (not exact and abs(value) <= 10 * float(margin)):
                # dropped sets in lexicographic order are the complements of
                # the kept sets in reverse lexicographic order
                kept_values = _kept_subset_values(coords, c, level, exact)
                for dropped, v in zip(combinations(range(n), level), reversed(kept_values)):
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
    elif failing_level == n - 1:
        member = None
    else:
        member = failing_level + 1
    return MembershipReport(
        member_level=member,
        failing_level=failing_level,
        failing_subset=failing_subset,
        level_values=tuple(level_values),
    )


@dataclass(frozen=True)
class DominanceReport:
    dominates: bool
    comparisons: tuple[Order, ...]


def dominates(g: SigmaKPolynomial, f: SigmaKPolynomial) -> DominanceReport:
    """Exact per-level comparison of the two diagonal root chains.

    True when every chain root of ``g`` is >= the corresponding root of
    ``f``, which for stable equations is equivalent to the stable component
    of ``g`` sitting inside the one of ``f``.
    """
    if g.n != f.n:
        raise DimensionMismatch("dominance needs equations of equal degree")
    rg = certify_stable(g)
    rf = certify_stable(f)
    if not (rg.is_stable and rf.is_stable):
        raise NotStableEquation("dominance is only defined for stable equations")
    comparisons = tuple(
        compare(rg.certificate.chain[k], rf.certificate.chain[k]) for k in range(f.n)
    )
    ok = all(c in (Order.GREATER, Order.EQUAL) for c in comparisons)
    return DominanceReport(ok, comparisons)


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
    exact = _is_exact_point(base)
    margin = Fraction(0) if exact else FLOAT_MARGIN
    e = elementary_symmetric(base)
    numerator = sum(f.c[k] * e[k] for k in range(f.n))
    denominator = e[f.n - 1] - sum(f.c[k] * e[k - 1] for k in range(1, f.n))
    if not denominator > margin:
        raise DenominatorNotPositive(
            "graph denominator must be positive at the base point"
        )
    return numerator / denominator


def _dyadic(u: float, bits: int = 24) -> Fraction:
    return Fraction(round(u * (1 << bits)), 1 << bits)


def sample_region(
    f: SigmaKPolynomial,
    count: int,
    seed: int,
    *,
    mode: str = "exact",
    retry_factor: int = 40,
) -> list[tuple]:
    """Deterministic points inside the stable component.

    Each point is a diagonal base just above the largest chain root plus a
    nonnegative jitter per coordinate, re-verified through the membership
    criterion; failed draws are retried within a bounded budget.  ``mode``
    is ``"exact"`` for ``Fraction`` points or ``"float"`` for float ones.
    """
    report = certify_stable(f)
    if not report.is_strict:
        raise NotStableEquation("sampling needs a strictly stable equation")
    if count < 0:
        raise ValueError("count must be >= 0")
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if count == 0:
        return []
    x0_hi = report.certificate.x0_bracket[1]
    spread = x0_hi + 1 if x0_hi + 1 > 0 else Fraction(1)
    rng = random.Random(seed)
    out: list[tuple] = []
    budget = retry_factor * count + retry_factor
    attempts = 0
    while len(out) < count:
        if attempts >= budget:
            raise SamplingExhausted(
                f"gave up after {attempts} draws for {count} points"
            )
        attempts += 1
        base = x0_hi + _dyadic(rng.random()) * spread
        coords = tuple(base + _dyadic(rng.random()) * spread for _ in range(f.n))
        if mode == "float":
            coords = tuple(float(v) for v in coords)
        membership = cone_membership(f, coords)
        if membership.in_stable_component:
            out.append(coords)
    return out
