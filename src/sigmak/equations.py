"""The general inverse sigma_k model and its semialgebraic cone machinery.

An equation of degree n is ``f(lam) = sigma_n(lam) - sum_{k<n} c_k
sigma_k(lam) = 0`` with rational coefficients ``c_0..c_{n-1}``.  The module
evaluates f, forms the diagonal restriction, certifies stability through
the diagonal chain certificate, answers membership queries for the nested
subsolution cones, and decides dominance between two stable equations.
The partial restriction, the translation that removes the top coefficient
and the graph form of the level set are proof devices; the tests keep
them.

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
indices share its symmetric functions.  Both grow their vectors by the one
recurrence of ``elementary_symmetric``, so they reproduce, bit for bit, the
values of ``evaluate`` on the same coordinates in the same order.  A float
point whose arithmetic leaves the float range, in a coordinate, a
coefficient or a value, is decided in exact arithmetic instead.
"""

from __future__ import annotations

import enum
import math
import numbers
import random
from itertools import combinations
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from ._value import Value
from .errors import (
    DimensionMismatch,
    InvalidPoint,
    NotStableEquation,
    SamplingExhausted,
)
from .poly import Poly
from .rationals import comb0
from .realroots import Order, compare
from .rootchain import ChainCertificate, ChainVerdict, certify_right

FLOAT_MARGIN = 1e-9
# draws ``sample_region`` may take per requested point, and once more, before it gives up
_RETRY_FACTOR = 40


class SigmaKPolynomial(Value):
    """Degree n and coefficients c_0..c_{n-1} of a general inverse sigma_k equation.

    Immutable, equal and hashed by value: ``certify_stable`` caches on it.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: Sequence):
        if not isinstance(n, int) or isinstance(n, bool):
            raise DimensionMismatch(f"degree must be an int, got {n!r:.40}")
        if n < 1:
            raise DimensionMismatch("degree must be >= 1")
        c = tuple(Fraction(v) for v in c)
        if len(c) != n:
            raise DimensionMismatch(f"expected {n} coefficients, got {len(c)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)

    def _fields(self) -> tuple:
        return self.n, self.c


def _empty_sigmas(size: int) -> list:
    """``e_0..e_size`` of no values, ready for ``_add_value``."""
    return [1] + [0] * size


def _add_value(e: list, v, top: int) -> None:
    """One step of the recurrence: fold ``v`` into ``e_1..e_top`` in place."""
    for j in range(top, 0, -1):
        e[j] = e[j] + v * e[j - 1]


def elementary_symmetric(values: Sequence) -> list:
    """e_0..e_m of the m values by the stable one-pass recurrence."""
    e = _empty_sigmas(len(values))
    for i, v in enumerate(values):
        _add_value(e, v, i + 1)
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


def diagonal_restriction(f: SigmaKPolynomial) -> Poly:
    """The univariate restriction to the diagonal: x^n - sum c_k C(n,k) x^k."""
    coeffs = [-f.c[k] * comb0(f.n, k) for k in range(f.n)]
    coeffs.append(Fraction(1))
    return Poly(coeffs)


class StabilityVerdict(enum.Enum):
    STRICTLY_STABLE = "strictly-stable-convex"
    STABLE = "stable"
    NOT_STABLE = "not-stable"


class StabilityReport(NamedTuple):
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


class MembershipReport(NamedTuple):
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
    """Whether every coordinate is an int or a Fraction.

    A bool, a coordinate that is not a ``numbers.Real`` and a non-finite
    float raise ``InvalidPoint``; the check costs no pass of its own.
    """
    exact = True
    for i, v in enumerate(point):
        if isinstance(v, (int, Fraction)):
            if not isinstance(v, bool):
                continue
        # a float is a numbers.Real; testing it first skips the slower ABC check
        elif (isinstance(v, float) or isinstance(v, numbers.Real)) and math.isfinite(v):
            exact = False
            continue
        raise InvalidPoint(f"coordinate {i} is {v!r:.40}, not a finite real number")
    return exact


def _kept_subset_values(coords: list, c: Sequence, level: int) -> list:
    """Restriction values at every kept subset of ``n - level`` coordinates.

    The subsets come in lexicographic order of their indices.  Subsets that
    share a prefix of indices share its symmetric functions, and each subset
    adds its values in ascending index order, as ``evaluate`` does.
    """
    m = len(coords) - level
    out = []

    def extend(e, start, depth):
        # leave room for the m - depth - 1 indices still to pick
        for i in range(start, level + depth + 1):
            grown = e.copy()
            _add_value(grown, coords[i], depth + 1)
            if depth + 1 < m:
                extend(grown, i + 1, depth + 1)
            else:
                out.append(_restriction_value(grown, c, level))

    extend(_empty_sigmas(m), 0, 0)
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
    sharing the symmetric functions of common index prefixes.  Every value
    comes from the one recurrence of ``elementary_symmetric``.  ``margin``
    widens every strict inequality to ``> margin`` (defaults to 0 exactly,
    1e-9 for a float point).  A float point whose coordinates, coefficients
    or values leave the float range is decided in exact arithmetic, with
    the same margin.
    """
    report = certify_stable(f)
    if not report.is_stable:
        raise NotStableEquation("membership is only defined for stable equations")
    if len(point) != f.n:
        raise DimensionMismatch(f"point has {len(point)} coordinates, equation has {f.n}")
    exact = _is_exact_point(point)
    if margin is None:
        margin = Fraction(0) if exact else FLOAT_MARGIN
    if not exact:
        try:
            # a Fraction times a float is computed as the float of the Fraction times it
            coords = [float(v) for v in point]
            c = [float(v) for v in f.c]
            return _scan_levels(f, coords, c, exhaustive, margin, 10 * float(margin))
        except OverflowError:
            pass
    return _scan_levels(f, [Fraction(v) for v in point], f.c, exhaustive, margin, None)


def _scan_levels(
    f: SigmaKPolynomial, coords: list, c: Sequence, exhaustive: bool, margin, near
) -> MembershipReport:
    """``cone_membership`` in the arithmetic of ``coords`` and ``c``.

    ``near`` is the float bound that forces the exhaustive scan, None in
    exact arithmetic; a float value that is not finite raises
    ``OverflowError``.
    """
    n = f.n
    order = sorted(range(n), key=lambda i: coords[i])
    ascending = [coords[i] for i in order]
    running = _empty_sigmas(n)

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
            value = _restriction_value(running, c, level)
            worst = tuple(sorted(order[m:]))
            if exhaustive or (near is not None and abs(value) <= near):
                # dropped sets in lexicographic order are the complements of
                # the kept sets in reverse lexicographic order
                kept_values = _kept_subset_values(coords, c, level)
                for dropped, v in zip(combinations(range(n), level), reversed(kept_values)):
                    if near is not None and not math.isfinite(v):
                        raise OverflowError("a subset value left the float range")
                    if v < value:
                        value = v
                        worst = dropped
        if near is not None and not math.isfinite(value):
            raise OverflowError("a level value left the float range")
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


class DominanceReport(NamedTuple):
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


def _dyadic(u: float, bits: int = 24) -> Fraction:
    return Fraction(round(u * (1 << bits)), 1 << bits)


def sample_region(
    f: SigmaKPolynomial,
    count: int,
    seed: int,
    *,
    mode: str = "exact",
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
    budget = _RETRY_FACTOR * (count + 1)
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
