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
built.  Every point is read exactly, a float as the dyadic rational it is,
and the pass runs on integers: scaled by the common denominators of the
coordinates and of the coefficients, every level value is an integer with
the sign of the exact value.  The exhaustive scan evaluates every subset of
a level in ``Fraction``, sharing the symmetric functions of common index
prefixes; it is the plain reference beside the integer pass.  Sampled draws
and midpoints are decided on integers too: ``sample_region`` builds every
draw on one integer grid and the midpoint test sums integer ratios, and
both read only the signs of the integer pass's level values.
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
from .rationals import comb0, on_common_denominator
from .realroots import Order, compare
from .rootchain import ChainCertificate, ChainVerdict, certify_right

# draws ``sample_region`` may take per requested point, and once more, before it gives up
_RETRY_FACTOR = 40


class SigmaKPolynomial(Value):
    """Degree n and coefficients c_0..c_{n-1} of a general inverse sigma_k equation.

    Immutable, equal and hashed by value, the hash taken once: ``certify_stable`` caches on it.
    ``_b`` and ``_cs`` keep the coefficients on their common denominator
    ``B`` (``C_k = B * c_k``) for the integer level scan; like the hash
    they stay out of ``_fields``.
    """

    __slots__ = ("n", "c", "_hash", "_b", "_cs")

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
        object.__setattr__(self, "_hash", hash((n, c)))
        cs, b = on_common_denominator([v.as_integer_ratio() for v in c])
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_cs", tuple(cs))

    def _fields(self) -> tuple:
        return self.n, self.c

    def __hash__(self):
        return self._hash


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


def _read_point(point: Sequence) -> list:
    """Every coordinate's exact ``as_integer_ratio()``, of ``float(v)`` for another ``numbers.Real``.

    A bool, a coordinate that is not a ``numbers.Real`` and a non-finite
    float raise ``InvalidPoint``.
    """
    ratios = []
    for i, v in enumerate(point):
        # floats, ints and Fractions pass these tests at once; only another type meets the ABC test
        if isinstance(v, float):
            x = v
        elif isinstance(v, (int, Fraction)):
            if not isinstance(v, bool):
                ratios.append(v.as_integer_ratio())
                continue
            x = math.nan  # refused below
        else:
            x = float(v) if isinstance(v, numbers.Real) else math.nan
        if not math.isfinite(x):
            raise InvalidPoint(f"coordinate {i} is {v!r:.40}, not a finite real number")
        ratios.append(x.as_integer_ratio())
    return ratios


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
    margin=0,
) -> MembershipReport:
    """Locate the deepest nested cone containing the point.

    The point is read exactly, a float as ``Fraction(v)``, and so is
    ``margin``, which widens every strict inequality to ``> margin``.
    Checks run from the top level down, in one ascending pass over the
    sorted coordinates: level ``l`` needs the symmetric functions of the
    ``n - l`` smallest, so one running vector gains one coordinate per
    level, on integers (``_scan_levels``).  The exhaustive scan also
    minimises over every subset in plain ``Fraction`` arithmetic.
    """
    report = certify_stable(f)
    if not report.is_stable:
        raise NotStableEquation("membership is only defined for stable equations")
    if len(point) != f.n:
        raise DimensionMismatch(f"point has {len(point)} coordinates, equation has {f.n}")
    n = f.n
    ratios = _read_point(point)
    xs, d = on_common_denominator(ratios)
    margin = Fraction(margin)
    order = sorted(range(n), key=xs.__getitem__)
    coords = [Fraction(p, q) for p, q in ratios] if exhaustive else None

    level_values = []
    failing_level = None
    failing_subset = None
    scan = _scan_levels(f, [xs[i] for i in order], d)
    for level, (v, scale) in zip(range(n - 1, -1, -1), scan):
        value = Fraction(v, scale)
        worst = None  # the dropped subset of the minimum, when it is not the fast one
        if exhaustive and level:
            # dropped sets in lexicographic order are the complements of
            # the kept sets in reverse lexicographic order
            kept_values = _kept_subset_values(coords, f.c, level)
            for dropped, kept in zip(combinations(range(n), level), reversed(kept_values)):
                if kept < value:
                    value = kept
                    worst = dropped
            holds = value > margin
        else:
            holds = v * margin.denominator > margin.numerator * scale
        level_values.append((level, value))
        if not holds:
            failing_level = level
            failing_subset = tuple(sorted(order[n - level:])) if worst is None else worst
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


def _scan_levels(f: SigmaKPolynomial, xs: list, d: int):
    """Each level's integer ``V`` and its scale ``B * D^m``, from level ``n - 1`` down to 0.

    ``xs`` are the coordinates ``X_i = D * x_i`` in ascending order and
    ``B``, ``C_k`` the equation's coefficients on their common denominator.
    With ``E`` the running symmetric functions of the ``m = n - l``
    smallest ``X``, ``V = B * E_m - sum_{k<m} C_{l+k} * E_k * D^(m-k)`` is
    ``B * D^m`` times the value of level ``l``, so it has that value's sign.
    """
    n, b, cs = f.n, f._b, f._cs
    running = _empty_sigmas(n)
    scale = b
    for m in range(1, n + 1):
        level = n - m
        _add_value(running, xs[m - 1], m)
        scale *= d
        lower = 0  # sum_{k<m} C_{l+k} * E_k * D^(m-k), by Horner in D
        for k in range(m):
            lower = (lower + cs[level + k] * running[k]) * d
        yield b * running[m] - lower, scale


def _in_component(f: SigmaKPolynomial, xs: list, d: int) -> bool:
    """Whether the point ``X_i / D`` lies in the stable component: every level value is positive."""
    for v, _ in _scan_levels(f, sorted(xs), d):
        if v <= 0:
            return False
    return True


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


# draws are rounded to this many bits before they scale the spread
_DRAW_BITS = 24


def _check_count(name: str, value) -> None:
    """``ValueError`` that names the argument ``name`` unless ``value`` is a non-negative ``int``.

    A bool is not one.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r:.40}")


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
    ``count`` must be a non-negative ``int``, not a bool (``ValueError``).
    Every draw lies on one integer grid ``X_i / D``: base and jitter are
    24-bit dyadic multiples of the spread above the bracket end ``x0_hi``,
    so ``D = lcm(den(x0_hi), den(spread) * 2^24)``.  An exact draw is
    decided on its integers, a float draw on the integers of the floats
    ``X_i / D``, and only an accepted draw becomes a tuple.
    """
    report = certify_stable(f)
    if not report.is_strict:
        raise NotStableEquation("sampling needs a strictly stable equation")
    _check_count("count", count)
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if count == 0:
        return []
    x0_hi = report.certificate.x0_bracket[1]
    spread = x0_hi + 1 if x0_hi + 1 > 0 else Fraction(1)
    draw_step = (spread.numerator, spread.denominator << _DRAW_BITS)
    (low, step), d = on_common_denominator([x0_hi.as_integer_ratio(), draw_step])
    unit = float(1 << _DRAW_BITS)
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
        base = low + round(rng.random() * unit) * step
        xs = [base + round(rng.random() * unit) * step for _ in range(f.n)]
        if mode == "float":
            point = tuple(x / d for x in xs)
            if _in_component(f, *on_common_denominator([v.as_integer_ratio() for v in point])):
                out.append(point)
        elif _in_component(f, xs, d):
            out.append(tuple(Fraction(x, d) for x in xs))
    return out
