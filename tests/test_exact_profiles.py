"""The exact ratio profiles behind ``alpha`` and ``deform``, and their one rounding.

The shared evaluator ``analysis._ratio`` is checked against the single-point
``analysis.alpha`` at every grid point, and the one formatter against
Python's own ``.12g`` on doubles, whose exact values it rounds.
"""

import math
import random
import struct
from fractions import Fraction as F

import pytest

from sigmak.analysis import (
    _default_grid,
    _ratio,
    alpha,
    alpha_profile,
    deformation,
    deformation_family,
)
from sigmak.equations import diagonal_restriction
from sigmak.errors import EmptySampleRange
from sigmak.poly import Poly, cauchy_root_bound
from sigmak.rationals import format_significant
from sigmak.rootchain import certify_right

from _oracles import corpus_equations

EX11_RESTRICTION = Poly([20, -45, 640, -190, 0, 1])
FIG2_QUARTIC = Poly([1275, -260, -24, 0, 1])
FIG2_Y_GRID = [F(9, 4) + F(1, 4) * i for i in range(12)]


def grid(lo, hi, count):
    return [lo + (hi - lo) * F(i, count - 1) for i in range(count)]


def assert_matches_alpha(p, xs):
    ratio = _ratio(p)
    for x in xs:
        assert ratio(x) == alpha(p, x).alpha, (p, x)


class TestEvaluatorAgainstAlpha:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_corpus_d4_to_d32(self, seed):
        for f in corpus_equations(seed, (4, 8, 16, 32)):
            p = diagonal_restriction(f)
            bound = cauchy_root_bound(p)
            assert_matches_alpha(p, grid(-bound, 2 * bound, 25))

    @pytest.mark.parametrize(
        "coeffs",
        [[3, 2], [F(-1, 2), 7], [-6, 1, 1], [0, 0, 1], [1, 0, 1], [F(1, 3), -5, F(7, 2)]],
        ids=["linear", "linear-fraction", "quadratic", "square", "no-real-root", "fractions"],
    )
    def test_degrees_one_and_two(self, coeffs):
        assert_matches_alpha(Poly(coeffs), grid(F(-3), F(3), 13) + [F(1, 7), F(-22, 7)])

    @pytest.mark.parametrize(
        "coeffs, x, value",
        [
            ([-1, 0, 0, 1], 0, None),  # x^3 - 1: the one-sided limits disagree
            ([2, -3, 0, 1], 1, F(1, 2)),  # (x - 1)^2 (x + 2) at its double root
            ([2, -3, 0, 1], -1, -math.inf),  # the same cubic where only p' vanishes
            ([1, 0, 0, 1], 0, None),  # x^3 + 1: a double root of p'
            ([0, 0, 0, 1], 0, F(2, 3)),  # x^3: a double root of p' at a root of p
            ([1, 0, 1], 0, math.inf),
            ([7], 2, 0),  # constant: zero by definition
        ],
    )
    def test_rational_critical_points(self, coeffs, x, value):
        p = Poly(coeffs)
        assert _ratio(p)(F(x)) == alpha(p, F(x)).alpha
        assert _ratio(p)(F(x)) == value
        assert_matches_alpha(p, grid(F(-2), F(2), 9))

    def test_profile_rows(self):
        rows = alpha_profile(EX11_RESTRICTION, F(117, 10), 18, 64)
        assert [x for x, _ in rows] == grid(F(117, 10), F(18), 64)
        assert all(v == alpha(EX11_RESTRICTION, x).alpha for x, v in rows)

    def test_single_sample_is_lo(self):
        want = [(F(1, 3), alpha(FIG2_QUARTIC, F(1, 3)).alpha)]
        assert alpha_profile(FIG2_QUARTIC, F(1, 3), 1, 1) == want


def descent_one_sample_at_a_time(p, ys, x_count, x_max):
    """``(comparisons, min_margin, all_positive)`` from ``alpha`` evaluated afresh per sample."""
    cert = certify_right(p)
    curves = [deformation(cert, y) for y in ys]
    margins = []
    for y_b, a, b in zip(ys[1:], curves, curves[1:]):
        lo = y_b + F(1, 100)
        if lo < x_max:
            for i in range(1, x_count + 1):
                x = lo + (x_max - lo) * F(i, x_count)
                margins.append(alpha(a, x).alpha - alpha(b, x).alpha)
    low = min(margins, default=None)
    return len(margins), low, low is not None and low > 0


class TestDeformationExact:
    @pytest.mark.parametrize(
        "p, ys, x_count, x_max",
        [
            (FIG2_QUARTIC, FIG2_Y_GRID, 40, F(42, 5)),
            (EX11_RESTRICTION, None, 64, None),
            # top roots -10 and -1: the default x_max still lies above every curve
            (Poly([1320, 362, 33, 1]), None, 8, None),
            (Poly([24, 50, 35, 10, 1]), None, 8, None),
        ],
        ids=["fig2-quartic", "ex11-default-grid", "roots-10-to-12", "roots-1-to-4"],
    )
    def test_descent_unchanged(self, p, ys, x_count, x_max):
        # None takes the default grid and x_max, here and in the oracle's arguments
        cert = certify_right(p)
        _, report = deformation_family(cert, ys, x_count, x_count, x_max)
        ys = _default_grid(cert) if ys is None else ys
        hi = cert.x0_bracket[1]
        x_max = hi + F(7, 10) * abs(hi) + 1 if x_max is None else x_max
        got = (report.comparisons, report.min_margin, report.all_positive)
        assert got == descent_one_sample_at_a_time(p, ys, x_count, x_max)
        assert report.comparisons == 11 * x_count and report.all_positive

    def test_profile_rows(self):
        cert = certify_right(FIG2_QUARTIC)
        rows, _ = deformation_family(cert, FIG2_Y_GRID[:3], 9, 9, F(42, 5))
        want = []
        for y in FIG2_Y_GRID[:3]:
            q = deformation(cert, y)
            want += [(x, y, alpha(q, x).alpha) for x in grid(y + F(1, 100), F(42, 5), 9)]
        assert rows == want

    @pytest.mark.parametrize("x_max", [F(0), FIG2_Y_GRID[-1] + F(1, 100)])
    def test_x_max_at_or_below_the_top_curve(self, x_max):
        with pytest.raises(EmptySampleRange):
            deformation_family(certify_right(FIG2_QUARTIC), FIG2_Y_GRID, 2, 2, x_max)


def random_doubles(count):
    rng = random.Random(20)
    out = [0.5, 0.125, 2.5, 1e-5, 1e-4, 9.9999999999995e-5, 999999999999.5, 1e16, 5e-324]
    while len(out) < count:
        v = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(v):
            out.append(v)
            out.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 14))
    return out


class TestFormatSignificant:
    def test_exact_value_of_a_double_prints_as_python_prints_it(self):
        for v in random_doubles(20000):
            assert format_significant(F(v)) == f"{v:.12g}", v

    def test_ties_round_half_even(self):
        ties = ["0.1234567890125", "0.1234567890135", "-1234567890125", "9999999999995"]
        ties.append("-0.0001234567890125")
        assert [format_significant(F(v)) for v in ties] == [
            "0.123456789012",
            "0.123456789014",
            "-1.23456789012e+12",
            "1e+13",
            "-0.000123456789012",
        ]
        assert format_significant(F(1, 3)) == "0.333333333333"
        assert format_significant(F(2, 3)) == "0.666666666667"

    def test_beyond_the_float_range(self):
        assert format_significant(F(10) ** 5000 + 1) == "1e+5000"
        assert format_significant(-F(7, 10**5000)) == "-7e-5000"
        assert format_significant(F(2, 3) * F(10) ** -400) == "6.66666666667e-401"

    def test_limits_and_undefined(self):
        assert format_significant(math.inf) == "inf"
        assert format_significant(-math.inf) == "-inf"
        assert format_significant(None) is None
        assert format_significant(0) == "0"
