import math
import random
from fractions import Fraction as F

import pytest

from sigmak.analysis import (
    Regime,
    alpha,
    alpha_profile,
    deformation,
    deformation_family,
)
from sigmak.equations import (
    SigmaKPolynomial,
    certify_stable,
)
from sigmak.errors import DegenerateWindow, DegreeTooLow, NotCertified, OutOfDeformationRange
from sigmak.poly import Poly, derivative, evaluate as eval_poly
from sigmak.realroots import refine
from sigmak.rootchain import certify_right

from _oracles import TopCoefficientNotZero, multiplicity_at_largest_root
from _paper import (
    CriticalPoint,
    DenominatorNotPositive,
    NotOnLevelSet,
    ZeroCoordinate,
    alpha_derivative,
    alpha_limit,
    alpha_product_bound,
    bordered_hessian_entries,
    diagonal_hessian_scalar,
    graph_lambda_n,
    monotonicity_scan,
    numeric_graph_hessian,
)

EXAMPLE_11 = SigmaKPolynomial(5, (F(-20), F(9), F(-64), F(19), F(0)))
FIG1_QUINTIC = Poly([20, -45, 640, -190, 0, 1])
FIG2_QUARTIC = Poly([1275, -260, -24, 0, 1])
FIG2_Y_GRID = [F(9, 4) + F(1, 4) * i for i in range(12)]


def random_strict_equation(rng, n, top_zero=True, max_tries=800):
    while max_tries:
        max_tries -= 1
        c = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        if top_zero:
            c[n - 1] = F(0)
        f = SigmaKPolynomial(n, tuple(c))
        if certify_stable(f).is_strict:
            return f
    raise AssertionError("no strict instance found")


def real_rooted_zero_trace(rng, n):
    """Monic real-rooted diagonal with vanishing top coefficient, as an equation."""
    while True:
        roots = [F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n - 1)]
        roots.append(-sum(roots))
        if len(set(roots)) != n:
            continue
        if max(roots) in roots[:-1] and roots[:-1].count(max(roots)) > 1:
            continue
        p = Poly([1])
        for r in roots:
            p = p * Poly([-r, 1])
        from sigmak.rationals import comb0

        c = tuple(-p.coeff(k) / comb0(n, k) for k in range(n))
        return SigmaKPolynomial(n, c)


class TestAlpha:
    def test_square(self):
        for x in (F(3), F(-2), F(1, 7)):
            sample = alpha(Poly([0, 0, 1]), x)
            assert sample.regime is Regime.REGULAR and sample.alpha == F(1, 2)

    def test_quintic_tends_to_four_fifths(self):
        far = alpha(FIG1_QUINTIC, F(10**5)).alpha
        assert abs(far - F(4, 5)) < F(1, 10**6)

    def test_double_root_limit(self):
        sample = alpha(FIG2_QUARTIC, F(5))
        assert sample.regime is Regime.CRITICAL_LIMIT
        assert sample.alpha == F(1, 2)  # 1 - 1/multiplicity

    def test_signed_infinity(self):
        assert alpha(Poly([1, 0, 1]), F(0)).alpha == math.inf

    def test_one_sided_disagreement_reported_as_undetermined(self):
        assert alpha(Poly([-1, 0, 0, 1]), F(0)).alpha is None

    def test_constant_is_zero_by_definition(self):
        sample = alpha(Poly([7]), F(1))
        assert sample.regime is Regime.CRITICAL_ZERO_BY_DEFINITION
        assert sample.alpha == 0

    def test_float_critical_limit(self):
        sample = alpha(Poly([0, 0, 0, 1]), 0.0)
        assert sample.regime is Regime.CRITICAL_LIMIT
        assert abs(sample.alpha - 2 / 3) < 1e-3


class TestAlphaLimit:
    def test_degree_five(self):
        report = alpha_limit(FIG1_QUINTIC)
        assert report.limit == F(4, 5)
        assert report.deviations_decreasing

    def test_degree_one(self):
        report = alpha_limit(Poly([3, 2]))
        assert report.limit == 0
        assert all(v == 0 for _, v in report.witnesses)

    def test_monic_quadratic(self):
        report = alpha_limit(Poly([-6, 1, 1]))
        assert report.limit == F(1, 2)


class TestAlphaDerivative:
    def test_square_is_constant(self):
        assert alpha_derivative(Poly([0, 0, 1]), F(5)) == 0

    def test_quintic_positive_above_x1(self):
        assert alpha_derivative(FIG1_QUINTIC, F(12)) > 0

    def test_critical_point_rejected(self):
        with pytest.raises(CriticalPoint):
            alpha_derivative(Poly([0, 0, 1]), F(0))

    def test_matches_finite_differences(self):
        rng = random.Random(51)
        checked = 0
        while checked < 20:
            p = Poly([F(rng.randint(-8, 8)) for _ in range(rng.randint(2, 5))] + [F(1)])
            x = rng.uniform(-4, 4)
            dp = derivative(p)
            if abs(eval_poly(dp, x)) < 1e-2:
                continue
            exact = alpha_derivative(p, x)
            h = 1e-6 * (1 + abs(x))
            fd = (alpha(p, x + h).alpha - alpha(p, x - h).alpha) / (2 * h)
            assert abs(exact - fd) <= 1e-4 * max(1.0, abs(exact))
            checked += 1


class TestMonotonicityScan:
    def test_fig1_quintic(self):
        report = monotonicity_scan(FIG1_QUINTIC, samples=128, span=F(100))
        assert report.increasing
        assert report.max_value < F(4, 5)
        assert report.strict_top and report.endpoint_ok

    def test_fig2_quartic_from_one_half(self):
        report = monotonicity_scan(FIG2_QUARTIC, samples=128, span=F(100))
        assert report.increasing
        assert not report.strict_top
        assert report.endpoint_ok
        assert report.max_value < F(3, 4)

    def test_explicit_quadratic(self):
        report = monotonicity_scan(Poly([-1, 0, 1]), samples=64, span=F(50))
        assert report.increasing
        assert report.values[0] < -100  # blows down near the critical point
        assert report.max_value < F(1, 2)

    def test_passes_on_certifiable_corpus(self):
        rng = random.Random(52)
        seen = 0
        while seen < 10:
            coeffs = [F(rng.randint(-9, 9)) for _ in range(rng.randint(2, 5))] + [F(1)]
            p = Poly(coeffs)
            cert = certify_right(p)
            if not cert.succeeded:
                continue
            report = monotonicity_scan(p, samples=48, span=F(40), certificate=cert)
            assert report.increasing
            seen += 1


class TestProductBound:
    def test_quintic_above_x1(self):
        assert alpha_product_bound(FIG1_QUINTIC, F(10)).holds

    def test_monomial_saturates(self):
        report = alpha_product_bound(Poly([0, 0, 0, 1]), F(1))
        assert report.holds and report.display_value == 0

    def test_example21_at_x1_upper(self):
        p = Poly([24, 10, -650, -190, 0, 1])
        cert = certify_right(p)
        x1_upper = refine(cert.chain[1], F(1, 10**6)).interval.hi
        assert alpha_product_bound(p, x1_upper).holds

    def test_strong_log_concavity_after_translation(self):
        # every derivative stays log-concave right of the top root
        rng = random.Random(53)
        seen = 0
        while seen < 8:
            coeffs = [F(rng.randint(-9, 9)) for _ in range(rng.randint(3, 5))] + [F(1)]
            p = Poly(coeffs)
            cert = certify_right(p)
            if not cert.succeeded:
                continue
            seen += 1
            x0_hi = refine(cert.chain[0], F(1, 10**6)).interval.hi
            n = int(p.degree)
            q = p
            for k in range(n - 1):
                for step in (F(1, 10), F(1), F(10), F(100)):
                    value = alpha(q, x0_hi + step).alpha
                    assert value <= 1
                q = derivative(q)


class TestDeformation:
    def test_endpoint_reproduces_polynomial(self):
        cert = certify_right(FIG2_QUARTIC)
        assert deformation(cert, F(5)) == FIG2_QUARTIC
        assert cert.top_multiplicity == 2

    def test_lower_endpoint_raises_multiplicity(self):
        q = deformation(certify_right(FIG2_QUARTIC), F(2))
        assert multiplicity_at_largest_root(q) >= 3

    def test_parameter_is_root(self):
        cert = certify_right(FIG2_QUARTIC)
        for y in (F(9, 4), F(3), F(4)):
            assert eval_poly(deformation(cert, y), y) == 0

    def test_window_enforced(self):
        cert = certify_right(FIG2_QUARTIC)
        with pytest.raises(OutOfDeformationRange):
            deformation(cert, F(1))
        with pytest.raises(OutOfDeformationRange):
            deformation(cert, F(6))

    def test_full_multiplicity_has_no_window(self):
        # x^2: the window is the single point 0, even for a parameter at it
        cert = certify_right(Poly([0, 0, 1]))
        with pytest.raises(DegenerateWindow, match="degenerate deformation window"):
            deformation(cert, 0)
        for grid in (None, [F(0)]):
            with pytest.raises(DegenerateWindow):
                deformation_family(cert, grid, 2, 2)

    def test_failed_certificate_is_refused(self):
        # x^2 + 1 has no real root, so its chain fails at level 0
        cert = certify_right(Poly([1, 0, 1]))
        assert not cert.succeeded
        with pytest.raises(NotCertified):
            deformation(cert, 0)
        for grid in (None, [F(0)], []):
            with pytest.raises(NotCertified):
                deformation_family(cert, grid, 2, 2)

    def test_simple_root_window_is_x1_to_x0(self):
        rng = random.Random(54)
        seen = 0
        while seen < 10:
            roots = sorted(F(rng.randint(-6, 6)) for _ in range(3))
            if len(set(roots)) != 3:
                continue
            p = Poly([1])
            for r in roots:
                p = p * Poly([-r, 1])
            cert = certify_right(p)
            assert cert.top_multiplicity == 1
            x1 = cert.chain[1]
            inside = (refine(x1, F(1, 100)).interval.hi + roots[2]) / 2
            deformation(cert, inside)
            with pytest.raises(OutOfDeformationRange):
                deformation(cert, roots[2] + 1)
            seen += 1


class TestDescent:
    def test_fig2_family(self):
        _, report = deformation_family(certify_right(FIG2_QUARTIC), FIG2_Y_GRID, 50, 50, F(42, 5))
        assert report.all_positive
        assert report.min_margin > 0

    def test_single_curve_vacuous(self):
        _, report = deformation_family(certify_right(FIG2_QUARTIC), [F(3)], 10, 10, F(8))
        assert report.all_positive and report.comparisons == 0

    def test_random_cubic_descent(self):
        rng = random.Random(55)
        seen = 0
        while seen < 6:
            roots = sorted(F(rng.randint(-5, 5)) for _ in range(3))
            if len(set(roots)) != 3:
                continue
            p = Poly([1])
            for r in roots:
                p = p * Poly([-r, 1])
            cert = certify_right(p)
            lo = refine(cert.chain[1], F(1, 100)).interval.hi
            hi = roots[2]
            if hi - lo < F(1, 2):
                continue
            grid = [lo + (hi - lo) * F(i, 5) for i in range(1, 6)]
            _, report = deformation_family(cert, grid, 30, 30, hi + 4)
            assert report.all_positive
            seen += 1


class TestBorderedHessian:
    def test_monge_ampere_entry(self):
        f = SigmaKPolynomial(2, (F(1), F(0)))
        report = bordered_hessian_entries(f, [F(2), F(1, 2)])
        assert report.bordered == ((F(1, 2),),)

    def test_guards(self):
        f = SigmaKPolynomial(2, (F(1), F(0)))
        with pytest.raises(NotOnLevelSet):
            bordered_hessian_entries(f, [F(2), F(2)])
        with pytest.raises(ZeroCoordinate):
            bordered_hessian_entries(SigmaKPolynomial(2, (F(0), F(0))), [F(1), F(0)])
        with pytest.raises(TopCoefficientNotZero):
            bordered_hessian_entries(SigmaKPolynomial(2, (F(1), F(1))), [F(2), F(1)])

    def test_symmetric_point_has_equal_off_diagonals(self):
        rng = random.Random(56)
        f = random_strict_equation(rng, 4)
        top = certify_stable(f).certificate.chain[0]
        t = F(round(float(top) * 10) + 20, 10)
        lam = graph_lambda_n(f, [t, t, t])
        report = bordered_hessian_entries(f, [t, t, t, lam])
        off = report.bordered[0][1]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert report.bordered[i][j] == off

    def test_matches_graph_hessian_identity(self):
        # bordered entry == (C_{0;n} / (lam_n sigma_n)) * d2 lam_n, by finite differences
        rng = random.Random(57)
        for n in (3, 4):
            f = random_strict_equation(rng, n)
            top = certify_stable(f).certificate.chain[0]
            base = [
                F(round(float(top) * 10) + 10 + 3 * i, 10) for i in range(n - 1)
            ]
            lam = graph_lambda_n(f, base)
            report = bordered_hessian_entries(f, list(base) + [lam])
            factor = report.constraint_minor / (lam * math.prod(base + [lam]))
            fbase = [float(v) for v in base]
            for i in range(n - 1):
                for j in range(n - 1):
                    hi = 1e-4 * (1 + abs(fbase[i]))
                    hj = 1e-4 * (1 + abs(fbase[j]))

                    def g(di, dj):
                        pt = list(fbase)
                        pt[i] += di
                        pt[j] += dj
                        return float(graph_lambda_n(f, pt))

                    if i == j:
                        fd = (g(hi, 0) - 2 * g(0, 0) + g(-hi, 0)) / hi**2
                    else:
                        fd = (g(hi, hj) - g(hi, -hj) - g(-hi, hj) + g(-hi, -hj)) / (
                            4 * hi * hj
                        )
                    lhs = float(report.bordered[i][j])
                    rhs = float(factor) * fd
                    assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs), abs(rhs))


class TestDiagonalScalar:
    def test_example11_exact_identity(self):
        report = diagonal_hessian_scalar(EXAMPLE_11, F(12))
        assert report.difference == 0
        assert report.direct > 0

    def test_monge_ampere_positive(self):
        f = SigmaKPolynomial(3, (F(1), F(0), F(0)))
        report = diagonal_hessian_scalar(f, F(2))
        assert report.difference == 0 and report.direct > 0

    def test_random_exact_identity(self):
        rng = random.Random(58)
        for n in (3, 4, 5):
            for _ in range(5):
                f = random_strict_equation(rng, n)
                x1 = certify_stable(f).certificate.chain[1]
                x = refine(x1, F(1, 1000)).interval.hi + F(rng.randint(1, 30), 10)
                report = diagonal_hessian_scalar(f, x)
                assert report.difference == 0

    def test_guards(self):
        with pytest.raises(DegreeTooLow):
            diagonal_hessian_scalar(SigmaKPolynomial(2, (F(1), F(0))), F(2))
        with pytest.raises(TopCoefficientNotZero):
            diagonal_hessian_scalar(SigmaKPolynomial(3, (F(1), F(0), F(1))), F(2))
        with pytest.raises(DenominatorNotPositive):
            diagonal_hessian_scalar(SigmaKPolynomial(3, (F(1), F(0), F(0))), F(0))


class TestNumericHessian:
    def test_monge_ampere_curvature(self):
        f = SigmaKPolynomial(2, (F(1), F(0)))
        report = numeric_graph_hessian(f, [2.0])
        assert abs(report.matrix[0][0] - 0.25) < 1e-6
        assert report.label == "conjecture-exploration"

    def test_example11_diagonal_positive_definite(self):
        report = numeric_graph_hessian(EXAMPLE_11, [12.0] * 4)
        assert report.min_eigenvalue > 0

    def test_step_halving_ratio(self):
        f = SigmaKPolynomial(2, (F(1), F(0)))
        exact = 0.25
        e1 = abs(numeric_graph_hessian(f, [2.0], step=2e-3).matrix[0][0] - exact)
        e2 = abs(numeric_graph_hessian(f, [2.0], step=1e-3).matrix[0][0] - exact)
        assert 2.0 < e1 / e2 < 8.0

    def test_denominator_guard(self):
        with pytest.raises(DenominatorNotPositive):
            numeric_graph_hessian(SigmaKPolynomial(2, (F(1), F(0))), [0.0])


class TestProfiles:
    def test_alpha_profile_header_shape(self):
        rows = alpha_profile(FIG1_QUINTIC, 11.7, 18.0, 16)
        assert len(rows) == 16
        assert all(v < 0.8 for _, v in rows)
        assert all(b >= a - 1e-9 for (_, a), (_, b) in zip(rows, rows[1:]))

    def test_alpha_profile_undefined_limit_is_none(self):
        # x^3 - 1 at 0.0: alpha runs to -inf from the right and +inf from the left
        rows = alpha_profile(Poly([-1, 0, 0, 1]), -1.0, 1.0, 3)
        assert rows == [(-1, F(4, 3)), (0, None), (1, 0)]

    def test_deformation_profile_rows(self):
        rows, _ = deformation_family(certify_right(FIG2_QUARTIC), [F(3), F(4)], 8, 8, F(42, 5))
        assert len(rows) == 16
        assert {y for _, y, _ in rows} == {3.0, 4.0}
