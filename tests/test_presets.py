import math
import random
from fractions import Fraction as F

import pytest

from sigmak.equations import (
    SigmaKPolynomial,
    StabilityVerdict,
    certify_stable,
    diagonal_restriction,
    evaluate,
)
from sigmak.errors import (
    DegreeOutOfRange,
    HypothesisViolated,
    NonPositiveConstant,
    PhaseOutOfRange,
    PrecisionOutOfRange,
)
from sigmak.presets import (
    dhym,
    hessian_type,
    j_equation,
    monge_ampere,
    nonneg_coeff,
    parse_phase,
    sign_of_pi_combination,
)
from sigmak.realroots import approx, from_rational, compare, Order

from _oracles import TopCoefficientNotZero, _raw_mpf_to_fraction, certify_left, closed_form_criterion
from _paper import translate


class TestMongeAmpere:
    def test_chain(self):
        f = monge_ampere(3, 1)
        report = certify_stable(f)
        assert report.verdict is StabilityVerdict.STRICTLY_STABLE
        assert [approx(a, 3) for a in report.certificate.chain] == [
            "1.000",
            "0.000",
            "0.000",
        ]

    def test_top_root_is_sqrt_c0(self):
        f = monge_ampere(2, 4)
        top = certify_stable(f).certificate.chain[0]
        assert compare(top, from_rational(2)) is Order.EQUAL

    def test_zero_rejected(self):
        with pytest.raises(NonPositiveConstant):
            monge_ampere(3, 0)


class TestJEquation:
    def test_degree_two(self):
        chain = certify_stable(j_equation(2, 1)).certificate.chain
        assert [approx(a, 3) for a in chain] == ["2.000", "1.000"]

    def test_degree_three(self):
        report = certify_stable(j_equation(3, 1))
        assert report.verdict is StabilityVerdict.STRICTLY_STABLE
        assert [approx(a, 3) for a in report.certificate.chain] == ["3.000", "2.000", "1.000"]

    def test_top_root_scales(self):
        rng = random.Random(61)
        for _ in range(5):
            n = rng.randint(2, 5)
            c = F(rng.randint(1, 9), rng.randint(1, 3))
            top = certify_stable(j_equation(n, c)).certificate.chain[0]
            assert compare(top, from_rational(n * c)) is Order.EQUAL

    def test_zero_rejected(self):
        with pytest.raises(NonPositiveConstant):
            j_equation(2, 0)


class TestNonneg:
    def test_basic_instance(self):
        result = nonneg_coeff(3, [1, 0], 0)
        assert result.hypothesis_ok
        assert certify_stable(result.equation).verdict is StabilityVerdict.STRICTLY_STABLE

    def test_signed_top_instance(self):
        result = nonneg_coeff(4, [1, 2, 3], -5)
        assert certify_stable(result.equation).verdict is StabilityVerdict.STRICTLY_STABLE

    def test_zero_sum_rejected(self):
        with pytest.raises(HypothesisViolated):
            nonneg_coeff(3, [0, 0], 0)

    def test_negative_rejected(self):
        with pytest.raises(HypothesisViolated):
            nonneg_coeff(3, [1, -1], 0)

    def test_always_strictly_stable(self):
        rng = random.Random(62)
        for _ in range(40):
            n = rng.randint(2, 6)
            c = [F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n - 1)]
            if sum(c) == 0:
                c[0] = F(1)
            c_top = F(rng.randint(-6, 6), rng.randint(1, 3))
            result = nonneg_coeff(n, c, c_top)
            assert certify_stable(result.equation).verdict is StabilityVerdict.STRICTLY_STABLE

    def test_hessian_type_single_term(self):
        f = hessian_type(4, 1, F(3))
        assert f.c == (F(0), F(3), F(0), F(0))
        assert certify_stable(f).verdict is StabilityVerdict.STRICTLY_STABLE


class TestPhaseParsing:
    def test_forms(self):
        assert parse_phase("3/4pi") == (F(3, 4), F(0))
        assert parse_phase("pi") == (F(1), F(0))
        assert parse_phase("-1/2pi") == (F(-1, 2), F(0))
        assert parse_phase("0.75pi+1/10") == (F(3, 4), F(1, 10))
        assert parse_phase("2/3") == (F(0), F(2, 3))

    def test_pi_sign(self):
        assert sign_of_pi_combination(F(1), F(-3)) == 1
        assert sign_of_pi_combination(F(-1), F(3)) == -1
        assert sign_of_pi_combination(F(0), F(0)) == 0
        # pi/7 = 0.44879...; both sides of that value resolve correctly
        assert sign_of_pi_combination(F(1, 7), F(-44, 100)) == 1
        assert sign_of_pi_combination(F(1, 7), F(-45, 100)) == -1
        # the convergents 355/113 and 103993/33102 of pi lie on either side of it
        assert sign_of_pi_combination(F(113), F(-355)) == -1
        assert sign_of_pi_combination(F(33102), F(-103993)) == 1


class TestDhym:
    def test_right_angle(self):
        result = dhym(2, F(1, 2))
        assert result.equation.c == (F(1), F(0))
        assert abs(result.expected_chain[0] - 1.0) < 1e-12

    def test_two_thirds_identity(self):
        result = dhym(2, F(2, 3))
        s3 = math.sqrt(3)
        assert abs(evaluate(result.equation, [s3, s3])) < 1e-12

    def test_three_quarters_chain(self):
        result = dhym(3, F(3, 4))
        expected = [1.0, math.tan(math.pi / 8), -1.0]
        for got, want in zip(result.expected_chain, expected):
            assert abs(got - want) < 1e-12
        report = certify_stable(result.equation)
        assert report.verdict is StabilityVerdict.STRICTLY_STABLE
        for alg, want in zip(report.certificate.chain, expected):
            assert abs(float(alg) - want) < 1e-12

    def test_chain_matches_phase_formula(self):
        rng = random.Random(63)
        for n in (2, 3, 4, 5):
            for _ in range(4):
                num = rng.randint(1, 39)
                q = F(n - 2, 2) + F(num, 40)
                result = dhym(n, q, F(0), 15)
                report = certify_stable(result.equation)
                assert report.is_strict
                for alg, want in zip(report.certificate.chain, result.expected_chain):
                    assert abs(float(alg) - want) < 1e-9

    def test_chain_strictly_decreasing(self):
        rng = random.Random(64)
        for n in (2, 3, 4, 5):
            q = F(n - 2, 2) + F(rng.randint(1, 19), 20)
            chain = dhym(n, q).expected_chain
            assert all(a > b for a, b in zip(chain, chain[1:]))

    def test_mirror_phase_left_certified(self):
        for n in (2, 3, 4):
            result = dhym(n, -F(n - 1, 2))
            assert result.branch == "mirror"
            assert certify_left(diagonal_restriction(result.equation)).succeeded

    def test_out_of_range(self):
        with pytest.raises(PhaseOutOfRange):
            dhym(3, F(1, 8))

    def test_razor_thin_branch_membership(self):
        inside = dhym(3, F(3, 2) - F(1, 10**12))
        assert inside.branch == "supercritical"
        with pytest.raises(PhaseOutOfRange):
            dhym(3, F(1, 2))  # exactly on the open lower endpoint

    def test_degenerate_phase(self):
        # sin(n pi/2 - theta) vanishes only at phases outside both branches
        with pytest.raises(PhaseOutOfRange):
            dhym(2, F(0))

    def test_precision_validated(self):
        for bad in (-1, -20, 2.0, F(3), "15", None, True, False):
            with pytest.raises(PrecisionOutOfRange):
                dhym(3, F(3, 4), precision=bad)
        assert dhym(3, F(3, 4), precision=0).equation.c == (F(1), F(1), F(-1))


def _mpmath_reference(n, q, r, digits):
    """Coefficients and chain of the phase equation from mpmath's sin and tan.

    Shares no code with the enclosures of ``sigmak.presets``.  Each angle is
    formed in mpmath with 40 guard digits plus twice the offset's digits,
    which covers the cancellation next to a branch end; each coefficient is
    rounded half to even and each chain value to the nearest double.
    """
    import mpmath

    unit = 10**digits
    with mpmath.workdps(digits + 40 + 2 * len(str(r.denominator))):

        def angle(a, b):  # a pi + b
            return mpmath.pi * a.numerator / a.denominator + mpmath.mpf(b.numerator) / b.denominator

        denominator = mpmath.sin(angle(F(n, 2) - q, -r))
        coeffs = tuple(
            F(int(mpmath.nint(mpmath.sin(angle(q - F(k, 2), r)) / denominator * unit)), unit)
            for k in range(n)
        )
        chain = tuple(
            float(_raw_mpf_to_fraction(mpmath.tan(angle((q - F(k, 2)) / (n - k), r / (n - k)))._mpf_))
            for k in range(n)
        )
    return coeffs, chain


class TestDhymReference:
    """The phase equation against mpmath, which the test extra installs."""

    def test_seeded_phases(self):
        rng = random.Random(67)
        for n in range(1, 13):
            for side in (1, -1):
                # offsets below pi/200, so the phase stays inside the branch
                for offset in (F(0), F(rng.randint(-10**6, 10**6), 10 ** rng.randint(9, 36))):
                    q = side * (F(n - 2, 2) + F(rng.randint(1, 199), 200))
                    for digits in (0, 6, 15, 40, 100):
                        result = dhym(n, q, side * offset, digits)
                        want = _mpmath_reference(n, q, side * offset, digits)
                        assert (result.equation.c, result.expected_chain) == want, (n, q, digits)
                        assert result.branch == ("mirror" if side < 0 < n - 1 else "supercritical")

    @pytest.mark.parametrize("e", [20, 40, 49])
    @pytest.mark.parametrize("digits", [15, 40])
    def test_offset_below_three_halves_pi(self, e, digits):
        # at theta = 3pi/2 - eps, c_1 = 1 exactly and c_0 = -cot(eps), about -10^e:
        # the phase must be resolved to about 2e + digits digits
        import mpmath

        result = dhym(3, F(3, 2), -F(1, 10**e), digits)
        with mpmath.workdps(2 * e + digits + 40):
            c0 = mpmath.nint(-mpmath.cot(mpmath.mpf(1) / 10**e) * 10**digits)
        assert result.equation.c[1] == 1
        assert result.equation.c[0] == F(int(c0), 10**digits)
        assert result.equation.c == _mpmath_reference(3, F(3, 2), -F(1, 10**e), digits)[0]

    def test_offset_past_the_precision_cap(self):
        # the coefficients are about 10^30000: no enclosure up to 20000 digits resolves them
        with pytest.raises(PhaseOutOfRange):
            dhym(3, F(3, 2), -F(1, 10**30000))


class TestClosedForm:
    def test_degree3_examples(self):
        assert closed_form_criterion(
            SigmaKPolynomial(3, (F(0), F(1), F(0)))
        ) is StabilityVerdict.STRICTLY_STABLE
        assert closed_form_criterion(
            SigmaKPolynomial(3, (F(-2), F(1), F(0)))
        ) is StabilityVerdict.STABLE
        assert closed_form_criterion(
            SigmaKPolynomial(3, (F(0), F(-1), F(0)))
        ) is StabilityVerdict.NOT_STABLE

    def test_degree4_cos_branch_example(self):
        f = SigmaKPolynomial(4, (F(0), F(1), F(1), F(0)))
        verdict = closed_form_criterion(f)
        assert verdict is StabilityVerdict.STRICTLY_STABLE
        assert verdict is certify_stable(f).verdict

    def test_degree2(self):
        assert closed_form_criterion(
            SigmaKPolynomial(2, (F(3), F(0)))
        ) is StabilityVerdict.STRICTLY_STABLE
        assert closed_form_criterion(
            SigmaKPolynomial(2, (F(0), F(0)))
        ) is StabilityVerdict.STABLE
        assert closed_form_criterion(
            SigmaKPolynomial(2, (F(-1), F(0)))
        ) is StabilityVerdict.NOT_STABLE

    def test_degree4_boundary_case(self):
        # c2 = 1, c1 = -2 puts x1 = 1 (double root of the cubic); picking c0
        # so the last level lands exactly on the boundary gives the non-strict verdict
        c2, c1 = F(1), F(-2)
        x1 = F(1)
        c0 = -3 * c2 * x1**2 - 3 * c1 * x1
        f = SigmaKPolynomial(4, (c0, c1, c2, F(0)))
        assert closed_form_criterion(f) is StabilityVerdict.STABLE
        assert certify_stable(f).verdict is StabilityVerdict.STABLE

    def test_degree4_irrational_boundary(self):
        # c2 = 2/3, c1 = 0: x1 = sqrt(2), where the criterion 2 x^2 - 4 + (c0 + 4)
        # vanishes exactly for c0 = -4; only the gcd zero test can see that
        for delta, verdict in ((F(0), StabilityVerdict.STABLE),
                               (F(1, 10**30), StabilityVerdict.STRICTLY_STABLE),
                               (-F(1, 10**30), StabilityVerdict.NOT_STABLE)):
            f = SigmaKPolynomial(4, (F(-4) + delta, F(0), F(2, 3), F(0)))
            assert closed_form_criterion(f) is verdict
            assert certify_stable(f).verdict is verdict

    def test_guards(self):
        with pytest.raises(DegreeOutOfRange):
            closed_form_criterion(SigmaKPolynomial(5, (F(0),) * 5))
        with pytest.raises(TopCoefficientNotZero):
            closed_form_criterion(SigmaKPolynomial(3, (F(0), F(0), F(1))))

    def test_agreement_with_certifier(self):
        rng = random.Random(65)
        for n, trials in ((3, 120), (4, 120)):
            done = 0
            while done < trials:
                c = [F(rng.randint(-1000, 1000), 100) for _ in range(n - 1)] + [F(0)]
                f = SigmaKPolynomial(n, tuple(c))
                if _near_criterion_boundary(n, c):
                    continue
                assert closed_form_criterion(f) is certify_stable(f).verdict
                done += 1

    def test_boundary_offsets_agree_with_certifier(self):
        # rational boundary: c2=1, c1=-2 puts x1=1 and the last-level boundary at c0=3
        for exponent in (3, 15, 30):
            for side in (1, -1):
                c0 = F(3) + side * F(1, 10**exponent)
                f = SigmaKPolynomial(4, (c0, F(-2), F(1), F(0)))
                assert closed_form_criterion(f) is certify_stable(f).verdict

    def test_irrational_boundary_escalation(self):
        # c2=2, c1=1 gives an irrational x1; approach its boundary value to 1e-e
        # (at e = 100 the first certified bracket is too wide and is bisected)
        import mpmath

        for e in (25, 100):
            with mpmath.workdps(e + 35):
                arg = 1 / (2 * mpmath.mpf(2) ** 1.5)
                x1 = 2 * mpmath.sqrt(2) * mpmath.cos(mpmath.acos(arg) / 3)
                near = -3 * 2 * x1**2 - 3 * x1
                c0_near = F(int(near * 10**e), 10**e)
            for delta in (F(0), F(1, 10**e), -F(1, 10**e)):
                f = SigmaKPolynomial(4, (c0_near + delta, F(1), F(2), F(0)))
                assert closed_form_criterion(f) is certify_stable(f).verdict

    def test_near_double_root_of_the_cubic(self):
        # c1 = -2 + 10^-e splits the cubic's double root at 1 by about
        # 10^(-e/2); the branch formula loses about e/2 digits there
        for e in (25, 60, 300):
            for c0 in (F(5), F(3), F(3) + F(1, 10 ** (e // 2 + 5))):
                f = SigmaKPolynomial(4, (c0, F(-2) + F(1, 10**e), F(1), F(0)))
                assert closed_form_criterion(f) is StabilityVerdict.STRICTLY_STABLE
                if e < 100:
                    assert certify_stable(f).verdict is StabilityVerdict.STRICTLY_STABLE

    def test_value_below_every_precision_tried(self):
        # roots of the cubic 10^-1200 apart put the criterion value near
        # 4 * 10^-2400: no bracket up to 2560 digits makes interval Horner
        # separate it, but the exact answer exists
        c1 = F(-2) + F(1, 10**2400)
        for c0 in (F(3), F(3) + F(1, 10**1205)):
            f = SigmaKPolynomial(4, (c0, c1, F(1), F(0)))
            assert closed_form_criterion(f) is certify_stable(f).verdict

    def test_translate_then_closed_form(self):
        rng = random.Random(66)
        for _ in range(25):
            c = [F(rng.randint(-300, 300), 100) for _ in range(4)]
            f = SigmaKPolynomial(4, tuple(c))
            g, _ = translate(f)
            if _near_criterion_boundary(4, list(g.c)):
                continue
            assert closed_form_criterion(g) is certify_stable(f).verdict


def _near_criterion_boundary(n, c, tol=1e-6):
    c0, c1 = float(c[0]), float(c[1])
    if n == 3:
        if abs(c1) < tol:
            return True
        if c1 >= 0 and abs(c0 + 2 * c1**1.5) < tol:
            return True
        return False
    c2 = float(c[2])
    if abs(c2) < tol:
        return True
    if c2 >= 0 and abs(c1 + 2 * c2**1.5) < tol:
        return True
    if c2 >= 0 and c1 >= -2 * c2**1.5:
        if c2 == 0:
            x1 = c1 ** (1 / 3)
        else:
            disc = 4 * c2**3 - c1**2
            arg = c1 / (2 * c2**1.5)
            if disc >= 0:
                x1 = 2 * math.sqrt(c2) * math.cos(math.acos(max(-1, min(1, arg))) / 3)
            else:
                x1 = 2 * math.sqrt(c2) * math.cosh(math.acosh(max(1, arg)) / 3)
        if abs(c0 + 3 * c2 * x1**2 + 3 * c1 * x1) < tol:
            return True
    return False
