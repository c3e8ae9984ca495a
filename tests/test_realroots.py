import random
from fractions import Fraction as F

import pytest

from sigmak.analysis import deformation
from sigmak.equations import SigmaKPolynomial, StabilityVerdict, certify_stable, dominates
from sigmak.errors import ZeroPolynomial
from sigmak.poly import Poly, SturmChain, derivative, resultant
from sigmak.presets import (
    DhymSpec,
    closed_form_criterion,
    dhym,
    hessian_type,
    j_equation,
    monge_ampere,
    nonneg_coeff,
)
from sigmak.realroots import (
    AlgebraicNumber,
    IsolatingInterval,
    Order,
    approx,
    bracket,
    compare,
    from_rational,
    isolate_real_roots,
    largest_real_root,
    refine,
    rounded,
    sign_at,
)
from sigmak.rootchain import _root_above

from _oracles import distinct_real_roots

FIG1_QUINTIC = Poly([20, -45, 640, -190, 0, 1])
EX21_QUINTIC = Poly([24, 10, -650, -190, 0, 1])
FIG2_QUARTIC = Poly([1275, -260, -24, 0, 1])
EX11 = SigmaKPolynomial(5, (F(-20), F(9), F(-64), F(19), F(0)))
EX12 = SigmaKPolynomial(5, (F(-24), F(-2), F(65), F(19), F(0)))


def random_int_poly(rng, max_degree=8, span=9):
    degree = rng.randint(1, max_degree)
    coeffs = [F(rng.randint(-span, span)) for _ in range(degree)]
    coeffs.append(F(rng.choice([i for i in range(-span, span + 1) if i])))
    return Poly(coeffs)


class TestIsolation:
    def test_cube_root_of_unity(self):
        roots = isolate_real_roots(Poly([-1, 0, 0, 1]))
        assert len(roots) == 1
        assert roots[0].interval.contains(F(1))
        assert roots[0].multiplicity_in_source == 1

    def test_no_real_roots(self):
        assert isolate_real_roots(Poly([1, 0, 1])) == []

    def test_double_root_with_complex_pair(self):
        roots = isolate_real_roots(FIG2_QUARTIC)
        assert len(roots) == 1
        assert roots[0].interval.contains(F(5))
        assert roots[0].multiplicity_in_source == 2

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            isolate_real_roots(Poly())

    def test_ascending_and_disjoint(self):
        rng = random.Random(21)
        for _ in range(40):
            p = random_int_poly(rng)
            roots = isolate_real_roots(p)
            for a, b in zip(roots, roots[1:]):
                assert a.interval.hi < b.interval.lo or (
                    a.interval.hi <= b.interval.lo
                    and not (a.interval.is_point and a.interval.lo == b.interval.lo)
                )

    def test_multiset_matches_numeric_oracle(self):
        rng = random.Random(22)
        for _ in range(50):
            p = random_int_poly(rng)
            exact = [float(refine(r, F(1, 10**9)).interval.midpoint())
                     for r in isolate_real_roots(p)]
            numeric = distinct_real_roots(p.coeffs)
            assert len(exact) == len(numeric)
            for a, b in zip(exact, numeric):
                assert abs(a - b) <= 1e-6 * (1 + abs(b))


class TestLargestRoot:
    def test_fig1_derivative_chain(self):
        expected = ["11.632", "9.306", "6.909", "4.359", "0.000"]
        current = FIG1_QUINTIC
        for want in expected:
            root = largest_real_root(current)
            assert approx(root, 3) == want
            current = derivative(current)

    def test_monomial(self):
        root = largest_real_root(Poly([0, 0, 0, 1]))
        assert root.is_rational and root.rational_value == 0

    def test_sqrt19(self):
        root = largest_real_root(Poly([-1140, 0, 60]))  # third derivative level of the quintic
        assert approx(root, 4) == "4.3589"

    def test_none_when_no_real_root(self):
        assert largest_real_root(Poly([1, 0, 1])) is None


class TestRefine:
    def test_sqrt2_to_width(self):
        root = [r for r in isolate_real_roots(Poly([-2, 0, 1])) if r.interval.hi > 0][0]
        tight = refine(root, F(1, 100))
        assert tight.interval.width <= F(1, 100)
        assert tight.interval.contains(F(141421, 100000)) or (
            tight.interval.lo <= F(1414214, 1000000)
        )

    def test_point_unchanged(self):
        point = from_rational(F(3, 7))
        assert refine(point, F(1, 10**6)) is point

    def test_example21_largest_root(self):
        root = largest_real_root(EX21_QUINTIC)
        tight = refine(root, F(1, 10**4))
        assert tight.interval.width <= F(1, 10**4)
        mid = float(tight.interval.midpoint())
        assert abs(mid - 15.2503) < 1e-3

    def test_idempotent_containment(self):
        rng = random.Random(23)
        for _ in range(20):
            p = random_int_poly(rng, max_degree=5)
            for root in isolate_real_roots(p):
                once = refine(root, F(1, 10**5))
                twice = refine(once, F(1, 10**5))
                assert once.interval.lo <= twice.interval.lo
                assert twice.interval.hi <= once.interval.hi


class TestSignAt:
    def test_zero_at_own_root(self):
        sqrt2 = largest_real_root(Poly([-2, 0, 1]))
        assert sign_at(Poly([-2, 0, 1]), sqrt2) == 0

    def test_positive_at_larger_root(self):
        sqrt3 = largest_real_root(Poly([-3, 0, 1]))
        assert sign_at(Poly([-2, 0, 1]), sqrt3) == 1

    def test_quintic_negative_at_derivative_root(self):
        x1 = largest_real_root(derivative(FIG1_QUINTIC))
        assert sign_at(FIG1_QUINTIC, x1) == -1

    def test_zero_iff_shared_root_in_interval(self):
        rng = random.Random(24)
        for _ in range(25):
            p = random_int_poly(rng, max_degree=5)
            for root in isolate_real_roots(p):
                q = random_int_poly(rng, max_degree=4)
                s = sign_at(q, root)
                if s == 0:
                    assert resultant(p, q) == 0
                elif resultant(p, q) != 0:
                    assert s != 0


class TestCompare:
    def test_same_root_different_definings(self):
        a = largest_real_root(Poly([-19, 0, 1]))
        b = largest_real_root(Poly([-1140, 0, 60]))
        assert compare(a, b) is Order.EQUAL

    def test_shared_chain_level(self):
        x3 = largest_real_root(derivative(FIG1_QUINTIC, 3))
        y3 = largest_real_root(derivative(EX21_QUINTIC, 3))
        assert compare(x3, y3) is Order.EQUAL

    def test_greater(self):
        y0 = largest_real_root(EX21_QUINTIC)
        x0 = largest_real_root(FIG1_QUINTIC)
        assert compare(y0, x0) is Order.GREATER
        assert compare(x0, y0) is Order.LESS

    def test_clustered_roots_separate_exactly(self):
        s2 = largest_real_root(Poly([-2, 0, 1]))
        for exponent in (6, 24):
            eps = F(1, 10**exponent)
            above = largest_real_root(Poly([-2 - eps, 0, 1]))
            below = largest_real_root(Poly([-2 + eps, 0, 1]))
            assert compare(above, s2) is Order.GREATER
            assert compare(below, s2) is Order.LESS

    def test_total_order_consistent_with_approx(self):
        rng = random.Random(25)
        pool = []
        for _ in range(6):
            pool.extend(isolate_real_roots(random_int_poly(rng, max_degree=4)))
        for a in pool:
            for b in pool:
                order = compare(a, b)
                fa, fb = float(a), float(b)
                if order is Order.LESS:
                    assert fa < fb + 1e-12
                elif order is Order.GREATER:
                    assert fa > fb - 1e-12
                else:
                    assert abs(fa - fb) < 1e-9


class TestCompareWithRational:
    """``compare`` against a rational agrees with the Sturm-based ``sign_at``."""

    @staticmethod
    def _check(alpha, r):
        want = Order(sign_at(Poly([-r, 1]), alpha))
        assert compare(alpha, from_rational(r)) is want
        assert compare(from_rational(r), alpha) is Order(-want.value)

    def test_agrees_with_sign_at(self):
        rng = random.Random(81)
        numbers = []
        for _ in range(15):
            roots = isolate_real_roots(random_int_poly(rng, max_degree=5))
            numbers += [a for a in roots if not a.is_rational]
        for alpha in numbers:
            lo, hi = alpha.interval.lo, alpha.interval.hi
            inside = lo + (hi - lo) * F(rng.randint(1, 999), 1000)
            for r in (lo, hi, alpha.interval.midpoint(), inside, lo - 1, hi + 1):
                self._check(alpha, r)

    def test_rational_root_in_a_wide_interval(self):
        # x - r times a positive quadratic increases everywhere; starting
        # 1/3 off an integer step keeps _root_above from landing on r
        rng = random.Random(82)
        for _ in range(20):
            r = F(rng.randint(-40, 40), rng.randint(1, 9))
            q = Poly([-r, 1]) * Poly([r**2 + rng.randint(1, 5), 0, 1])
            alpha = _root_above(q, r - rng.randint(0, 7) - F(1, 3))
            assert not alpha.is_rational and alpha.interval.lo < r < alpha.interval.hi
            assert compare(alpha, from_rational(r)) is Order.EQUAL
            for x in (r, alpha.interval.lo, alpha.interval.hi, r - F(1, 10**9), r + F(1, 10**9)):
                self._check(alpha, x)

    def test_intervals_meeting_in_one_point(self):
        s2 = AlgebraicNumber(Poly([-2, 0, 1]), IsolatingInterval(F(1), F(3, 2)))
        s3 = AlgebraicNumber(Poly([-3, 0, 1]), IsolatingInterval(F(3, 2), F(2)))
        assert compare(s2, s3) is Order.LESS
        assert compare(s3, s2) is Order.GREATER
        # 1/2 sits strictly inside [0, 1] and is the lower end of the other interval
        half = AlgebraicNumber(Poly([F(-1, 2), 1]) * Poly([-3, 1]), IsolatingInterval(F(0), F(1)))
        wide = AlgebraicNumber(Poly([-2, 0, 1]), IsolatingInterval(F(1, 2), F(2)))
        assert compare(half, wide) is Order.LESS
        assert compare(wide, half) is Order.GREATER
        other = AlgebraicNumber(Poly([-4, 0, 2]), IsolatingInterval(F(5, 4), F(2)))
        assert compare(s2, other) is Order.EQUAL


class TestOneZeroTest:
    """The exact decision paths settle ties without a Sturm interval count."""

    def test_decision_paths_need_no_sturm_count(self, monkeypatch):
        # isolation is the Sturm-based reference, so its numbers are built first
        a = largest_real_root(Poly([-19, 0, 1]))
        b = largest_real_root(Poly([-1140, 0, 60]))
        half = _root_above(Poly([F(-1, 2), 1]) * Poly([1, 0, 1]), F(-1, 3))
        equations = [
            EX11,
            EX12,
            monge_ampere(4, 3),
            j_equation(3, 2),
            hessian_type(5, 1, 2),
            nonneg_coeff(4, [1, 0, 2], 1).equation,
            dhym(DhymSpec(3, F(3, 4))).equation,
        ]
        verdicts = [certify_stable(f).verdict for f in equations]
        x1 = largest_real_root(Poly([-1, -6, 0, 1]))
        near = -6 * F(approx(x1, 60)) ** 2 - 3 * F(approx(x1, 60))

        def no_count(self, lo, hi):
            raise AssertionError("Sturm interval count on a decision path")

        monkeypatch.setattr(SturmChain, "count", no_count)
        certify_stable.cache_clear()
        try:
            assert [certify_stable(f).verdict for f in equations] == verdicts
            tied = dominates(EX12, EX11)
            assert tied.dominates and tied.comparisons[3] is Order.EQUAL
            assert compare(a, b) is Order.EQUAL
            assert compare(a, from_rational(F(436, 100))) is Order.LESS
            assert compare(from_rational(F(435, 100)), a) is Order.LESS
            assert compare(half, from_rational(F(1, 2))) is Order.EQUAL
            # degree 4: the double root x1 = 1 and offsets from its boundary,
            # a simple rational x1 = 2 on the boundary, and an irrational x1
            # within 1e-45 of its boundary, past the first bracket's 40 digits
            for c0 in (F(3), F(3) + F(1, 10**15), F(3) - F(1, 10**15)):
                f = SigmaKPolynomial(4, (c0, F(-2), F(1), F(0)))
                assert closed_form_criterion(f) is certify_stable(f).verdict
            f = SigmaKPolynomial(4, (F(-24), F(2), F(1), F(0)))
            assert closed_form_criterion(f) is StabilityVerdict.STABLE
            assert certify_stable(f).verdict is StabilityVerdict.STABLE
            for c0 in (near - F(1, 10**45), near, near + F(1, 10**45)):
                f = SigmaKPolynomial(4, (c0, F(1), F(2), F(0)))
                assert closed_form_criterion(f) is certify_stable(f).verdict
            assert deformation(FIG2_QUARTIC, F(3)).multiplicity == 2
        finally:
            certify_stable.cache_clear()


class TestApprox:
    def test_reference_quintic_top_roots(self):
        assert approx(largest_real_root(FIG1_QUINTIC), 3) == "11.632"
        assert approx(largest_real_root(EX21_QUINTIC), 3) == "15.250"

    def test_zero(self):
        assert approx(from_rational(0), 3) == "0.000"

    def test_half_even_tie(self):
        assert approx(from_rational(F(5, 10000)), 3) == "0.000"
        assert approx(from_rational(F(15, 10000)), 3) == "0.002"
        assert approx(from_rational(F(-5, 10000)), 3) == "0.000"

    def test_irrational_near_boundary(self):
        # sqrt(2)/1000 ~ 0.0014142... rounds cleanly; a root extremely close
        # to a tie point still terminates because the defining poly decides it
        root = largest_real_root(Poly([-2, 0, 10**6]))
        assert approx(root, 3) == "0.001"

    def test_negative_root(self):
        root = min(
            isolate_real_roots(Poly([-2, 0, 1])), key=lambda r: r.interval.lo
        )
        assert approx(root, 4) == "-1.4142"

    def test_root_exactly_on_tie_boundary(self):
        # the positive root of x^2 - 1/4000000 is 1/2000 = 0.0005 exactly, a
        # rounding tie at 3 digits; the defining polynomial settles it (half-even)
        roots = isolate_real_roots(Poly([F(-1, 4000000), 0, 1]))
        positive = roots[-1]
        assert approx(positive, 3) == "0.000"
        assert approx(positive, 4) == "0.0005"

    def test_bracket_digits(self):
        root = largest_real_root(Poly([-2, 0, 1]))
        assert bracket(root, 0) == (1, 2)
        assert bracket(from_rational(F(7, 2)), 0) == (3, 4)
        assert bracket(from_rational(3), 0) == (3, 3)
        for alpha in (root, from_rational(F(7, 2))):
            with pytest.raises(ValueError):
                bracket(alpha, -1)

    def test_rounded_from_deeper_bracket(self):
        # ties at the next digit, just above and below them, and irrational roots
        numbers = [
            from_rational(v)
            for v in (F(5, 10000), F(15, 10000), F(-25, 10000), F(50001, 10**8),
                      F(4999, 10**7), F(-1, 3), F(7, 2), F(0))
        ]
        numbers += isolate_real_roots(Poly([F(-1, 4000000), 0, 1]))
        numbers += isolate_real_roots(FIG1_QUINTIC) + isolate_real_roots(Poly([-2, 0, 10**6]))
        for alpha in numbers:
            for digits in (1, 3, 4):
                for extra in (1, 2, 3, 5):
                    deeper = bracket(alpha, digits + extra)
                    assert rounded(deeper, digits) == approx(alpha, digits)
