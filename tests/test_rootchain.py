import math
import random
from fractions import Fraction as F

import pytest

from sigmak.equations import (
    SigmaKPolynomial,
    StabilityVerdict,
    certify_stable,
    diagonal_restriction,
)
from sigmak.errors import DegreeTooLow, NoRealRoot
from sigmak.poly import Poly, derivative, evaluate, squarefree_part, sturm_chain
from sigmak.presets import j_equation
from sigmak.rationals import sign
from sigmak.realroots import Order, approx, compare, from_rational, sign_at
from sigmak.rootchain import (
    ChainVerdict,
    certify_left,
    certify_right,
    is_real_rooted,
    multiplicity_at_largest_root,
)

from _oracles import certify_right_by_isolation, float_chain_verdict, near_tie

FIG1_QUINTIC = Poly([20, -45, 640, -190, 0, 1])
FIG2_QUARTIC = Poly([1275, -260, -24, 0, 1])


def random_int_poly(rng, max_degree=6, span=9):
    degree = rng.randint(1, max_degree)
    coeffs = [F(rng.randint(-span, span)) for _ in range(degree)]
    coeffs.append(F(rng.choice([i for i in range(-span, span + 1) if i])))
    return Poly(coeffs)


def random_real_rooted(rng, max_degree=6):
    degree = rng.randint(2, max_degree)
    p = Poly([1])
    for _ in range(degree):
        root = F(rng.randint(-8, 8), rng.randint(1, 3))
        p = p * Poly([-root, 1])
    if rng.random() < 0.3:
        p = p.scale(F(rng.choice([-3, -1, 2])))
    return p


class TestCertifyRight:
    def test_fig1_quintic_strict(self):
        cert = certify_right(FIG1_QUINTIC)
        assert cert.verdict is ChainVerdict.STRICT
        assert [approx(a, 3) for a in cert.chain] == [
            "11.632",
            "9.306",
            "6.909",
            "4.359",
            "0.000",
        ]
        assert cert.top_multiplicity == 1

    def test_cube_minus_one(self):
        cert = certify_right(Poly([-1, 0, 0, 1]))
        assert cert.verdict is ChainVerdict.STRICT
        assert [approx(a, 3) for a in cert.chain] == ["1.000", "0.000", "0.000"]

    def test_pure_power(self):
        for n in (2, 3, 5):
            cert = certify_right(Poly([0] * n + [1]))
            assert cert.verdict is ChainVerdict.NOT_STRICT
            assert all(a.is_rational and a.rational_value == 0 for a in cert.chain)
            assert cert.top_multiplicity == n

    def test_positive_definite_fails_at_zero(self):
        cert = certify_right(Poly([1, 0, 1]))
        assert cert.verdict is ChainVerdict.FAILED
        assert cert.failure_level == 0
        assert cert.missing_root
        assert cert.signs[0] == 1

    def test_failure_with_existing_lower_roots(self):
        # (x+5)(x+6) has real roots but both sit below x_1 of ... use a shifted
        # cubic whose top-level test fails while roots exist further left:
        # p = (x+4)^2 (x^2+1) fails since p > 0 at the derivative chain root
        p = Poly([16, 8, 1]) * Poly([1, 0, 1])
        cert = certify_right(p)
        assert cert.verdict is ChainVerdict.FAILED
        assert not cert.missing_root

    def test_constant_rejected(self):
        with pytest.raises(DegreeTooLow):
            certify_right(Poly([3]))

    def test_negative_leading_coefficient_normalized(self):
        cert = certify_right(-FIG1_QUINTIC)
        assert cert.verdict is ChainVerdict.STRICT
        assert approx(cert.chain[0], 3) == "11.632"


class TestCertifyLeft:
    def test_real_rooted_both_sides(self):
        p = Poly([-1, 1]) * Poly([-2, 1]) * Poly([-3, 1])
        assert certify_right(p).succeeded
        assert certify_left(p).succeeded

    def test_cube_minus_one_fails_left(self):
        cert = certify_left(Poly([-1, 0, 0, 1]))
        assert cert.verdict is ChainVerdict.FAILED
        assert cert.failure_level == 0

    def test_left_chain_in_original_coordinates(self):
        p = Poly([-1, 1]) * Poly([-2, 1]) * Poly([-7, 1])
        cert = certify_left(p)
        # smallest root of p is 1; the left chain starts there
        assert compare(cert.chain[0], from_rational(1)) is Order.EQUAL

    def test_mirror_duality(self):
        rng = random.Random(31)
        for _ in range(40):
            p = random_int_poly(rng)
            mirrored = p.mirror()
            if mirrored.lc < 0:
                mirrored = -mirrored
            assert certify_left(p).verdict == certify_right(mirrored).verdict


class TestRealRooted:
    def test_examples(self):
        assert is_real_rooted(Poly([-1, 1]) * Poly([-1, 1]) * Poly([3, 1]))
        assert not is_real_rooted(Poly([-1, 0, 0, 1]))
        assert not is_real_rooted(Poly([1, 0, 1]))

    def test_random_real_rooted_certify_both_sides(self):
        rng = random.Random(32)
        for _ in range(60):
            p = random_real_rooted(rng)
            assert certify_right(p).succeeded
            assert certify_left(p).succeeded


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity_at_largest_root(FIG2_QUARTIC) == 2
        assert multiplicity_at_largest_root(Poly([-1, 0, 0, 1])) == 1
        assert multiplicity_at_largest_root(Poly([0, 0, 0, 0, 1])) == 4

    def test_no_real_root(self):
        with pytest.raises(NoRealRoot):
            multiplicity_at_largest_root(Poly([1, 0, 1]))


class TestChainProperties:
    def test_chain_descends(self):
        rng = random.Random(33)
        seen = 0
        attempts = 0
        while seen < 25 and attempts < 400:
            attempts += 1
            p = random_int_poly(rng)
            cert = certify_right(p)
            if not cert.succeeded:
                continue
            seen += 1
            for a, b in zip(cert.chain, cert.chain[1:]):
                assert compare(a, b) in (Order.GREATER, Order.EQUAL)
        assert seen == 25

    def test_derivative_closure(self):
        rng = random.Random(34)
        seen = 0
        attempts = 0
        while seen < 15 and attempts < 400:
            attempts += 1
            p = random_int_poly(rng, max_degree=5)
            if p.degree < 2:
                continue
            cert = certify_right(p)
            if not cert.succeeded:
                continue
            seen += 1
            tail = certify_right(derivative(p))
            assert tail.succeeded
            for a, b in zip(cert.chain[1:], tail.chain):
                assert compare(a, b) is Order.EQUAL
        assert seen == 15

    def test_matches_float_oracle(self):
        rng = random.Random(35)
        compared = 0
        for _ in range(250):
            p = random_int_poly(rng)
            if near_tie(p.coeffs):
                continue
            oracle = float_chain_verdict(p.coeffs)
            cert = certify_right(p)
            verdict = {
                ChainVerdict.STRICT: "strict",
                ChainVerdict.NOT_STRICT: "non-strict",
                ChainVerdict.FAILED: "failed",
            }[cert.verdict]
            assert verdict == oracle, f"mismatch on {p}"
            compared += 1
        assert compared > 150


def from_roots(roots) -> Poly:
    p = Poly([1])
    for r in roots:
        p = p * Poly([-r, 1])
    return p


def repeated_top(rng, max_degree=6):
    """Real-rooted with the largest root repeated, times a root-free quadratic at times."""
    roots = [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rng.randint(1, max_degree - 2))]
    p = from_roots(roots + [max(roots)] * rng.randint(1, 2))
    if rng.random() < 0.3:
        p = p * Poly([rng.randint(1, 5), 0, 1])
    return p


def half_integer_tie(rng, max_degree=7):
    """Roots drawn with replacement from a few half-integers: multiple roots and chain ties."""
    roots = [F(rng.randint(-4, 4), 2) for _ in range(rng.randint(2, max_degree))]
    return from_roots(roots)


def assert_same_certificate(cert, reference, mirrored=False):
    assert cert.verdict is reference.verdict
    assert cert.signs == reference.signs
    assert cert.failure_level == reference.failure_level
    assert cert.missing_root == reference.missing_root
    assert cert.top_multiplicity == reference.top_multiplicity
    assert [a is None for a in cert.chain] == [b is None for b in reference.chain]
    for a, b in zip(cert.chain, reference.chain):
        if a is not None:
            assert compare(a, b.negate() if mirrored else b) is Order.EQUAL


def assert_isolates_simple_roots(cert):
    """Each chain interval holds one simple root of its defining polynomial, a root of p^(k)."""
    for k, alpha in enumerate(cert.chain):
        if alpha is None:
            continue
        lo, hi = alpha.interval.lo, alpha.interval.hi
        if alpha.is_rational:
            assert evaluate(derivative(cert.polynomial, k), lo) == 0
            continue
        q = alpha.defining
        assert sign(evaluate(q, lo)) * sign(evaluate(q, hi)) < 0
        assert sturm_chain(q).count(lo, hi) == 1
        assert sign_at(derivative(q), alpha) != 0
        assert sign_at(derivative(cert.polynomial, k), alpha) == 0


def assert_matches_isolation(p):
    """Both chain certificates of ``p`` agree with full root isolation, level by level."""
    right = certify_right(p)
    assert_same_certificate(right, certify_right_by_isolation(p))
    assert_isolates_simple_roots(right)
    left = certify_left(p)
    assert_same_certificate(left, certify_right_by_isolation(p.mirror()), mirrored=True)
    assert_isolates_simple_roots(left)


class TestAgainstIsolation:
    """The directed certifier against the reference that isolates every root."""

    @pytest.mark.parametrize(
        "family", [random_int_poly, random_real_rooted, repeated_top, half_integer_tie]
    )
    def test_seeded_corpus(self, family):
        rng = random.Random(41)
        for _ in range(80):
            assert_matches_isolation(family(rng))

    def test_degree_one(self):
        for p in (Poly([3, 2]), Poly([-1, 5]), Poly([F(7, 3), -1])):
            assert_matches_isolation(p)
            assert certify_right(p).verdict is ChainVerdict.STRICT

    def test_pure_powers(self):
        for n in (2, 3, 6):
            for base in (Poly([0, 1]), Poly([-3, 2])):
                p = Poly([1])
                for _ in range(n):
                    p = p * base
                assert_matches_isolation(p)
                assert certify_right(p).top_multiplicity == n

    def test_j_equation_root_at_upper_end(self):
        # p^(k) vanishes exactly at the upper end of x_{k+1}'s interval: x_k is that end
        for n, c in ((3, F(1, 2)), (4, F(1, 3)), (7, F(1, 2)), (8, F(1, 3))):
            p = diagonal_restriction(j_equation(n, c))
            assert_matches_isolation(p)
            cert = certify_right(p)
            assert cert.verdict is ChainVerdict.STRICT
            assert compare(cert.chain[0], from_rational(n * c)) is Order.EQUAL
            assert any(alpha.is_rational for alpha in cert.chain[:-1])

    def test_rational_root_hit_by_doubling(self):
        # x_1 = 0; the search from it lands on the root 1 of p exactly
        for p in (from_roots([-1, 1]), from_roots([-3, 1, 1, 1]), from_roots([-7, -1, 3])):
            assert_matches_isolation(p)
        cert = certify_right(from_roots([-1, 1]))
        assert cert.chain[0].is_rational and cert.chain[0].rational_value == 1

    def test_failure_level_not_squarefree(self):
        # missing_root counts the roots of p^(k) from its own remainder sequence,
        # so a repeated real root or complex pair there must not change it
        double_real = from_roots([-3, -3]) * Poly([5, -4, 1])
        complex_pair = Poly([16, 6, 1]) * Poly([16, 6, 1])
        cases = (
            (double_real, 0, False),
            # 30 * antiderivative of double_real: p' has the double root -3
            (Poly([0, 1350, -90, -100, 15, 6]), 1, False),
            (complex_pair * Poly([11, -6, 1]), 0, True),
            (Poly([22, 8, 1]) * Poly([22, 8, 1]) * from_roots([-3]) * Poly([18, -8, 1]), 0, False),
        )
        for p, level, missing in cases:
            cert = certify_right(p)
            assert (cert.failure_level, cert.missing_root) == (level, missing)
            failing = derivative(p, level)
            assert squarefree_part(failing).degree < failing.degree
            assert_matches_isolation(p)

    @pytest.mark.parametrize("exponent", [200, -200])
    def test_scaled_coefficients(self, exponent):
        rng = random.Random(42)
        for _ in range(3):
            p = random_real_rooted(rng, max_degree=4) * Poly([rng.randint(-3, 3), 0, 1])
            # the same roots, and roots scaled by 2**exponent
            for q in (p.scale(F(2) ** exponent),
                      Poly([c * F(2) ** (-exponent * i) for i, c in enumerate(p.coeffs)])):
                assert_matches_isolation(q)


def _grid_roots(rng, count):
    first = -(count // 2)
    return [F(3 * k + rng.randint(0, 2), 2) for k in range(first, first + count)]


def _equation(p: Poly) -> SigmaKPolynomial:
    """The equation whose diagonal restriction is the monic ``p``."""
    n = int(p.degree)
    return SigmaKPolynomial(n, tuple(-p.coeff(k) / math.comb(n, k) for k in range(n)))


class TestDegree32:
    """The certify-highdeg families at n = 32, each with an exact check."""

    def test_rational_rooted(self):
        roots = _grid_roots(random.Random(320), 32)
        report = certify_stable(_equation(from_roots(roots)))
        assert report.verdict is StabilityVerdict.STRICTLY_STABLE
        assert compare(report.certificate.chain[0], from_rational(max(roots))) is Order.EQUAL

    def test_repeated_top(self):
        roots = _grid_roots(random.Random(321), 31)
        report = certify_stable(_equation(from_roots(roots + [max(roots)])))
        assert report.verdict is StabilityVerdict.STABLE
        assert report.certificate.top_multiplicity == 2
        assert compare(report.certificate.chain[0], from_rational(max(roots))) is Order.EQUAL

    def test_no_real_root(self):
        roots = _grid_roots(random.Random(322), 32)
        s = from_roots(roots) + Poly([(max(roots) - min(roots)) ** 32 + 1])
        report = certify_stable(_equation(s))
        assert report.verdict is StabilityVerdict.NOT_STABLE
        assert report.certificate.failure_level == 0
        assert report.certificate.missing_root
