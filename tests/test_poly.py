import math
import random
from fractions import Fraction as F

import pytest

from sigmak.errors import DegreeTooLow, ZeroPolynomial
from sigmak.poly import (
    Poly,
    cauchy_root_bound,
    derivative,
    evaluate,
    poly_gcd,
    squarefree_part,
    sturm_chain,
    taylor_shift,
    yun_decomposition,
)
from sigmak.rationals import on_common_denominator

from _oracles import (
    _bareiss_determinant,
    _resultant_subresultant,
    _sylvester_matrix,
    discriminant,
    distinct_real_roots,
    resultant,
    resultant_by_root_product,
)

FIG1_QUINTIC = Poly([20, -45, 640, -190, 0, 1])
FIG2_QUARTIC = Poly([1275, -260, -24, 0, 1])  # (x-5)^2 (x^2+10x+51)


def random_poly(rng, max_degree=6, span=9, monic=False):
    degree = rng.randint(1, max_degree)
    coeffs = [F(rng.randint(-span, span)) for _ in range(degree)]
    coeffs.append(F(1) if monic else F(rng.choice([i for i in range(-span, span + 1) if i])))
    return Poly(coeffs)


class TestBasics:
    def test_zero_polynomial_degree(self):
        assert Poly().degree == float("-inf")
        assert Poly([0, 0]).is_zero

    def test_trailing_zeros_normalized(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_division_roundtrip(self):
        rng = random.Random(1)
        for _ in range(50):
            a = random_poly(rng)
            b = random_poly(rng)
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


class TestDerivative:
    def test_fig1_quintic(self):
        assert derivative(FIG1_QUINTIC) == Poly([-45, 1280, -570, 0, 5])

    def test_monomial_full_order(self):
        n = 7
        assert derivative(Poly([0] * n + [1]), n) == Poly([math.factorial(n)])

    def test_constant(self):
        assert derivative(Poly([7])).is_zero

    def test_composition(self):
        rng = random.Random(2)
        for _ in range(30):
            p = random_poly(rng)
            d = int(p.degree)
            for j in range(d + 1):
                for k in range(d + 2 - j):
                    assert derivative(derivative(p, j), k) == derivative(p, j + k)


class TestEvaluate:
    def test_cube_root_of_unity_poly(self):
        assert evaluate(Poly([-1, 0, 0, 1]), F(1)) == 0

    def test_at_zero_gives_constant(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_poly(rng)
            assert evaluate(p, F(0)) == p.coeff(0)

    def test_half_integer(self):
        assert evaluate(Poly([-2, 0, 1]), F(3, 2)) == F(1, 4)


class TestTaylorShift:
    def test_square_shift(self):
        assert taylor_shift(Poly([0, 0, 1]), 1) == Poly([1, 2, 1])

    def test_identity_shift(self):
        p = Poly([-1, 0, 0, 1])
        assert taylor_shift(p, 0) == p

    def test_fig2_shift_by_five(self):
        # independent expansion of p(x+5) for p = (x-5)^2 (x^2+10x+51):
        # substituting gives x^2 * ((x+5)^2 + 10(x+5) + 51) = x^2 (x^2 + 20x + 126)
        assert taylor_shift(FIG2_QUARTIC, 5) == Poly([0, 0, 126, 20, 1])

    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(40):
            p = random_poly(rng)
            a = F(rng.randint(-20, 20), rng.randint(1, 5))
            assert taylor_shift(taylor_shift(p, a), -a) == p


class TestSquarefree:
    def test_fig2_quartic(self):
        expected = (Poly([-5, 1]) * Poly([51, 10, 1])).monic()
        assert squarefree_part(FIG2_QUARTIC) == expected

    def test_already_squarefree(self):
        assert squarefree_part(Poly([-2, 0, 1])) == Poly([-2, 0, 1])

    def test_pure_power(self):
        assert squarefree_part(Poly([0, 0, 0, 1])) == Poly([0, 1])

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_part(Poly())

    def test_against_gcd_structure(self):
        rng = random.Random(5)
        for _ in range(25):
            base = random_poly(rng, max_degree=3)
            p = base * base * random_poly(rng, max_degree=2)
            g = poly_gcd(p, derivative(p))
            q = squarefree_part(p)
            product, rem = p.divmod(q * g)
            assert rem.is_zero and product.degree == 0

    def test_yun_reassembles(self):
        rng = random.Random(6)
        for _ in range(25):
            factors = [(random_poly(rng, max_degree=2, monic=True), m) for m in (1, 2, 3)]
            p = Poly([1])
            for fac, mult in factors:
                for _ in range(mult):
                    p = p * fac
            rebuilt = Poly([1])
            for fac, mult in yun_decomposition(p):
                for _ in range(mult):
                    rebuilt = rebuilt * fac
            assert rebuilt == p.monic()


class TestSturm:
    def test_sqrt2_chain_and_count(self):
        chain = sturm_chain(Poly([-2, 0, 1]))
        assert chain.chain[0] == Poly([-2, 0, 1])
        assert chain.count(F(0), F(2)) == 1

    def test_no_real_roots(self):
        p = Poly([1, 0, 1])
        bound = cauchy_root_bound(p)
        assert sturm_chain(p).count(-bound, bound) == 0

    def test_cube_root_one(self):
        p = Poly([-1, 0, 0, 1])
        bound = cauchy_root_bound(p)
        assert sturm_chain(p).count(-bound, bound) == 1

    def test_counts_match_numeric_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            p = random_poly(rng)
            bound = F(1) + max(abs(c) for c in p.coeffs) / abs(p.lc)
            expected = len(distinct_real_roots(p.coeffs))
            assert sturm_chain(p).count(-bound, bound) == expected


class TestResultant:
    def test_linear_pair(self):
        rng = random.Random(8)
        for _ in range(20):
            a, b = F(rng.randint(-9, 9)), F(rng.randint(-9, 9))
            assert resultant(Poly([-a, 1]), Poly([-b, 1])) == a - b

    def test_constant_second(self):
        rng = random.Random(9)
        for _ in range(20):
            p = random_poly(rng)
            b0 = F(rng.choice([i for i in range(-9, 10) if i]))
            assert resultant(p, Poly([b0])) == b0 ** int(p.degree)

    def test_depressed_cubic_vs_derivative(self):
        # the Sylvester determinant of (x^3 - 3 c2 x - c1, 3x^2 - 3 c2) is
        # -27(4 c2^3 - c1^2); the discriminant flips the sign back
        c2, c1 = F(1), F(1)
        p = Poly([-c1, -3 * c2, 0, 1])
        assert resultant(p, derivative(p)) == -27 * (4 * c2**3 - c1**2)

    def test_root_product_oracle(self):
        rng = random.Random(10)
        checked = 0
        while checked < 40:
            p = random_poly(rng, max_degree=6, span=6)
            q = random_poly(rng, max_degree=6, span=6)
            exact = float(resultant(p, q))
            numeric = resultant_by_root_product(p.coeffs, q.coeffs)
            if abs(numeric) < 1e-8:
                continue
            assert abs(exact - numeric.real) <= 1e-6 * abs(numeric)
            checked += 1

    def test_subresultant_matches_bareiss(self):
        rng = random.Random(11)
        for _ in range(60):
            p = random_poly(rng, max_degree=9, span=8)
            q = random_poly(rng, max_degree=9, span=8)
            m = _sylvester_matrix(p, q)
            by_bareiss = _bareiss_determinant(m)
            a, da = on_common_denominator([c.as_integer_ratio() for c in p.coeffs])
            b, db = on_common_denominator([c.as_integer_ratio() for c in q.coeffs])
            by_prs = F(_resultant_subresultant(a, b))
            by_prs /= F(da) ** int(q.degree) * F(db) ** int(p.degree)
            assert by_bareiss == by_prs

    def test_high_degree_path(self):
        rng = random.Random(12)
        p = Poly([F(rng.randint(-5, 5)) for _ in range(14)] + [F(1)])
        q = derivative(p)
        value = resultant(p, q)  # degree 14 goes through the remainder sequence
        m = _sylvester_matrix(p, q)
        assert value == _bareiss_determinant(m)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            resultant(Poly(), Poly([1, 1]))


class TestDiscriminant:
    def test_quadratic(self):
        rng = random.Random(13)
        for _ in range(20):
            b, c = F(rng.randint(-9, 9)), F(rng.randint(-9, 9))
            assert discriminant(Poly([c, b, 1])) == b * b - 4 * c

    def test_depressed_cubic_identity(self):
        rng = random.Random(14)
        for _ in range(20):
            c2 = F(rng.randint(-9, 9), rng.randint(1, 4))
            c1 = F(rng.randint(-9, 9), rng.randint(1, 4))
            p = Poly([-c1, -3 * c2, 0, 1])
            assert discriminant(p) == 27 * (4 * c2**3 - c1**2)

    def test_double_root(self):
        assert discriminant(Poly([1, -2, 1])) == 0

    def test_zero_iff_nonconstant_gcd(self):
        rng = random.Random(15)
        for _ in range(30):
            p = random_poly(rng, max_degree=5)
            if rng.random() < 0.5:
                lin = Poly([F(rng.randint(-4, 4)), 1])
                p = p * lin * lin
            if p.degree < 1:
                continue
            has_square = poly_gcd(p, derivative(p)).degree >= 1
            assert (discriminant(p) == 0) == has_square

    def test_constant_rejected(self):
        with pytest.raises(DegreeTooLow):
            discriminant(Poly([5]))
