"""The integer kernels against their Fraction references.

``realroots.bracket`` bisects an integer polynomial in the decimal grid
index, and ``poly.remainder_sequence`` and ``poly.poly_gcd`` run one signed
integer pseudo-remainder loop.  The references in ``_oracles`` bisect and
divide in ``Fraction`` arithmetic; results must be equal, not just close.
"""

import math
import random
from fractions import Fraction as F

import pytest

import sigmak.realroots as realroots
from sigmak.equations import SigmaKPolynomial, certify_stable, diagonal_restriction
from sigmak.poly import Poly, derivative, poly_gcd, remainder_sequence
from sigmak.realroots import AlgebraicNumber, IsolatingInterval, bracket, isolate_real_roots

from _oracles import bracket_by_fractions, gcd_by_division, remainder_sequence_by_division

DIGITS = (0, 3, 12, 100)


def from_roots(roots) -> Poly:
    p = Poly([1])
    for r in roots:
        p = p * Poly([-r, 1])
    return p


def grid_roots(rng, count):
    first = -(count // 2)
    return [F(3 * k + rng.randint(0, 2), 2) for k in range(first, first + count)]


def family_polynomial(rng, n, family) -> Poly:
    """Monic diagonal restriction of a certify-highdeg family member of degree n."""
    if family == "real-rooted":
        return from_roots(grid_roots(rng, n))
    if family == "repeated-top":
        roots = grid_roots(rng, n - 1)
        return from_roots(roots + [max(roots)])
    if family == "nonneg":
        c = tuple(F(rng.randint(1, 9), 2) for _ in range(n - 1)) + (F(-rng.randint(2, 4)),)
        p = diagonal_restriction(SigmaKPolynomial(n, c))
        return p.scale(1 / p.lc)
    if family == "not-stable":
        q_roots = grid_roots(rng, n - 2)
        q = from_roots(q_roots)
        b = max(q_roots) + 4
        h = q(b) / derivative(q)(b)
        return q * Poly([b * b + h * h / 16, -2 * b, 1])
    roots = grid_roots(rng, n)  # no-real-root
    return from_roots(roots) + Poly([(max(roots) - min(roots)) ** n + 1])


def equation(p: Poly) -> SigmaKPolynomial:
    """The equation whose diagonal restriction is the monic ``p``."""
    n = int(p.degree)
    return SigmaKPolynomial(n, tuple(-p.coeff(k) / math.comb(n, k) for k in range(n)))


FAMILIES = ("real-rooted", "repeated-top", "nonneg", "not-stable", "no-real-root")


def assert_brackets_match(alpha, digits=DIGITS):
    for d in digits:
        assert bracket(alpha, d) == bracket_by_fractions(alpha, d), (alpha, d)


def assert_sequences_match(p):
    got = remainder_sequence(p)
    assert got.chain == remainder_sequence_by_division(p).chain
    return got


def random_poly(rng, max_degree=8, span=9, rational=False, sparse=False):
    degree = rng.randint(1, max_degree)
    coeffs = []
    for _ in range(degree + 1):
        if sparse and rng.random() < 0.5:
            coeffs.append(F(0))
            continue
        num = rng.randint(-span, span)
        coeffs.append(F(num, rng.randint(1, 7)) if rational else F(num))
    if coeffs[-1] == 0:
        coeffs[-1] = F(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(coeffs)


class TestBracket:
    @pytest.mark.parametrize("n", [5, 8, 12, 16, 24, 32])
    def test_chain_roots_of_bench_families(self, n):
        rng = random.Random(900 + n)
        digits = DIGITS if n <= 8 else (0, 3, 12)
        for family in FAMILIES:
            chain = certify_stable(equation(family_polynomial(rng, n, family))).certificate.chain
            for alpha in chain:
                if alpha is not None:
                    assert_brackets_match(alpha, digits)

    def test_top_root_at_100_digits_high_degree(self):
        rng = random.Random(932)
        for n in (16, 24, 32):
            chain = certify_stable(equation(family_polynomial(rng, n, "nonneg"))).certificate.chain
            assert_brackets_match(chain[0], (100,))

    def test_roots_on_the_decimal_grid(self):
        # a rational root strictly inside a wide interval: the bracket is a point
        # once the grid reaches it, and the two grid points around it before that
        rng = random.Random(933)
        points = 0
        for _ in range(60):
            j = rng.randint(0, 5)
            r = F(rng.randint(-10**j * 9, 10**j * 9), 10**j)
            q = from_roots([r]) * Poly([rng.randint(3, 9), rng.randint(-3, 3), 1])
            q = q.scale(F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5)))
            alpha = AlgebraicNumber(q, IsolatingInterval(r - F(1, 3), r + F(1, 7)))
            assert_brackets_match(alpha)
            for d in DIGITS:
                lo, hi = bracket(alpha, d)
                points += lo == hi
                assert (lo == hi) == ((r * 10**d).denominator == 1)
        assert points > 100

    def test_negative_and_rational_coefficient_roots(self):
        rng = random.Random(934)
        negative = 0
        for _ in range(60):
            for alpha in isolate_real_roots(random_poly(rng, max_degree=6, rational=True)):
                assert_brackets_match(alpha)
                negative += bracket(alpha, 12)[1] < 0
        assert negative > 30

    @pytest.mark.parametrize("exponent", [200, -200])
    def test_scaled_coefficients(self, exponent):
        rng = random.Random(935)
        scale = F(2) ** exponent
        for _ in range(2):
            p = from_roots([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
            p = p * Poly([rng.randint(1, 5), 0, 1]) + Poly([F(1, 3)])
            # the same roots, and roots scaled by 2**exponent
            for q in (p.scale(scale), Poly([c / scale**i for i, c in enumerate(p.coeffs)])):
                for alpha in isolate_real_roots(q):
                    assert_brackets_match(alpha)

    def test_one_evaluation_per_irrational_root(self, monkeypatch):
        # the grid probes are integer Horner steps; only the sign at the
        # interval's lower end (cached on the number) goes through evaluate
        calls = []
        original = realroots.evaluate

        def counted(p, x):
            calls.append(x)
            return original(p, x)

        monkeypatch.setattr(realroots, "evaluate", counted)
        for q in (Poly([-2, 0, 1]), Poly([20, -45, 640, -190, 0, 1])):
            for alpha in isolate_real_roots(q):
                for d in (3, 12):
                    fresh = AlgebraicNumber(alpha.defining, alpha.interval)
                    calls.clear()
                    bracket(fresh, d)
                    assert len(calls) <= 1


class TestRemainderLoop:
    def test_bench_family_derivatives(self):
        rng = random.Random(936)
        for n in (5, 8, 12, 16, 24, 32):
            for family in ("not-stable", "no-real-root", "nonneg"):
                p = family_polynomial(rng, n, family)
                for k in range(0, n, max(1, n // 8)):
                    assert_sequences_match(derivative(p, k))

    def test_missing_root_counts(self):
        rng = random.Random(937)
        for n in (12, 24):
            for family in ("not-stable", "no-real-root"):
                cert = certify_stable(equation(family_polynomial(rng, n, family))).certificate
                failing = derivative(cert.polynomial, cert.failure_level)
                expected = remainder_sequence_by_division(failing).count_all() == 0
                assert cert.missing_root == expected
                assert cert.missing_root == (family == "no-real-root")

    def test_negative_leading_coefficients_and_degree_drops(self):
        # the pseudo-remainder's factor lc(b)^(deg a - deg b + 1) is negative
        # for a negative lc(b) and an even degree drop; both parities must occur
        rng = random.Random(938)
        steps = set()
        for _ in range(400):
            p = random_poly(rng, max_degree=9, rational=rng.random() < 0.5, sparse=True)
            chain = assert_sequences_match(p).chain
            for a, b in zip(chain, chain[1:-1]):
                if b.lc < 0:
                    steps.add((a.degree - b.degree) % 2)
        assert steps == {0, 1}

    def test_gcd(self):
        rng = random.Random(939)
        shorter = 0
        for _ in range(300):
            common = random_poly(rng, max_degree=3, rational=True)
            p = random_poly(rng, max_degree=6, rational=True, sparse=True)
            q = random_poly(rng, max_degree=6, rational=True, sparse=True)
            if rng.random() < 0.7:
                p, q = p * common, q * common
            shorter += p.degree < q.degree
            assert poly_gcd(p, q) == gcd_by_division(p, q)
            assert poly_gcd(q, p) == gcd_by_division(q, p)
        assert shorter > 50
        for p, q in ((Poly(), Poly()), (Poly(), Poly([4, 2])), (Poly([0, 0, 3]), Poly()),
                     (Poly([5]), Poly([1, 0, 1])), (Poly([F(2, 3)]), Poly([7]))):
            assert poly_gcd(p, q) == gcd_by_division(p, q)
            assert poly_gcd(q, p) == gcd_by_division(q, p)

    def test_no_rational_division(self, monkeypatch):
        rng = random.Random(940)
        cases = []
        for _ in range(30):
            p = random_poly(rng, rational=True, sparse=True)
            q = random_poly(rng, rational=True) * random_poly(rng, max_degree=2)
            cases.append((p, q, remainder_sequence_by_division(p).chain, gcd_by_division(p, q)))

        def refuse(self, other):
            raise AssertionError("rational long division")

        monkeypatch.setattr(Poly, "divmod", refuse)
        for p, q, chain, g in cases:
            assert remainder_sequence(p).chain == chain
            assert poly_gcd(p, q) == g
