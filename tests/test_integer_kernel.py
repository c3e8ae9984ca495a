"""The integer kernels against their Fraction references.

``realroots.bracket`` bisects an integer polynomial in the decimal grid
index, ``poly._remainder_chain`` is the one signed integer pseudo-remainder
loop under ``poly.poly_gcd``, ``poly.sturm_chain`` and ``missing_root``,
and ``rootchain.certify_right`` decides its signs on the integer derivative
ladder.  The references in ``_oracles`` and here bisect, divide and
evaluate in ``Fraction`` arithmetic; results must be equal, not just close.
"""

import math
import random
import sys
from fractions import Fraction as F

import pytest

import sigmak.poly as poly
import sigmak.realroots as realroots
import sigmak.rootchain as rootchain
from sigmak.equations import SigmaKPolynomial, certify_stable, diagonal_restriction
from sigmak.poly import (
    Poly, _primitive_ints, _remainder_chain, cauchy_root_bound, derivative, evaluate, poly_gcd
)
from sigmak.rationals import sign
from sigmak.realroots import AlgebraicNumber, IsolatingInterval, bracket, isolate_real_roots
from sigmak.rootchain import _ladder, _normalize, _tangent_bound, _value, certify_right

from _oracles import (
    bracket_by_fractions,
    corpus_equations,
    gcd_by_division,
    remainder_sequence_by_division,
)

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
        h = evaluate(q, b) / evaluate(derivative(q), b)
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


def integer_sequence(p):
    """``_remainder_chain`` of the primitive integer forms of ``p`` and ``p'``, as polynomials."""
    return [Poly(c) for c in _remainder_chain(_primitive_ints(p), _primitive_ints(derivative(p)))]


def assert_sequences_match(p):
    got = integer_sequence(p)
    assert got == list(remainder_sequence_by_division(p).chain)
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
        # the grid probes are integer Horner steps; only the constructor's
        # sign at the interval's lower end goes through evaluate
        calls = []
        original = realroots.evaluate

        def counted(p, x):
            calls.append(x)
            return original(p, x)

        monkeypatch.setattr(realroots, "evaluate", counted)
        for q in (Poly([-2, 0, 1]), Poly([20, -45, 640, -190, 0, 1])):
            for alpha in isolate_real_roots(q):
                for d in (3, 12):
                    calls.clear()
                    fresh = AlgebraicNumber(alpha.defining, alpha.interval)
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
                bound = cauchy_root_bound(failing)
                expected = remainder_sequence_by_division(failing).count(-bound, bound) == 0
                assert cert.missing_root == expected
                assert cert.missing_root == (family == "no-real-root")

    def test_negative_leading_coefficients_and_degree_drops(self):
        # the pseudo-remainder's factor lc(b)^(deg a - deg b + 1) is negative
        # for a negative lc(b) and an even degree drop; both parities must occur
        rng = random.Random(938)
        steps = set()
        for _ in range(400):
            p = random_poly(rng, max_degree=9, rational=rng.random() < 0.5, sparse=True)
            chain = assert_sequences_match(p)
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
            assert integer_sequence(p) == list(chain)
            assert poly_gcd(p, q) == g


def value_by_fractions(q, x):
    """``den(x)**deg q * q(x)`` by ``Fraction`` Horner."""
    return evaluate(Poly(q), x) * x.denominator ** (len(q) - 1)


def tangent_by_fractions(q, lo, hi):
    """``q(hi) - q'(hi) * (hi - lo)`` by ``Fraction`` Horner, times the positive factor of ``_tangent_bound``."""
    p = Poly(q)
    bound = evaluate(p, hi) - evaluate(derivative(p), hi) * (hi - lo)
    return bound * hi.denominator ** (len(q) - 1) * (hi - lo).denominator


def random_point(rng, scale=1):
    """Zero, negative and positive rationals, with denominators sharing 2 and 3 with the coefficients."""
    den = rng.choice([1, 2, 3, 4, 6, 9, 12, 7, 2**10])
    return F(rng.randint(-40, 40), den) * scale


def integer_forms(rng, exponent=0):
    """Primitive integer forms of random polynomials of degree 1 to 8, coefficients and roots scaled by ``2**exponent``."""
    for _ in range(40):
        p = random_poly(rng, rational=True, sparse=True)
        if exponent and rng.random() < 0.5:
            p = p.scale(F(2) ** exponent)
        elif exponent:
            p = Poly([c * F(2) ** (-exponent * i) for i, c in enumerate(p.coeffs)])
        yield p, _primitive_ints(p)


class TestChainKernel:
    @pytest.mark.parametrize("exponent", [0, 200, -200])
    def test_value_is_scaled_horner(self, exponent):
        rng = random.Random(950 + exponent)
        zeros = 0
        for p, q in integer_forms(rng, exponent):
            points = [F(0), random_point(rng), random_point(rng, F(2) ** exponent)]
            # exact roots: the rational roots of p itself, hit exactly
            points += [a.interval.lo for a in isolate_real_roots(p) if a.is_rational]
            for x in points:
                got = _value(q, x)
                assert got == value_by_fractions(q, x), (q, x)
                assert sign(got) == sign(evaluate(p, x))
                zeros += got == 0
        assert zeros >= 20

    def test_value_degree_one_and_constants(self):
        for q, x, want in (([3, 2], F(-3, 2), 0), ([3, 2], F(5, 4), 22), ([-7, 1], F(0), -7),
                           ([5], F(-1, 9), 5), ([0, 6], F(2, 3), 12)):
            assert _value(q, x) == want

    @pytest.mark.parametrize("exponent", [0, 200, -200])
    def test_tangent_bound_is_scaled(self, exponent):
        rng = random.Random(960 + exponent)
        signs = set()
        for p, q in integer_forms(rng, exponent):
            if len(q) < 2:
                continue
            ladder, slopes = _ladder(Poly(q))
            dq, slope = (ladder[1], slopes[0]) if len(ladder) > 1 else ([q[1]], 1)
            for _ in range(4):
                lo = random_point(rng, F(2) ** exponent)
                hi = lo + abs(random_point(rng, F(2) ** exponent)) + F(1, 3)
                got = _tangent_bound(_value(q, hi), dq, slope, lo, hi)
                assert got == tangent_by_fractions(q, lo, hi), (q, lo, hi)
                signs.add(sign(got))
        assert signs == {-1, 1}

    @pytest.mark.parametrize("exponent", [0, 200, -200])
    def test_ladder_is_the_derivatives(self, exponent):
        rng = random.Random(970 + exponent)
        for p, _ in integer_forms(rng, exponent):
            p = _normalize(p)
            ladder, slopes = _ladder(p)
            assert len(ladder) == int(p.degree) and len(slopes) == len(ladder) - 1
            for k, q in enumerate(ladder):
                assert math.gcd(*q) == 1
                ratio = F(q[-1]) / derivative(p, k).lc
                assert ratio > 0 and Poly(q) == derivative(p, k).scale(ratio)
            for k, slope in enumerate(slopes):
                assert derivative(Poly(ladder[k])) == Poly(ladder[k + 1]).scale(slope)

    def test_decisions_at_visited_points(self, monkeypatch):
        # every sign and tangent bound certify_right decides on the bench
        # families, decided again on the Fraction derivatives of p
        values, tangents = [], []
        value, tangent = rootchain._value, rootchain._tangent_bound

        def recorded_value(q, x):
            out = value(q, x)
            values.append((len(q) - 1, x, out))
            return out

        def recorded_tangent(q_hi, dq, slope, lo, hi):
            out = tangent(q_hi, dq, slope, lo, hi)
            tangents.append((len(dq), q_hi, lo, hi, out))
            return out

        monkeypatch.setattr(rootchain, "_value", recorded_value)
        monkeypatch.setattr(rootchain, "_tangent_bound", recorded_tangent)
        seen = {"value": set(), "tangent": set()}
        for f in corpus_equations(3, (5, 8, 12, 16, 24, 32)):
            p = _normalize(diagonal_restriction(f))
            n = int(p.degree)
            ders = [derivative(p, k) for k in range(n + 1)]
            values.clear()
            tangents.clear()
            certify_right(p)
            for degree, x, out in values:
                assert sign(out) == sign(evaluate(ders[n - degree], x)), (f, degree, x)
                seen["value"].add(sign(out))
            for length, q_hi, lo, hi, out in tangents:
                k = n - length  # dq is p^(k+1), of degree n - k - 1
                assert sign(q_hi) == sign(evaluate(ders[k], hi))
                bound = evaluate(ders[k], hi) - evaluate(ders[k + 1], hi) * (hi - lo)
                assert sign(out) == sign(bound), (f, k, lo, hi)
                seen["tangent"].add(sign(out))
        assert seen == {"value": {-1, 0, 1}, "tangent": {-1, 1}}

    def test_kept_lower_end_signs(self):
        # every chain root is built without evaluating, so check what was
        # proved: its defining polynomial rises through it, and the public
        # constructor, which evaluates, builds the same number
        kept = 0
        for f in corpus_equations(4, (5, 8, 12, 16)):
            for alpha in certify_right(diagonal_restriction(f)).chain:
                if alpha is None or alpha.is_rational:
                    continue
                q, lo, hi = alpha.defining, alpha.interval.lo, alpha.interval.hi
                assert sign(evaluate(q, lo)) == -1 and sign(evaluate(q, hi)) == 1
                assert AlgebraicNumber(q, alpha.interval, alpha.multiplicity_in_source) == alpha
                kept += 1
        assert kept > 100

    def test_refine_keeps_the_lower_end_sign(self, monkeypatch):
        # bracket of a refined chain root evaluates nothing, and compare with a
        # rational inside it evaluates only there, never the sign at lo
        roots = [
            alpha
            for f in corpus_equations(6, (5, 8, 12, 16))
            for alpha in certify_right(diagonal_restriction(f)).chain
            if alpha is not None and not alpha.is_rational
        ]
        tight = [realroots.refine(alpha, F(1, 10**6)) for alpha in roots]
        calls = []
        original = realroots.evaluate

        def counted(p, x):
            calls.append(x)
            return original(p, x)

        monkeypatch.setattr(realroots, "evaluate", counted)
        refined = 0
        for alpha, narrow in zip(roots, tight):
            calls.clear()
            bracket(narrow, 6)
            assert calls == []
            mid = narrow.interval.midpoint()
            realroots.compare(narrow, realroots.from_rational(mid))
            # a refinement that lands on a rational root compares without evaluating
            assert calls == ([] if narrow.is_rational else [mid])
            refined += narrow.interval != alpha.interval
            # the constructor, which evaluates the sign at lo, builds the same number
            fresh = AlgebraicNumber(narrow.defining, narrow.interval, narrow.multiplicity_in_source)
            assert fresh == narrow and hash(fresh) == hash(narrow)
        assert refined > 100

    def test_no_fraction_derivative_monic_or_evaluate(self, monkeypatch):
        # certify_right builds the ladder on integers and never calls these;
        # the gcd and remainder sequence under it may
        cases = [diagonal_restriction(f) for f in corpus_equations(5, (5, 8, 12))]
        cases += [Poly([16, 8, 1]) * Poly([1, 0, 1]), Poly([0, 0, 0, 1]), Poly([F(7, 3), -1])]
        want = [certify_right(p) for p in cases]

        def refuse_in_rootchain(original):
            def guarded(*args, **kwargs):
                if sys._getframe(1).f_globals.get("__name__") == rootchain.__name__:
                    raise AssertionError(f"rootchain called {original.__name__}")
                return original(*args, **kwargs)

            return guarded

        monkeypatch.setattr(Poly, "monic", refuse_in_rootchain(Poly.monic))
        for name in ("derivative", "evaluate"):
            guarded = refuse_in_rootchain(getattr(poly, name))
            monkeypatch.setattr(poly, name, guarded)
            monkeypatch.setattr(rootchain, name, guarded, raising=False)
        got = [certify_right(p) for p in cases]
        assert got == want
        assert any(c.missing_root for c in got) and any(0 in c.signs for c in got)
