import copy
import itertools
import pickle
import random
from fractions import Fraction as F

import pytest

from _oracles import (
    BadSubsetSize,
    cone_membership_by_subsets,
    partial_restriction,
    sample_region_by_fractions,
)
from _oracles import shift as shift_number
from _paper import DenominatorNotPositive, graph_lambda_n, translate
from sigmak.analysis import midpoint_convexity_test
from sigmak.equations import (
    SigmaKPolynomial,
    StabilityVerdict,
    _in_component,
    _read_point,
    certify_stable,
    cone_membership,
    diagonal_restriction,
    dominates,
    elementary_symmetric,
    evaluate,
    sample_region,
)
from sigmak.errors import (
    DimensionMismatch,
    InvalidPoint,
    NotStableEquation,
    SamplingExhausted,
)
from sigmak.poly import Poly, SturmChain, sturm_chain, taylor_shift
from sigmak.presets import hessian_type, j_equation, monge_ampere, nonneg_coeff
from sigmak.rationals import on_common_denominator
from sigmak.realroots import (
    AlgebraicNumber,
    IsolatingInterval,
    Order,
    bracket,
    compare,
    isolate_real_roots,
)
from sigmak.rootchain import certify_right

EXAMPLE_11 = SigmaKPolynomial(5, (F(-20), F(9), F(-64), F(19), F(0)))
EXAMPLE_12 = SigmaKPolynomial(5, (F(-24), F(-2), F(65), F(19), F(0)))
MONGE_2 = SigmaKPolynomial(2, (F(1), F(0)))


def random_equation(rng, n, span=6):
    return SigmaKPolynomial(
        n, tuple(F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n))
    )


def random_stable_equation(rng, n, require_strict=True, max_tries=500):
    for _ in range(max_tries):
        f = random_equation(rng, n)
        report = certify_stable(f)
        if report.is_strict or (report.is_stable and not require_strict):
            return f
    raise AssertionError("could not draw a stable equation")


class TestValueTypes:
    @pytest.mark.parametrize(
        "n, c",
        [(2.0, (1, 2)), (True, (1,)), (False, ()), ("2", (1, 2)), (F(2), (1, 2)), (None, ())],
        ids=["float", "true", "false", "str", "fraction", "none"],
    )
    def test_degree_must_be_an_int(self, n, c):
        with pytest.raises(DimensionMismatch):
            SigmaKPolynomial(n, c)

    @pytest.mark.parametrize(
        "build, other, field",
        [
            (lambda: SigmaKPolynomial(2, (1, 0)), SigmaKPolynomial(2, (F(1), F(1))), "n"),
            (lambda: IsolatingInterval(F(1), F(2)), IsolatingInterval(F(1), F(3)), "lo"),
            (
                lambda: AlgebraicNumber(Poly([-2, 0, 1]), IsolatingInterval(F(1), F(2))),
                AlgebraicNumber(Poly([-2, 0, 1]), IsolatingInterval(F(1), F(2)), 2),
                "interval",
            ),
            (
                lambda: certify_right(diagonal_restriction(EXAMPLE_11)),
                certify_right(diagonal_restriction(EXAMPLE_12)),
                "chain",
            ),
            (lambda: Poly([1, 2]), Poly([1, 3]), "coeffs"),
            (lambda: SturmChain([Poly([-2, 0, 1]), Poly([0, 1])]), SturmChain([]), "chain"),
        ],
        ids=[
            "equation", "interval", "algebraic-number", "certificate", "poly", "sturm",
        ],
    )
    def test_immutable_and_equal_by_value(self, build, other, field):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b

    @pytest.mark.parametrize(
        "value",
        [
            SigmaKPolynomial(2, (1, 0)),
            IsolatingInterval(F(1), F(2)),
            Poly([1, 2]),
            sturm_chain(Poly([-2, 0, 1])),
            isolate_real_roots(Poly([-2, 0, 1]))[1],
            certify_right(diagonal_restriction(EXAMPLE_11)),
            certify_stable(EXAMPLE_12),
        ],
        ids=[
            "equation", "interval", "poly", "sturm", "algebraic-number",
            "certificate", "report",
        ],
    )
    @pytest.mark.parametrize(
        "how",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_equal_the_original(self, value, how):
        assert how(value) == value

    def test_equation_hash_is_kept_and_a_pickled_copy_hits_the_cache(self):
        a = SigmaKPolynomial(5, EXAMPLE_11.c)
        copied = pickle.loads(pickle.dumps(a))
        assert a is not EXAMPLE_11 and hash(a) == hash(EXAMPLE_11) == hash(copied)
        report = certify_stable(a)
        hits = certify_stable.cache_info().hits
        assert certify_stable(copied) is report and certify_stable(EXAMPLE_11) is report
        assert certify_stable.cache_info().hits == hits + 2

    def test_scaled_coefficients_stay_out_of_the_value(self):
        f = SigmaKPolynomial(3, (F(1, 2), F(-2, 3), F(5)))
        assert (f._b, f._cs) == (6, (3, -4, 30))
        stale = copy.copy(f)
        object.__setattr__(stale, "_cs", (0, 0, 0))
        assert stale == f and hash(stale) == hash(f) and repr(stale) == repr(f)
        assert stale.__reduce__() == (SigmaKPolynomial, (3, f.c))
        for rebuilt in (copy.copy(stale), copy.deepcopy(stale), pickle.loads(pickle.dumps(stale))):
            assert (rebuilt._b, rebuilt._cs) == (6, (3, -4, 30))


class TestEvaluate:
    def test_monge_ampere_boundary(self):
        assert evaluate(MONGE_2, [F(1), F(1)]) == 0

    def test_example11_at_12(self):
        value = evaluate(EXAMPLE_11, [F(12)] * 5)
        assert value == 12**5 - 190 * 12**3 + 640 * 12**2 - 45 * 12 + 20
        assert value > 0  # 12 sits above the largest chain root

    def test_split_through_one_coordinate(self):
        # f = lam_i * (one-variable-down restriction at the rest) - weighted sum
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(2, 5)
            f = random_equation(rng, n)
            point = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            rest = point[1:]
            e = elementary_symmetric(rest)
            numerator = sum(f.c[k] * e[k] for k in range(n))
            denominator = e[n - 1] - sum(f.c[k] * e[k - 1] for k in range(1, n))
            assert evaluate(f, point) == point[0] * denominator - numerator

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(MONGE_2, [F(1)])

    def test_symmetry(self):
        rng = random.Random(42)
        for _ in range(15):
            n = rng.randint(2, 5)
            f = random_equation(rng, n)
            point = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            value = evaluate(f, point)
            for _ in range(4):
                rng.shuffle(point)
                assert evaluate(f, point) == value


class TestPartialRestriction:
    def test_index_shift(self):
        g = partial_restriction(EXAMPLE_11, 1)
        assert g.n == 4 and g.c == (F(9), F(-64), F(19), F(0))

    def test_top_level_is_linear(self):
        g = partial_restriction(EXAMPLE_11, 4)
        assert g.n == 1 and g.c == (F(0),)
        shifted = SigmaKPolynomial(3, (F(1), F(2), F(5)))
        assert partial_restriction(shifted, 2).c == (F(5),)

    def test_monge_ampere(self):
        g = partial_restriction(SigmaKPolynomial(4, (F(3), F(0), F(0), F(0))), 1)
        assert g.c == (F(0), F(0), F(0))

    def test_subset_size_validation(self):
        with pytest.raises(BadSubsetSize):
            partial_restriction(EXAMPLE_11, 5)
        with pytest.raises(BadSubsetSize):
            partial_restriction(EXAMPLE_11, 0)
        assert partial_restriction(EXAMPLE_11, {0, 3}).n == 3


class TestDiagonalRestriction:
    def test_example11(self):
        assert diagonal_restriction(EXAMPLE_11) == Poly([20, -45, 640, -190, 0, 1])

    def test_example12(self):
        assert diagonal_restriction(EXAMPLE_12) == Poly([24, 10, -650, -190, 0, 1])

    def test_monge_ampere(self):
        assert diagonal_restriction(SigmaKPolynomial(3, (F(7), F(0), F(0)))) == Poly(
            [-7, 0, 0, 1]
        )


class TestTranslate:
    def test_degree_two_formula(self):
        rng = random.Random(43)
        for _ in range(10):
            c0 = F(rng.randint(-9, 9), rng.randint(1, 3))
            c1 = F(rng.randint(-9, 9), rng.randint(1, 3))
            g, shift = translate(SigmaKPolynomial(2, (c0, c1)))
            assert shift == c1
            assert g.c == (c0 + c1 * c1, F(0))

    def test_identity_when_top_zero(self):
        g, shift = translate(EXAMPLE_11)
        assert shift == 0 and g == EXAMPLE_11

    def test_diagonal_consistency(self):
        rng = random.Random(44)
        for _ in range(20):
            n = rng.randint(2, 6)
            f = random_equation(rng, n)
            g, shift = translate(f)
            assert diagonal_restriction(g) == taylor_shift(diagonal_restriction(f), shift)

    def test_verdict_invariant_and_chain_shifts(self):
        rng = random.Random(45)
        for n in (3, 4, 5):
            f = random_stable_equation(rng, n, require_strict=False)
            g, shift = translate(f)
            rf, rg = certify_stable(f), certify_stable(g)
            assert rf.verdict == rg.verdict
            for a, b in zip(rf.certificate.chain, rg.certificate.chain):
                assert compare(shift_number(a, -shift), b) is Order.EQUAL


class TestCertifyStable:
    def test_example11_strict(self):
        assert certify_stable(EXAMPLE_11).verdict is StabilityVerdict.STRICTLY_STABLE

    def test_example12_strict(self):
        assert certify_stable(EXAMPLE_12).verdict is StabilityVerdict.STRICTLY_STABLE

    def test_negative_constant_unstable(self):
        f = SigmaKPolynomial(2, (F(-1), F(0)))
        assert certify_stable(f).verdict is StabilityVerdict.NOT_STABLE


class TestMembership:
    def test_monge_ampere_inside(self):
        for n in (2, 3, 4):
            f = SigmaKPolynomial(n, (F(1),) + (F(0),) * (n - 1))
            report = cone_membership(f, [F(2)] * n)
            assert report.member_level == 0

    def test_example11_deep_point(self):
        assert cone_membership(EXAMPLE_11, [F(12)] * 5).member_level == 0

    def test_example11_level_flip(self):
        report = cone_membership(EXAMPLE_11, [F(5)] * 5)
        assert report.member_level == 3
        assert report.failing_level == 2

    def test_not_stable_rejected(self):
        with pytest.raises(NotStableEquation):
            cone_membership(SigmaKPolynomial(2, (F(-1), F(0))), [F(1), F(1)])

    @pytest.mark.parametrize(
        "bad",
        ["12", True, False, None, 1j, float("nan"), float("inf"), float("-inf")],
        ids=["str", "true", "false", "none", "complex", "nan", "inf", "minus-inf"],
    )
    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_refused_coordinate(self, bad, exhaustive):
        # in place of the first coordinate of a deep point, alone among ints or floats
        for rest in ((13, 14, 15, 16), (13.0, 14.0, 15.0, 16.0)):
            with pytest.raises(InvalidPoint, match="coordinate 0 is "):
                cone_membership(EXAMPLE_11, (bad,) + rest, exhaustive=exhaustive)

    def test_accepted_coordinates(self):
        # ints, Fractions and finite floats mix; each is read exactly
        assert cone_membership(EXAMPLE_11, (12, F(13), 14, 15, 16)).member_level == 0
        mixed = cone_membership(EXAMPLE_11, (12.0, F(13), 14, 15, 16))
        assert mixed == cone_membership(EXAMPLE_11, (12.0, 13.0, 14.0, 15.0, 16.0))
        assert mixed == cone_membership(EXAMPLE_11, (12, 13, 14, 15, 16))

    def test_sorted_shortcut_matches_exhaustive(self):
        rng = random.Random(46)
        for n in (3, 4, 5):
            f = random_stable_equation(rng, n, require_strict=False)
            for _ in range(30):
                point = [F(rng.randint(-15, 25), rng.randint(1, 3)) for _ in range(n)]
                fast = cone_membership(f, point)
                full = cone_membership(f, point, exhaustive=True)
                assert fast.member_level == full.member_level

    def test_nesting_verified_exhaustively(self):
        rng = random.Random(47)
        f = EXAMPLE_11
        n = f.n
        for _ in range(40):
            point = [F(rng.randint(0, 16)) for _ in range(n)]
            report = cone_membership(f, point)
            if report.member_level is None:
                continue
            for level in range(max(report.member_level, 1), n):
                g = partial_restriction(f, level)
                for dropped in itertools.combinations(range(n), level):
                    kept = [point[i] for i in range(n) if i not in dropped]
                    assert evaluate(g, kept) > 0

    def test_monotone_under_positive_shift(self):
        rng = random.Random(48)
        f = EXAMPLE_11
        for _ in range(25):
            point = [F(rng.randint(0, 16)) for _ in range(f.n)]
            report = cone_membership(f, point)
            if report.member_level is None:
                continue
            bump = [F(rng.randint(0, 5)) for _ in range(f.n)]
            bumped = [a + b for a, b in zip(point, bump)]
            after = cone_membership(f, bumped)
            assert after.member_level is not None
            assert after.member_level <= report.member_level


def _membership_corpus():
    equations = {
        "EX11": EXAMPLE_11,
        "EX12": EXAMPLE_12,
        "monge-ampere": monge_ampere(5, 7),
        "j-equation": j_equation(4, 2),
        "hessian": hessian_type(4, 1, 3),
        "nonneg": nonneg_coeff(4, [1, 2, 3], -5).equation,
        "n1": SigmaKPolynomial(1, (F(3),)),
        "n2": MONGE_2,
    }
    for n in range(5, 9):
        lower = [F(k % 3 + 1, 2) for k in range(n - 1)]
        equations[f"nonneg-{n}"] = nonneg_coeff(n, lower, 1).equation
    return equations


def _membership_points(rng, f, count):
    """Exact and float points around the top chain root, some with zero,
    negative or repeated coordinates."""
    x0 = float(certify_stable(f).certificate.chain[0])
    scale = 1.0 + abs(x0)
    points = []
    for i in range(count):
        values = [x0 + scale * rng.uniform(-1.5, 1.5) for _ in range(f.n)]
        shape = i % 5
        if shape == 1:
            values[rng.randrange(f.n)] = 0.0
        elif shape == 2:
            values[rng.randrange(f.n)] = values[rng.randrange(f.n)]
        elif shape == 3:
            values = [-abs(v) for v in values]
        elif shape == 4 and i % 10 == 4:
            values = [0.0] * f.n
        exact = tuple(F(round(v * 8), 8) for v in values)
        points += [exact, tuple(float(v) for v in exact), tuple(values)]
    return points


class TestMembershipMatchesSubsetOracle:
    """Whole reports of exact values, compared by equality and by repr."""

    @pytest.mark.parametrize("name", sorted(_membership_corpus()))
    def test_reports_identical(self, name):
        f = _membership_corpus()[name]
        rng = random.Random(sum(map(ord, name)))
        for point in _membership_points(rng, f, 12):
            for exhaustive in (False, True):
                for margin in (0, F(1, 100), 1e-3):
                    got = cone_membership(f, point, exhaustive=exhaustive, margin=margin)
                    want = cone_membership_by_subsets(
                        f, point, exhaustive=exhaustive, margin=margin
                    )
                    assert got == want
                    assert repr(got) == repr(want), (point, exhaustive, margin)

    def test_float_near_zero_fallback(self):
        # the top level is the smallest coordinate, since c_4 = 0: 5e-9 is
        # read as the dyadic rational it is, and both zeros as 0
        for low in (5e-9, 0.0, -0.0):
            point = (low, 13.0, 14.5, 12.25, 16.0)
            top = cone_membership(EXAMPLE_11, point).level_values[0][1]
            assert type(top) is F and top == F(low)
            for exhaustive in (False, True):
                got = cone_membership(EXAMPLE_11, point, exhaustive=exhaustive)
                want = cone_membership_by_subsets(EXAMPLE_11, point, exhaustive=exhaustive)
                assert repr(got) == repr(want)

    def test_signed_zero_matches(self):
        # signed zeros in every position: both read as 0, and the reports agree exactly
        f = SigmaKPolynomial(3, (F(1), F(0), F(0)))
        for point in ((0.0, -0.0, 3.0), (0.0, 3.0, -0.0), (-1.0, 0.0, 5.0), (0.0, -0.0, -0.0)):
            for exhaustive in (False, True):
                got = cone_membership(f, point, exhaustive=exhaustive, margin=-1.0)
                want = cone_membership_by_subsets(f, point, exhaustive=exhaustive, margin=-1.0)
                assert repr(got) == repr(want)

    def test_underflowing_products_match(self):
        # coordinates whose float products underflow: read exactly, nothing
        # does, and the reports agree exactly
        f = SigmaKPolynomial(3, (F(1), F(0), F(0)))
        values = (1e-200, -1e-200, 0.0, -0.0, 5e-324, 3.0, -2.5)
        for point in itertools.product(values, repeat=3):
            for margin in (0, -1.0):
                for exhaustive in (False, True):
                    got = cone_membership(f, point, exhaustive=exhaustive, margin=margin)
                    want = cone_membership_by_subsets(
                        f, point, exhaustive=exhaustive, margin=margin
                    )
                    assert repr(got) == repr(want), (point, exhaustive, margin)

    @pytest.mark.parametrize("name", sorted(_membership_corpus()))
    def test_float_point_reads_as_its_fractions(self, name):
        f = _membership_corpus()[name]
        rng = random.Random(sum(map(ord, name)))
        for point in _membership_points(rng, f, 12):
            if isinstance(point[0], float):
                for exhaustive in (False, True):
                    got = cone_membership(f, point, exhaustive=exhaustive)
                    want = cone_membership(f, tuple(map(F, point)), exhaustive=exhaustive)
                    assert repr(got) == repr(want), (point, exhaustive)

    @pytest.mark.parametrize("name", sorted(_membership_corpus()))
    def test_component_test_reads_the_level_signs(self, name):
        f = _membership_corpus()[name]
        points = _membership_points(random.Random(sum(map(ord, name)) + 1), f, 20)
        # each point also raised well above the top root, where most lie inside
        up = 3 * int(2 + abs(float(certify_stable(f).certificate.chain[0])))
        points += [tuple(v + up for v in point) for point in points]
        seen = set()
        for point in points:
            want = cone_membership_by_subsets(f, point).in_stable_component
            assert _in_component(f, *on_common_denominator(_read_point(point))) == want, point
            seen.add(want)
        assert seen == {False, True}

    def test_float_point_just_inside_the_boundary(self):
        # f = x*y - 1 is 2^-40 at this point, within 1e-9 of the boundary:
        # the float point lies inside, like its exact image
        point = (1.0, 1.0 + 2**-40)
        report = cone_membership(MONGE_2, point)
        assert report.member_level == 0
        assert report == cone_membership(MONGE_2, tuple(map(F, point)))
        assert report.level_values[-1] == (0, F(1, 2**40))


class TestDominance:
    def test_example_pair(self):
        result = dominates(EXAMPLE_12, EXAMPLE_11)
        assert result.dominates
        assert [c.name for c in result.comparisons] == [
            "GREATER",
            "GREATER",
            "GREATER",
            "EQUAL",
            "EQUAL",
        ]

    def test_reflexive(self):
        result = dominates(EXAMPLE_11, EXAMPLE_11)
        assert result.dominates
        assert all(c is Order.EQUAL for c in result.comparisons)

    def test_reversed_pair_fails(self):
        assert not dominates(EXAMPLE_11, EXAMPLE_12).dominates

    def test_small_top_root_does_not_dominate(self):
        g = SigmaKPolynomial(5, (F(1), F(0), F(0), F(0), F(0)))
        assert not dominates(g, EXAMPLE_11).dominates

    def test_set_inclusion_on_samples(self):
        points = sample_region(EXAMPLE_12, 40, 7)
        for point in points:
            assert evaluate(EXAMPLE_11, point) > 0
            assert cone_membership(EXAMPLE_11, point).member_level == 0

    def test_pointwise_comparison_on_samples(self):
        # a dominating equation is pointwise below the dominated one on its region
        points = sample_region(EXAMPLE_12, 40, 8)
        for point in points:
            assert evaluate(EXAMPLE_11, point) >= evaluate(EXAMPLE_12, point)


class TestGraph:
    def test_monge_ampere(self):
        assert graph_lambda_n(MONGE_2, [F(2)]) == F(1, 2)

    def test_diagonal_self_consistency(self):
        t = F(11632, 1000)
        value = graph_lambda_n(EXAMPLE_11, [t] * 4)
        assert abs(float(value) - 11.632) < 2e-2

    def test_exact_level_set_membership(self):
        rng = random.Random(49)
        for n in (3, 4):
            f = random_stable_equation(rng, n)
            top = certify_stable(f).certificate.chain[0]
            base_value = F(round(float(top) * 100 + 150), 100)
            base = [base_value + F(i, 7) for i in range(n - 1)]
            lam = graph_lambda_n(f, base)
            assert evaluate(f, list(base) + [lam]) == 0

    def test_denominator_guard(self):
        with pytest.raises(DenominatorNotPositive):
            graph_lambda_n(MONGE_2, [F(0)])


class TestSampling:
    def test_monge_ampere_samples(self):
        points = sample_region(SigmaKPolynomial(2, (F(1), F(0))), 3, 42)
        assert len(points) == 3
        for a, b in points:
            assert a > 0 and b > 0 and a * b > 1

    def test_example11_membership(self):
        for point in sample_region(EXAMPLE_11, 5, 0):
            assert cone_membership(EXAMPLE_11, point).member_level == 0

    def test_zero_count(self):
        assert sample_region(EXAMPLE_11, 0, 1) == []

    def test_deterministic(self):
        assert sample_region(EXAMPLE_11, 4, 9) == sample_region(EXAMPLE_11, 4, 9)

    def test_requires_strict(self):
        with pytest.raises(NotStableEquation):
            sample_region(SigmaKPolynomial(2, (F(0), F(0))), 1, 0)

    def test_exhausted_budget(self, monkeypatch):
        monkeypatch.setattr("sigmak.equations._RETRY_FACTOR", 0)
        with pytest.raises(SamplingExhausted):
            sample_region(EXAMPLE_11, 3, 0)

    @pytest.mark.parametrize("mode", ["Float", "EXACT", "numeric", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError):
            sample_region(EXAMPLE_11, 4, 0, mode=mode)
        with pytest.raises(ValueError):
            midpoint_convexity_test(EXAMPLE_11, 2, 0, mode=mode)

    def test_top_root_bracket_cached_on_certificate(self):
        cert = certify_stable(EXAMPLE_11).certificate
        assert cert.x0_bracket == bracket(cert.chain[0], 6)
        assert cert.x0_bracket is cert.x0_bracket

    def test_float_mode_points(self):
        points = sample_region(EXAMPLE_11, 4, 3, mode="float")
        assert all(isinstance(v, float) for p in points for v in p)
        for p in points:
            assert cone_membership(EXAMPLE_11, p).member_level == 0


GRID_CASES = {
    "EX11": EXAMPLE_11,
    "EX12": EXAMPLE_12,
    "monge-ampere": monge_ampere(5, 7),
    "nonneg-8": nonneg_coeff(8, [F(k % 3 + 1, 2) for k in range(7)], 1).equation,
    # top root -2, so the spread is 1
    "spread-one": SigmaKPolynomial(2, (F(-6), F(-5, 2))),
    # top root 6e307: float draws come near the largest float
    "near-float-limit": SigmaKPolynomial(3, (F(0), F(0), F("2e307"))),
}


def _types(points):
    return [(type(p), tuple(map(type, p))) for p in points]


class TestSamplingGrid:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("name", sorted(GRID_CASES))
    def test_points_equal_the_fraction_reference(self, name, mode):
        f = GRID_CASES[name]
        for seed in (0, 1, 7, 2**31 - 1):
            got = sample_region(f, 6, seed, mode=mode)
            want = sample_region_by_fractions(f, 6, seed, mode=mode)
            assert got == want and _types(got) == _types(want), (seed, got, want)

    def test_cases_reach_their_branches(self):
        assert certify_stable(GRID_CASES["spread-one"]).certificate.x0_bracket == (-2, -2)
        points = sample_region(GRID_CASES["near-float-limit"], 20, 0, mode="float")
        assert max(max(p) for p in points) > 1.5e308

    def test_overflowing_float_draw_raises_like_the_reference(self):
        # top root 1e308: most draws lie beyond the largest float
        f = SigmaKPolynomial(2, (F(0), F("5e307")))
        with pytest.raises(OverflowError) as got:
            sample_region(f, 4, 0, mode="float")
        with pytest.raises(OverflowError) as want:
            sample_region_by_fractions(f, 4, 0, mode="float")
        assert str(got.value) == str(want.value)
        assert sample_region(f, 4, 0) == sample_region_by_fractions(f, 4, 0)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_midpoints_are_exact(self, monkeypatch, mode):
        points = sample_region(EXAMPLE_11, 6, 5, mode=mode)
        want = tuple(
            tuple((F(u) + F(v)) / 2 for u, v in zip(points[2 * i], points[2 * i + 1]))
            for i in range(3)
        )
        decided = []

        def in_component(f, xs, d):
            mid = tuple(F(x, d) for x in xs)
            decided.append(mid)
            assert _in_component(f, xs, d) == cone_membership_by_subsets(f, mid).in_stable_component
            return False

        monkeypatch.setattr("sigmak.analysis._in_component", in_component)
        report = midpoint_convexity_test(EXAMPLE_11, 3, 5, mode=mode)
        assert tuple(decided) == want
        assert report.failures == 3 and report.failure_examples == want
        assert all(type(v) is F for mid in report.failure_examples for v in mid)

    @pytest.mark.parametrize("count", [2.5, True, False, -1, "3", None, F(2)])
    def test_count_and_pairs_must_be_non_negative_ints(self, monkeypatch, count):
        with pytest.raises(ValueError, match="^count "):
            sample_region(EXAMPLE_11, count, 0)

        def unreachable(*args, **kwargs):
            raise AssertionError("sampled before checking pairs")

        monkeypatch.setattr("sigmak.analysis.sample_region", unreachable)
        with pytest.raises(ValueError, match="^pairs "):
            midpoint_convexity_test(EXAMPLE_11, count, 0)


class TestMembershipFloatMode:
    def test_float_agrees_with_exact_away_from_boundary(self):
        rng = random.Random(50)
        for _ in range(20):
            point = [F(rng.randint(0, 16)) for _ in range(5)]
            exact = cone_membership(EXAMPLE_11, point)
            floaty = cone_membership(EXAMPLE_11, [float(v) for v in point])
            assert exact.member_level == floaty.member_level

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_overflowing_values_decided_exactly(self, exhaustive):
        # sigma_2 of (1e300,) * 5 is beyond the float range; in float, level 2
        # read inf - inf and failed
        got = cone_membership(EXAMPLE_11, (1e300,) * 5, exhaustive=exhaustive)
        want = cone_membership(EXAMPLE_11, (F(10**300),) * 5, exhaustive=exhaustive)
        assert got.member_level == want.member_level == 0
        assert all(isinstance(v, F) for _, v in got.level_values)

    def test_overflowing_subset_value_decided_exactly(self):
        # every level value is finite in float, but the exhaustive scan of
        # level 3 meets sigma_2(1e200, 1e200), which no float holds
        point = (1.0, 2.0, 3.0, 1e200, 1e200)
        got = cone_membership(EXAMPLE_11, point, exhaustive=True)
        assert got == cone_membership(EXAMPLE_11, tuple(map(F, point)), exhaustive=True)
        assert got.member_level == 4
        assert all(isinstance(v, F) for _, v in got.level_values)

    @pytest.mark.parametrize("big", [10**400, F(10**400)], ids=["int", "fraction"])
    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_coordinate_beyond_float_range(self, big, exhaustive):
        # one float among them makes it a float point that no float can hold
        got = cone_membership(EXAMPLE_11, (big, 13.0, 14.0, 15.0, 16.0), exhaustive=exhaustive)
        want = cone_membership(EXAMPLE_11, (big, 13, 14, 15, 16), exhaustive=exhaustive)
        assert got == want and got.member_level == 0

    def test_coefficient_beyond_float_range(self):
        # c_0 = 10^1600 has no float; f < 0 at every float point, level 1 holds
        f = SigmaKPolynomial(2, (F(10**1600), F(0)))
        report = cone_membership(f, (1.0, 2.0))
        assert (report.member_level, report.failing_level) == (1, 0)
        assert report.level_values[1][1] == 2 - F(10**1600)

    def test_margin_rejects_boundary_point(self):
        # (1, 1) sits exactly on the product-equation level set: level 0 is
        # rejected (value is 0, not > 0), for the float point read exactly too
        exact = cone_membership(MONGE_2, [F(1), F(1)])
        floaty = cone_membership(MONGE_2, [1.0, 1.0])
        assert exact.member_level == 1
        assert floaty.member_level == 1


class TestMidpointProperty:
    def test_monge_ampere(self):
        report = midpoint_convexity_test(MONGE_2, 300, 0)
        assert report.failures == 0

    def test_example11(self):
        report = midpoint_convexity_test(EXAMPLE_11, 300, 1)
        assert report.failures == 0

    def test_refuses_non_strict(self):
        with pytest.raises(NotStableEquation):
            midpoint_convexity_test(SigmaKPolynomial(2, (F(0), F(0))), 10, 0)
