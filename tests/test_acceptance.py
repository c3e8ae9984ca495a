"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from sigmak.analysis import deformation_family, midpoint_convexity_test
from sigmak.cli import main
from sigmak.equations import (
    SigmaKPolynomial,
    certify_stable,
    evaluate,
)
from sigmak.poly import Poly
from sigmak.presets import dhym, nonneg_coeff
from sigmak.realroots import refine
from sigmak.rootchain import ChainVerdict, certify_right

from _oracles import closed_form_criterion, discriminant, float_chain_verdict, near_tie
from _paper import (
    alpha_limit,
    bordered_hessian_entries,
    diagonal_hessian_scalar,
    graph_lambda_n,
    monotonicity_scan,
)

EX11 = SigmaKPolynomial(5, (F(-20), F(9), F(-64), F(19), F(0)))
EX12 = SigmaKPolynomial(5, (F(-24), F(-2), F(65), F(19), F(0)))
FIG1_QUINTIC = Poly([20, -45, 640, -190, 0, 1])
FIG2_QUARTIC = Poly([1275, -260, -24, 0, 1])


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {label}] FAIL")
        raise
    print(f"\n[criterion {label}] PASS")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_01_example_11_reproduction(tmp_path, capsys):
    with criterion("01 example-1.1 chain"):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"n": 5, "c": ["-20", "9", "-64", "19", "0"]}))
        start = time.perf_counter()
        code, out = run_cli(capsys, "certify", str(path), "--digits", "3")
        elapsed = time.perf_counter() - start
        report = json.loads(out)
        assert code == 0
        assert report["verdict"] == "strictly-stable-convex"
        assert [row["approx"] for row in report["chain"]] == [
            "11.632",
            "9.306",
            "6.909",
            "4.359",
            "0.000",
        ]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_02_example_12_reproduction_and_dominance(tmp_path, capsys):
    with criterion("02 example-1.2 chain + dominance"):
        g_path = tmp_path / "g.json"
        f_path = tmp_path / "f.json"
        g_path.write_text(json.dumps({"n": 5, "c": ["-24", "-2", "65", "19", "0"]}))
        f_path.write_text(json.dumps({"n": 5, "c": ["-20", "9", "-64", "19", "0"]}))
        start = time.perf_counter()
        code, out = run_cli(capsys, "certify", str(g_path), "--digits", "3")
        report = json.loads(out)
        assert code == 0
        assert [row["approx"] for row in report["chain"]] == [
            "15.250",
            "11.673",
            "8.066",
            "4.359",
            "0.000",
        ]
        code, out = run_cli(capsys, "dominance", str(g_path), str(f_path))
        elapsed = time.perf_counter() - start
        dom = json.loads(out)
        assert code == 0
        assert dom["extras"]["dominates"] is True
        assert dom["extras"]["levels"] == [">", ">", ">", "=", "="]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_03_discriminant_identity():
    with criterion("03 depressed-cubic discriminant identity"):
        rng = random.Random(100)
        for _ in range(100):
            c2 = F(rng.randint(-1000, 1000), rng.randint(1, 50))
            c1 = F(rng.randint(-1000, 1000), rng.randint(1, 50))
            p = Poly([-c1, -3 * c2, 0, 1])
            assert discriminant(p) == 27 * (4 * c2**3 - c1**2)


def _near_closed_form_boundary(n, c, tol=1e-6):
    c0, c1 = float(c[0]), float(c[1])
    if n == 3:
        if abs(c1) < tol:
            return True
        return c1 >= 0 and abs(c0 + 2 * c1**1.5) < tol
    c2 = float(c[2])
    if abs(c2) < tol:
        return True
    if c2 >= 0 and abs(c1 + 2 * c2**1.5) < tol:
        return True
    if c2 >= 0 and c1 >= -2 * c2**1.5:
        if c2 == 0:
            x1 = abs(c1) ** (1 / 3)
        else:
            arg = c1 / (2 * c2**1.5)
            if 4 * c2**3 - c1**2 >= 0:
                x1 = 2 * math.sqrt(c2) * math.cos(math.acos(max(-1.0, min(1.0, arg))) / 3)
            else:
                x1 = 2 * math.sqrt(c2) * math.cosh(math.acosh(max(1.0, arg)) / 3)
        if abs(c0 + 3 * c2 * x1**2 + 3 * c1 * x1) < tol:
            return True
    return False


def test_04_closed_form_oracle_agreement():
    with criterion("04 closed-form vs generic certifier"):
        rng = random.Random(101)
        start = time.perf_counter()
        for n in (3, 4):
            done = 0
            while done < 500:
                c = [F(rng.randint(-1000, 1000), 100) for _ in range(n - 1)] + [F(0)]
                if _near_closed_form_boundary(n, c):
                    continue
                f = SigmaKPolynomial(n, tuple(c))
                assert closed_form_criterion(f) is certify_stable(f).verdict, f"mismatch {c}"
                done += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_05_phase_equation_chain():
    with criterion("05 phase-equation chain formula"):
        rng = random.Random(102)
        for n in (2, 3, 4, 5):
            for _ in range(50):
                # stay a safe margin inside the branch so the tangent stays bounded
                q = F(n - 2, 2) + F(rng.randint(2, 38), 40)
                result = dhym(n, q, F(0), 15)
                report = certify_stable(result.equation)
                assert report.is_strict
                for alg, want in zip(report.certificate.chain, result.expected_chain):
                    got = float(refine(alg, F(1, 10**12)).interval.midpoint())
                    assert abs(got - want) < 1e-9, (n, str(q), got, want)
        identity = dhym(2, F(2, 3), F(0), 15)
        s3 = math.sqrt(3.0)
        assert abs(evaluate(identity.equation, [s3, s3])) < 1e-12


def test_06_log_concavity_ratio_laws():
    with criterion("06 ratio monotone + limit witnesses"):
        report = monotonicity_scan(
            FIG1_QUINTIC, samples=512, span=F(1000), tolerance=F(1, 10**9)
        )
        assert report.increasing
        assert report.min_delta >= -F(1, 10**9)
        assert report.max_value < F(4, 5)
        limit = alpha_limit(FIG1_QUINTIC)
        assert limit.limit == F(4, 5)
        deviations = [abs(v - F(4, 5)) for _, v in limit.witnesses]
        assert deviations[0] > deviations[1] > deviations[2]


def test_07_deformation_descent():
    with criterion("07 deformation ratio descent"):
        y_grid = [F(9, 4) + F(1, 4) * i for i in range(12)]  # 12 points in [x_m, x_0]
        _, report = deformation_family(certify_right(FIG2_QUARTIC), y_grid, 200, 200, F(42, 5))
        assert report.curves == 12
        assert report.all_positive
        assert report.min_margin > 0


def _random_strict_equation(rng, n, max_tries=3000):
    for _ in range(max_tries):
        c = [F(rng.randint(-60, 60), rng.randint(1, 10)) for _ in range(n - 1)] + [F(0)]
        f = SigmaKPolynomial(n, tuple(c))
        if certify_stable(f).is_strict:
            return f
    raise AssertionError("no strict instance found")


def test_08_diagonal_hessian_scalar_identity():
    with criterion("08 diagonal Hessian scalar identity (exact)"):
        rng = random.Random(103)
        done = 0
        while done < 100:
            n = rng.choice((3, 4, 5))
            f = _random_strict_equation(rng, n)
            x1 = certify_stable(f).certificate.chain[1]
            x = refine(x1, F(1, 1000)).interval.hi + F(rng.randint(1, 50), 10)
            report = diagonal_hessian_scalar(f, x)
            assert report.difference == 0
            done += 1


def test_09_bordered_entries_match_graph_hessian():
    with criterion("09 bordered entries vs graph Hessian (1e-5)"):
        rng = random.Random(104)
        done = 0
        while done < 50:
            n = rng.choice((3, 4))
            f = _random_strict_equation(rng, n)
            top = certify_stable(f).certificate.chain[0]
            base = [
                F(round(float(top) * 10) + 10 + rng.randint(0, 40), 10)
                for _ in range(n - 1)
            ]
            lam = graph_lambda_n(f, base)
            if lam == 0:
                continue
            point = list(base) + [lam]
            report = bordered_hessian_entries(f, point)
            factor = report.constraint_minor / (lam * math.prod(point))
            fbase = [float(v) for v in base]

            def graph_at(shift):
                pt = [fbase[i] + shift.get(i, 0.0) for i in range(n - 1)]
                return float(graph_lambda_n(f, pt))

            for i in range(n - 1):
                for j in range(i, n - 1):
                    hi = 1e-4 * (1 + abs(fbase[i]))
                    hj = 1e-4 * (1 + abs(fbase[j]))
                    if i == j:
                        fd = (
                            graph_at({i: hi}) - 2 * graph_at({}) + graph_at({i: -hi})
                        ) / hi**2
                    else:
                        fd = (
                            graph_at({i: hi, j: hj})
                            - graph_at({i: hi, j: -hj})
                            - graph_at({i: -hi, j: hj})
                            + graph_at({i: -hi, j: -hj})
                        ) / (4 * hi * hj)
                    lhs = float(report.bordered[i][j])
                    rhs = float(factor) * fd
                    assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs), abs(rhs)), (
                        n,
                        i,
                        j,
                        lhs,
                        rhs,
                    )
            done += 1


def test_10_midpoint_convexity_bulk():
    with criterion("10 midpoint convexity, 3 x 10000 pairs"):
        rng = random.Random(105)
        lower = [F(rng.randint(0, 5)) for _ in range(4)]
        lower[rng.randint(0, 3)] += 1
        nonneg_instance = nonneg_coeff(5, lower, F(rng.randint(-3, 3))).equation
        phase_instance = dhym(4, F(4, 3), F(0), 15).equation
        start = time.perf_counter()
        for instance in (EX11, nonneg_instance, phase_instance):
            report = midpoint_convexity_test(instance, 10_000, 0, mode="float")
            assert report.failures == 0, instance
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_11_float_oracle_equivalence():
    with criterion("11 exact verdicts vs float chain oracle"):
        rng = random.Random(106)
        verdict_name = {
            ChainVerdict.STRICT: "strict",
            ChainVerdict.NOT_STRICT: "non-strict",
            ChainVerdict.FAILED: "failed",
        }
        compared = 0
        for _ in range(1000):
            degree = rng.randint(1, 6)
            coeffs = [F(rng.randint(-9, 9)) for _ in range(degree)]
            coeffs.append(F(rng.choice([i for i in range(-9, 10) if i])))
            p = Poly(coeffs)
            if near_tie(p.coeffs):
                continue
            assert verdict_name[certify_right(p).verdict] == float_chain_verdict(
                p.coeffs
            ), f"mismatch on {p}"
            compared += 1
        assert compared >= 800


def test_12_real_rooted_certify_both_sides():
    with criterion("12 real-rooted certify right and left"):
        rng = random.Random(107)
        from _oracles import certify_left

        for _ in range(200):
            degree = rng.randint(2, 6)
            p = Poly([1])
            for _ in range(degree):
                root = F(rng.randint(-9, 9), rng.randint(1, 3))
                p = p * Poly([-root, 1])
            if rng.random() < 0.25:
                p = p.scale(F(rng.choice([-2, -1, 3])))
            assert certify_right(p).succeeded
            assert certify_left(p).succeeded
