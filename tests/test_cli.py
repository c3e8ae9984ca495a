import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import sigmak
from sigmak.analysis import _default_grid, alpha, deformation
from sigmak.cli import canonical_body, main
from sigmak.equations import SigmaKPolynomial, diagonal_restriction
from sigmak.poly import Poly
from sigmak.rationals import format_significant as fmt, parse_rational
from sigmak.rootchain import certify_right

EX11 = {"n": 5, "c": ["-20", "9", "-64", "19", "0"]}
EX12 = {"n": 5, "c": ["-24", "-2", "65", "19", "0"]}
FIG2_QUARTIC = "1275,-260,-24,0,1"
ROOTS_10_TO_12 = Poly([1320, 362, 33, 1])
ROOTS_1_TO_4 = Poly([24, 50, 35, 10, 1])


def restriction(obj) -> Poly:
    return diagonal_restriction(SigmaKPolynomial(obj["n"], tuple(map(parse_rational, obj["c"]))))


def even_grid(lo, hi, count):
    return [lo + (hi - lo) * F(i, max(count - 1, 1)) for i in range(count)]


def alpha_oracle(obj, lo, hi, samples):
    """The rows ``alpha`` prints: the single-point exact ratio on the exact grid, rounded once."""
    p = restriction(obj)
    return [[fmt(x), fmt(alpha(p, x).alpha)] for x in even_grid(lo, hi, samples)]


def deform_oracle(p, samples, ys=None, x_max=None):
    """The extras ``deform`` prints, from ``alpha`` at each deformed polynomial, rounded once.

    The rows sample each curve from just above its parameter; the descent
    check compares adjacent curves at ``min(samples, 64)`` points above the
    larger parameter and reports the smallest margin.
    """
    cert = certify_right(p)
    ys = sorted(_default_grid(cert) if ys is None else ys)
    hi = cert.x0_bracket[1]
    x_max = hi + F(7, 10) * abs(hi) + 1 if x_max is None else x_max
    curves = [deformation(cert, y) for y in ys]
    rows = []
    for y, q in zip(ys, curves):
        xs = even_grid(y + F(1, 100), x_max, samples)
        rows += [[fmt(x), fmt(y), fmt(alpha(q, x).alpha)] for x in xs]
    margins = []
    for y_b, q_a, q_b in zip(ys[1:], curves, curves[1:]):
        lo = y_b + F(1, 100)
        if lo < x_max:
            xs = even_grid(lo, x_max, min(samples, 64) + 1)[1:]
            margins += [alpha(q_a, x).alpha - alpha(q_b, x).alpha for x in xs]
    low = min(margins, default=None)
    return {
        "curves": len(ys),
        "descending_in_y": len(ys) < 2 or (low is not None and low > 0),
        "min_margin": fmt(low),
        "rows": rows,
    }


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_example11(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", EX11)
        code, out, _ = run(capsys, "certify", path)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == "1"
        assert report["verdict"] == "strictly-stable-convex"
        assert [row["approx"] for row in report["chain"]] == [
            "11.632",
            "9.306",
            "6.909",
            "4.359",
            "0.000",
        ]

    def test_example12(self, tmp_path, capsys):
        path = write_json(tmp_path / "g.json", EX12)
        code, out, _ = run(capsys, "certify", path)
        assert code == 0
        assert [row["approx"] for row in json.loads(out)["chain"]] == [
            "15.250",
            "11.673",
            "8.066",
            "4.359",
            "0.000",
        ]

    def test_not_stable(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", {"n": 2, "c": ["-1", "0"]})
        code, out, _ = run(capsys, "certify", path)
        assert code == 0  # exit 0 regardless of verdict
        assert json.loads(out)["verdict"] == "not-stable"

    def test_deterministic_canonical_body(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", EX11)
        _, out1, _ = run(capsys, "certify", path)
        _, out2, _ = run(capsys, "certify", path)
        body1 = json.dumps(canonical_body(json.loads(out1)), sort_keys=False)
        body2 = json.dumps(canonical_body(json.loads(out2)), sort_keys=False)
        assert body1 == body2

    def test_float_mode_labeled(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", EX11)
        code, out, _ = run(capsys, "certify", path, "--float")
        report = json.loads(out)
        assert code == 0
        assert report["extras"]["mode"] == "numeric (non-certificate)"
        assert report["verdict"] == "strictly-stable-convex"

    def test_seeded_convexity_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGMAK_SEED", "5")
        path = write_json(tmp_path / "f.json", EX11)
        code, out, _ = run(capsys, "certify", path, "--convexity-pairs", "50")
        check = json.loads(out)["extras"]["midpoint_check"]
        assert code == 0 and check["failures"] == 0 and check["pairs"] == 50

    def test_float_mode_on_unstable_input(self, tmp_path, capsys):
        path = write_json(tmp_path / "f.json", {"n": 2, "c": ["-1", "0"]})
        code, out, _ = run(capsys, "certify", path, "--float")
        report = json.loads(out)
        assert code == 0
        assert report["verdict"] == "not-stable"
        assert report["chain"][0]["approx"] is None

    @pytest.mark.parametrize(
        "c0, verdict",
        [("-1e-24", "not-stable"), ("1e-24", "strictly-stable-convex")],
    )
    def test_float_mode_near_ties(self, tmp_path, capsys, c0, verdict):
        # x^2 - c0: no real root just below zero, two just above
        path = write_json(tmp_path / "f.json", {"n": 2, "c": [c0, "0"]})
        code, out, _ = run(capsys, "certify", path, "--float")
        report = json.loads(out)
        assert code == 0 and report["verdict"] == verdict
        if verdict == "not-stable":
            assert report["chain"][0]["approx"] is None

    @pytest.mark.parametrize(
        "c", [["-1", "0"], ["-1", "1"]], ids=["not-stable", "stable-double-top-root"]
    )
    def test_convexity_pairs_without_strict_stability(self, tmp_path, capsys, c):
        # the midpoint test needs a strictly stable equation; the report keeps the verdict
        path = write_json(tmp_path / "f.json", {"n": 2, "c": c})
        code, out, err = run(capsys, "certify", path, "--convexity-pairs", "5")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["extras"]["midpoint_check"] is None
        _, plain, _ = run(capsys, "certify", path)
        plain = json.loads(plain)
        assert (report["verdict"], report["chain"]) == (plain["verdict"], plain["chain"])
        assert report["verdict"] != "strictly-stable-convex"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "certify", str(bad))
        assert code == 2 and "error" in err


def _family_equations():
    """Seeded certify-highdeg family members at degrees 5, 8 and 12, every family."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("_bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = random.Random(10)
    return [
        {"n": n, "c": [str(v) for v in workloads.family_equation(rng, n, family)]}
        for n in (5, 8, 12)
        for family in workloads.CertifyHighdeg.families
    ]


class TestFloatModeIsTheCertificate:
    """``certify --float`` reports the exact certificate, labelled."""

    def _bodies(self, capsys, path, *extra):
        bodies = []
        for flags in ((), ("--float",)):
            code, out, _ = run(capsys, "certify", path, *extra, *flags)
            assert code == 0
            bodies.append(canonical_body(json.loads(out)))
        plain, labelled = bodies
        assert labelled["extras"].pop("mode") == "numeric (non-certificate)"
        return plain, labelled

    def test_examples_and_presets(self, tmp_path, capsys):
        paths = [write_json(tmp_path / "ex11.json", EX11), write_json(tmp_path / "ex12.json", EX12)]
        for name, params in [
            ("monge-ampere", ["3", "1"]),
            ("j-equation", ["4", "2"]),
            ("hessian", ["4", "1", "3"]),
            ("nonneg", ["4", "1", "2", "3", "--top", "-5"]),
        ]:
            code, out, _ = run(capsys, "preset", name, *params)
            assert code == 0
            paths.append(write_json(tmp_path / f"{name}.json", json.loads(out)))
        for path in paths:
            for digits in ("3", "8"):
                plain, labelled = self._bodies(capsys, path, "--digits", digits)
                assert plain["verdict"] == "strictly-stable-convex"
                assert labelled == plain

    def test_bench_families(self, tmp_path, capsys):
        verdicts = set()
        for i, obj in enumerate(_family_equations()):
            plain, labelled = self._bodies(capsys, write_json(tmp_path / f"f{i}.json", obj))
            assert labelled == plain
            verdicts.add(plain["verdict"])
        assert verdicts == {"strictly-stable-convex", "stable", "not-stable"}


class TestDominance:
    def test_example_pair(self, tmp_path, capsys):
        g = write_json(tmp_path / "g.json", EX12)
        f = write_json(tmp_path / "f.json", EX11)
        code, out, _ = run(capsys, "dominance", g, f)
        report = json.loads(out)
        assert code == 0
        assert report["extras"]["dominates"] is True
        assert report["extras"]["levels"] == [">", ">", ">", "=", "="]

    def test_self_dominance(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", EX11)
        _, out, _ = run(capsys, "dominance", f, f)
        assert json.loads(out)["extras"]["dominates"] is True

    def test_reversed_pair(self, tmp_path, capsys):
        g = write_json(tmp_path / "g.json", EX12)
        f = write_json(tmp_path / "f.json", EX11)
        _, out, _ = run(capsys, "dominance", f, g)
        assert json.loads(out)["extras"]["dominates"] is False


class TestMembership:
    def test_monge_ampere(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", {"n": 2, "c": ["1", "0"]})
        code, out, _ = run(capsys, "membership", f, "--point", "2,2")
        report = json.loads(out)
        assert code == 0
        assert report["extras"]["member_of"] == 0
        assert report["extras"]["c-subsolution"] is True

    def test_example11_level3(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", EX11)
        _, out, _ = run(capsys, "membership", f, "--point", "5,5,5,5,5")
        report = json.loads(out)
        assert report["extras"]["member_of"] == 3
        assert report["extras"]["c-subsolution"] is False

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", EX11)
        code, _, _ = run(capsys, "membership", f, "--point", "5,5")
        assert code == 2


class TestAlpha:
    def test_fig1_profile(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", EX11)
        csv_path = tmp_path / "alpha.csv"
        code, out, _ = run(
            capsys, "alpha", f, "--range", "11.7:18", "--samples", "64", "--csv", str(csv_path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["extras"]["monotone_nondecreasing"] is True
        assert report["extras"]["limit"] == "4/5"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,alpha"
        assert len(lines) == 65
        assert all(float(line.split(",")[1]) < 0.8 for line in lines[1:])

    def test_zero_samples_exit_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", EX11)
        code, _, _ = run(capsys, "alpha", f, "--range", "11.7:18", "--samples", "0")
        assert code == 2

    def test_unstable_input_exit_3(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", {"n": 2, "c": ["-1", "0"]})
        code, _, err = run(capsys, "alpha", f, "--range", "0:1", "--samples", "4")
        assert code == 3 and "contract" in err

    def test_critical_point_reads_null(self, tmp_path, capsys):
        # p = x^3 - 1 at x = 0: p' vanishes and the one-sided limits of alpha disagree
        code, out, _ = run(capsys, "preset", "monge-ampere", "3", "1")
        f = tmp_path / "f.json"
        f.write_text(out, encoding="utf-8")
        code, out, err = run(capsys, "alpha", str(f), "--range=-1:1", "--samples", "3")
        assert code == 0 and err == ""
        rows = json.loads(out)["extras"]["rows"]
        assert rows == alpha_oracle(json.loads(f.read_text()), -1, 1, 3)
        assert rows[1] == ["0", None]

    @pytest.mark.parametrize(
        "bounds, max_value, monotone",
        [("0:1", "0", True), ("-1:0", "6", True), ("-1:1", "1.33333333333", False)],
    )
    def test_max_value_over_defined_samples(self, tmp_path, capsys, bounds, max_value, monotone):
        # x^3 - 1 has no ratio at 0, wherever 0 sits in the grid
        f = write_json(tmp_path / "f.json", {"n": 3, "c": ["1", "0", "0"]})
        code, out, _ = run(capsys, "alpha", f, f"--range={bounds}", "--samples", "3")
        extras = json.loads(out)["extras"]
        assert code == 0 and extras["max_value"] == max_value
        assert extras["monotone_nondecreasing"] is monotone
        assert sum(v is None for _, v in extras["rows"]) == 1

    def test_csv_leaves_undefined_cells_empty(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", {"n": 3, "c": ["1", "0", "0"]})
        csv_path = tmp_path / "alpha.csv"
        argv = ["alpha", f, "--range=-1:1", "--samples", "3", "--csv", str(csv_path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert csv_path.read_text().splitlines() == ["x,alpha", "-1,1.33333333333", "0,", "1,0"]

    def test_fractional_range(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", EX11)
        code, out, err = run(capsys, "alpha", f, "--range", "1/3:1/2", "--samples", "4")
        assert code == 0 and err == ""
        rows = json.loads(out)["extras"]["rows"]
        assert rows == alpha_oracle(EX11, F(1, 3), F(1, 2), 4)
        assert [x for x, _ in rows] == ["0.333333333333", "0.388888888889", "0.444444444444", "0.5"]

    def test_huge_abscissae(self, tmp_path, capsys):
        # p * p'' and p'^2 are beyond the float range here; their ratio is near 4/5
        f = write_json(tmp_path / "f.json", EX11)
        code, out, _ = run(capsys, "alpha", f, "--range=1e300:1e301", "--samples", "3")
        extras = json.loads(out)["extras"]
        lo, hi = parse_rational("1e300"), parse_rational("1e301")
        assert code == 0 and extras["rows"] == alpha_oracle(EX11, lo, hi, 3)
        assert [v for _, v in extras["rows"]] == ["0.8"] * 3
        assert extras["max_value"] == "0.8" and extras["monotone_nondecreasing"] is True

    def test_ex11_rows_match_oracle(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", EX11)
        code, out, _ = run(capsys, "alpha", f, "--range", "11.7:18", "--samples", "64")
        extras = json.loads(out)["extras"]
        assert code == 0 and extras["rows"] == alpha_oracle(EX11, F("11.7"), F(18), 64)
        assert extras["max_value"] == extras["rows"][-1][1]


class TestDeform:
    def test_fig2_family_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "deform.csv"
        code, out, _ = run(
            capsys,
            "deform",
            "--poly",
            "1275,-260,-24,0,1",
            "--y-grid",
            "2.25,2.5,2.75,3,3.25,3.5,3.75,4,4.25,4.5,4.75,5",
            "--samples",
            "40",
            "--x-max",
            "8.4",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["extras"]["descending_in_y"] is True
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,y,alpha"
        assert len(lines) == 1 + 12 * 40

    def test_equation_input_default_grid(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json", EX11)
        code, out, _ = run(capsys, "deform", f, "--samples", "16")
        assert code == 0
        assert json.loads(out)["extras"]["curves"] == 12

    def test_default_size_accepted(self, tmp_path, capsys):
        # 200 samples on each of the 12 default curves, within MAX_SAMPLES rows
        f = write_json(tmp_path / "f.json", EX11)
        csv_path = tmp_path / "deform.csv"
        code, out, _ = run(capsys, "deform", f, "--csv", str(csv_path))
        assert code == 0
        assert json.loads(out)["extras"]["curves"] == 12
        assert len(csv_path.read_text().strip().splitlines()) == 1 + 12 * 200

    @pytest.mark.parametrize("c0", ["1e-20", "1e-1600"])
    def test_window_narrower_than_six_digits(self, tmp_path, capsys, c0):
        # roots 0 and 10^-10 (10^-800): the 6-digit brackets do not separate them
        f = write_json(tmp_path / "f.json", {"n": 2, "c": [c0, "0"]})
        code, out, err = run(capsys, "deform", f, "--samples", "2")
        assert code == 0 and err == ""
        extras = json.loads(out)["extras"]
        assert extras["curves"] == 12 and extras["descending_in_y"] is True
        code, out, _ = run(capsys, "certify", f)
        assert code == 0 and json.loads(out)["verdict"] == "strictly-stable-convex"

    def test_window_narrower_than_a_double(self, tmp_path, capsys):
        # roots 0 and 10^-800: every curve parameter is below the smallest double
        obj = {"n": 2, "c": ["1e-1600", "0"]}
        f = write_json(tmp_path / "f.json", obj)
        code, out, _ = run(capsys, "deform", f, "--samples", "2")
        extras = json.loads(out)["extras"]
        assert code == 0 and extras == deform_oracle(restriction(obj), 2)
        ys = [y for _, y, _ in extras["rows"]]
        assert len(set(ys)) == 12 and "0" not in ys
        assert extras["min_margin"] != "0" and extras["descending_in_y"] is True

    @pytest.mark.parametrize(
        "argv, oracle",
        [
            (["{ex11}", "--samples", "16"], lambda: deform_oracle(restriction(EX11), 16)),
            (
                ["--poly", FIG2_QUARTIC, "--y-grid", "2.25:5:12", "--samples", "40", "--x-max=8.4"],
                lambda: deform_oracle(
                    Poly(map(int, FIG2_QUARTIC.split(","))),
                    40,
                    ys=[F(9, 4) + F(1, 4) * i for i in range(12)],
                    x_max=F(42, 5),
                ),
            ),
            # top roots -10 and -1: the default x_max is x_0 + 7/10 |x_0| + 1, -2 and 0.7
            (["--poly=1320,362,33,1", "--samples=4"], lambda: deform_oracle(ROOTS_10_TO_12, 4)),
            (["--poly=24,50,35,10,1", "--samples=4"], lambda: deform_oracle(ROOTS_1_TO_4, 4)),
        ],
        ids=["ex11-default-grid", "fig2-quartic", "roots-10-to-12", "roots-1-to-4"],
    )
    def test_rows_match_oracle(self, tmp_path, capsys, argv, oracle):
        ex11 = write_json(tmp_path / "f.json", EX11)
        code, out, _ = run(capsys, "deform", *[arg.format(ex11=ex11) for arg in argv])
        extras = json.loads(out)["extras"]
        assert code == 0 and extras == oracle()
        assert extras["descending_in_y"] is True and extras["min_margin"] is not None

    def test_full_multiplicity_top_root_exit_3(self, capsys):
        # x^2: the top root has multiplicity n, so the window is a single point;
        # so is the one root of a linear polynomial; a given grid at that point
        # gets the same exit as the default grid
        for argv in (
            ["--poly", "0,0,1"],
            ["--poly", "1,2"],
            ["--poly", "0,0,1", "--y-grid", "0"],
            ["--poly=1,2", "--y-grid=-1/2"],
        ):
            code, out, err = run(capsys, "deform", *argv, "--samples", "2")
            assert code == 3 and out == "" and "degenerate deformation window" in err

    @pytest.mark.parametrize("poly", ["5", "0", "0,0"])
    def test_poly_below_degree_one_is_usage_error(self, capsys, poly):
        # a constant has no root to deform; `certify` refuses n = 0 the same way
        code, out, err = run(capsys, "deform", "--poly", poly, "--samples", "2")
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1 and "degree at least 1" in err


class TestPreset:
    def test_monge_ampere_canonical(self, capsys):
        code, out, _ = run(capsys, "preset", "monge-ampere", "3", "1")
        assert code == 0
        assert out.strip() == '{"n":3,"c":["1","0","0"]}'

    def test_dhym_payload(self, capsys):
        code, out, _ = run(capsys, "preset", "dhym", "3", "3/4pi", "--precision", "12")
        payload = json.loads(out)
        assert code == 0
        assert payload["branch"] == "supercritical"
        assert len(payload["expected_chain"]) == 3
        assert payload["mode"] == "numeric (non-certificate)"

    def test_nonneg_with_top(self, capsys):
        code, out, _ = run(capsys, "preset", "nonneg", "3", "1", "0", "--top", "0")
        assert code == 0
        assert json.loads(out) == {"n": 3, "c": ["1", "0", "0"]}

    def test_guan_zhang_alias(self, capsys):
        code, out, _ = run(capsys, "preset", "guan-zhang", "4", "1", "2", "3", "--top", "-5")
        assert code == 0
        assert json.loads(out)["c"] == ["1", "2", "3", "5"]

    def test_unknown_preset_exit_2(self, capsys):
        code, _, _ = run(capsys, "preset", "unknown-name")
        assert code == 2

    @pytest.mark.parametrize(
        "name, params",
        [
            ("monge-ampere", ["3", "1"]),
            ("j-equation", ["4", "2"]),
            ("hessian", ["4", "1", "3"]),
            ("nonneg", ["4", "1", "2", "3"]),
            ("guan-zhang", ["4", "1", "2", "3"]),
            ("dhym", ["3", "3/4pi"]),
        ],
    )
    def test_parameter_count(self, capsys, name, params):
        # one too many, one too few and none: each is named, none is ignored
        code, _, _ = run(capsys, "preset", name, *params)
        assert code == 0
        for wrong in (params + ["9"], params[:-1], []):
            code, out, err = run(capsys, "preset", name, *wrong)
            assert code == 2 and out == "" and len(err.splitlines()) == 1
            assert err.startswith(f"error: preset {name} takes the parameters n ")
            assert err.endswith(f", got {len(wrong)}\n")

    @pytest.mark.parametrize(
        "name, params, option",
        [
            ("monge-ampere", "3 1", "--top"),
            ("monge-ampere", "3 1", "--precision"),
            ("j-equation", "4 2", "--precision"),
            ("hessian", "4 1 3", "--top"),
            ("nonneg", "4 1 2 3", "--precision"),
            ("guan-zhang", "4 1 2 3", "--precision"),
            ("dhym", "3 3/4pi", "--top"),
        ],
    )
    def test_option_the_preset_does_not_take(self, capsys, name, params, option):
        # --top belongs to nonneg and guan-zhang, --precision to dhym; neither is ignored
        code, out, err = run(capsys, "preset", name, *params.split(), option, "0")
        assert code == 2 and out == ""
        assert err == f"error: preset {name} does not take {option}\n"

    def test_dhym_phase_with_an_exponent(self, capsys):
        # the phase 10^-49 below the branch end 3pi/2 that CI pipes as a decimal
        code, decimal, _ = run(capsys, "preset", "dhym", "3", "3/2pi-0." + "0" * 48 + "1")
        assert code == 0
        for phase in ("3/2pi-1e-49", "3/2pi - 1E-49"):
            code, out, err = run(capsys, "preset", "dhym", "3", phase)
            assert (code, out, err) == (0, decimal, "")

    def test_dhym_multiple_with_an_exponent(self, capsys):
        code, fraction, _ = run(capsys, "preset", "dhym", "3", "6/5pi")
        assert code == 0
        assert run(capsys, "preset", "dhym", "3", "12e-1pi") == (0, fraction, "")

    @pytest.mark.parametrize("phase", ["3/2pi-1e", "3/2pi-1e-5000", "1e5000pi"])
    def test_dhym_bad_exponent(self, capsys, phase):
        # an exponent without digits, or beyond parse_rational's bound, is a usage error
        code, out, err = run(capsys, "preset", "dhym", "3", phase)
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_dhym_coefficient_past_the_int_string_limit(self, capsys):
        # theta = 3pi/2 - (Q pi - P) / 10^4000, P/Q a continued-fraction convergent of
        # pi with about 3990 digits: |c_0| is about 10^7990, past Python's 4300-digit
        # limit on printing an int, and the preset exits 2 instead of a traceback
        import mpmath

        with mpmath.workdps(8200):
            pi_scaled = int(mpmath.pi * 10**8200)
        num, den = pi_scaled, 10**8200
        (p0, p1), (q0, q1) = (0, 1), (1, 0)
        while q1 < 10**3990 or p1 * 10**8200 > pi_scaled * q1:  # until P/Q is below pi
            a, (num, den) = num // den, (den, num % den)
            (p0, p1), (q0, q1) = (p1, a * p1 + p0), (q1, a * q1 + q0)
        mult = str(F(3, 2) * 10**4000 - q1)
        phase = f"{mult[:-4000]}.{mult[-4000:]}pi+0.{str(p1).rjust(4000, '0')}"
        code, out, err = run(capsys, "preset", "dhym", "3", phase)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: bad preset parameters: Exceeds the limit")

    def test_pipe_closure(self, tmp_path, capsys):
        presets = [
            ("monge-ampere", ["3", "1"]),
            ("j-equation", ["4", "2"]),
            ("hessian", ["4", "1", "3"]),
            ("nonneg", ["3", "1", "2"]),
            ("dhym", ["3", "3/4pi"]),
        ]
        for name, params in presets:
            code, out, _ = run(capsys, "preset", name, *params)
            assert code == 0
            path = tmp_path / "piped.json"
            path.write_text(out, encoding="utf-8")
            code, out2, _ = run(capsys, "certify", str(path))
            assert code == 0
            assert json.loads(out2)["verdict"] == "strictly-stable-convex"


def run_fresh(*argv):
    """Run ``python argv`` on this checkout's sigmak, in a process that has imported nothing yet."""
    env = dict(os.environ, PYTHONPATH=str(Path(sigmak.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


class TestLazyImports:
    def test_cli_import_set(self):
        heavy = ["mpmath", "numpy", "dataclasses", "inspect", "sigmak.analysis", "sigmak.presets"]
        proc = run_fresh(
            "-c", f"import sys, sigmak.cli; print([m for m in {heavy!r} if m in sys.modules])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "{ex11}"],
            ["membership", "{ex11}", "--point", "12,12,12,12,12"],
            ["dominance", "{ex12}", "{ex11}"],
            ["preset", "monge-ampere", "3", "1"],
            ["preset", "dhym", "3", "3/4pi"],
            ["certify", "{ex11}", "--float"],
            ["certify", "{ex11}", "--convexity-pairs", "5"],
            ["alpha", "{ex11}", "--range", "11.7:18", "--samples", "8"],
            ["deform", "{ex11}", "--samples", "4"],
        ],
    )
    def test_commands_that_import_late(self, tmp_path, argv):
        """Every command runs in a process where importing numpy, mpmath or dataclasses fails."""
        paths = {
            "ex11": write_json(tmp_path / "ex11.json", EX11),
            "ex12": write_json(tmp_path / "ex12.json", EX12),
        }
        probe = (
            "import runpy, sys\n"
            "sys.modules['numpy'] = sys.modules['mpmath'] = sys.modules['dataclasses'] = None\n"
            "runpy.run_module('sigmak', run_name='__main__')\n"
        )
        proc = run_fresh("-c", probe, *(arg.format(**paths) for arg in argv))
        assert proc.returncode == 0, proc.stderr
        json.loads(proc.stdout)


    def test_float_certify_loads_no_numpy(self, tmp_path):
        heavy = ["mpmath", "numpy", "dataclasses", "inspect", "sigmak.analysis", "sigmak.presets"]
        ex11 = write_json(tmp_path / "ex11.json", EX11)
        probe = (
            "import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('sigmak', run_name='__main__')\n"
            "finally:\n"
            f"    print([m for m in {heavy!r} if m in sys.modules], file=sys.stderr)\n"
        )
        proc = run_fresh("-c", probe, "certify", ex11, "--float")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "strictly-stable-convex"
        assert proc.stderr.strip() == "[]"


class TestReportCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "{ex11}"],
            ["dominance", "{ex12}", "{ex11}"],
            ["membership", "{ex11}", "--point", "12,12,12,12,12"],
            ["alpha", "{ex11}", "--range", "11.7:18", "--samples", "16", "--csv", "{csv}"],
            [
                "deform", "--poly", "1275,-260,-24,0,1", "--y-grid", "2.25:5:4",
                "--samples", "10", "--x-max", "8.4", "--csv", "{csv}",
            ],
        ],
        ids=lambda argv: argv[0],
    )
    def test_envelope_and_determinism(self, tmp_path, capsys, argv):
        paths = {
            "ex11": write_json(tmp_path / "f.json", EX11),
            "ex12": write_json(tmp_path / "g.json", EX12),
            "csv": str(tmp_path / "out.csv"),
        }
        argv = [arg.format(**paths) for arg in argv]
        bodies = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            report = json.loads(out)
            assert code == 0
            assert set(report["timings_ms"]) == {"parse", "compute"}
            bodies.append(json.dumps(canonical_body(report)))
        assert bodies[0] == bodies[1]


class TestMalformedInput:
    """Every malformed input exits 2 with an error line and no traceback."""

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 3, "c": "123"},
            {"n": 2, "c": {"1": 0, "2": 0}},
            {"n": 2, "c": [True, "0"]},
            {"n": True, "c": ["1"]},
            {"n": 2.9, "c": ["1", "0"]},
        ],
    )
    def test_bad_equation_shape(self, tmp_path, capsys, obj):
        path = write_json(tmp_path / "f.json", obj)
        code, out, err = run(capsys, "certify", path)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "content",
        [b'{"n": 1, "c": ["\xff"]}', b"[" * 200000 + b"]" * 200000],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_unreadable_file(self, tmp_path, capsys, content):
        path = tmp_path / "f.json"
        path.write_bytes(content)
        code, _, err = run(capsys, "certify", str(path))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "extra",
        [["--digits", "0"], ["--digits", "-1"], ["--convexity-pairs", "-3"]],
    )
    def test_certify_options(self, tmp_path, capsys, extra):
        path = write_json(tmp_path / "f.json", EX11)
        code, _, err = run(capsys, "certify", path, *extra)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--digits", "abc"],
            ["verify"],
            ["membership", "f.json"],
            ["alpha", "f.json", "--samples", "4"],
            ["preset"],
        ],
        ids=["bad-int", "unknown-command", "missing-point", "missing-range", "bare-preset"],
    )
    def test_argparse_rejections_are_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_bare_preset_names_only_the_name(self, capsys):
        # the parameters may be empty, so argparse must not list them as required
        code, out, err = run(capsys, "preset")
        assert (code, out) == (2, "")
        assert err == "error: the following arguments are required: name\n"

    def test_non_integer_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGMAK_SEED", "abc")
        path = write_json(tmp_path / "f.json", EX11)
        code, out, err = run(capsys, "certify", path, "--convexity-pairs", "2")
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "{f}", "--digits", "101"],
            ["alpha", "{f}", "--range", "11.7:18", "--samples", "10001"],
            ["deform", "--poly", "1275,-260,-24,0,1", "--y-grid", "3", "--x-max", "8.4",
             "--samples", "10001"],
            ["deform", "--poly=-1,0,1", "--y-grid", "1/2:1/2:10001", "--x-max", "3", "--samples", "1"],
            ["deform", "--poly", "1275,-260,-24,0,1", "--y-grid", "2.25:5:101", "--samples", "100"],
            ["deform", "--poly", "1275,-260,-24,0,1", "--y-grid", "3,3.5,4", "--samples", "3334"],
            ["deform", "--poly", "1275,-260,-24,0,1", "--samples", "834"],
            ["preset", "dhym", "3", "3/4pi", "--precision", "-1"],
            ["preset", "dhym", "3", "3/4pi", "--precision", "101"],
            ["certify", "{f}", "--convexity-pairs", "100000000"],
            ["preset", "monge-ampere", "100000000", "1"],
            ["preset", "j-equation", "1001", "1"],
            ["preset", "hessian", "1001", "3", "1"],
            ["preset", "nonneg", "1001", "1"],
            ["preset", "dhym", "1001", "2001/4pi"],
        ],
        ids=[
            "digits",
            "alpha-samples",
            "deform-samples",
            "grid-count",
            "deform-range-grid-product",
            "deform-list-grid-product",
            "deform-default-grid-product",
            "precision-negative",
            "precision-too-large",
            "convexity-pairs",
            "preset-degree",
            "j-equation-degree",
            "hessian-degree",
            "nonneg-degree",
            "dhym-degree",
        ],
    )
    def test_size_caps(self, tmp_path, capsys, argv):
        path = write_json(tmp_path / "f.json", EX11)
        code, out, err = run(capsys, *[arg.format(f=path) for arg in argv])
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["preset", "monge-ampere", "0", "1"],
            ["preset", "nonneg", "0"],
            ["preset", "hessian", "0", "0", "1"],
            ["preset", "dhym", "0", "1/2pi"],
            ["preset", "monge-ampere", "3", "-1"],
            ["preset", "dhym", "3", "1/4pi"],
            ["deform", "--poly", "1275,-260,-24,0,1", "--y-grid", "1e400", "--samples", "2"],
            ["deform", "--poly", "1275,-260,-24,0,1", "--y-grid=-1e400", "--samples", "2"],
            ["deform", "--poly", "1275,-260,-24,0,1", "--y-grid", "100", "--samples", "2"],
            # the top curve's rows would start at or above x_max: its parameter plus 1/100
            ["deform", "--poly", FIG2_QUARTIC, "--x-max", "0", "--samples", "2"],
            ["deform", "--poly", FIG2_QUARTIC, "--y-grid=3", "--x-max=3.01", "--samples=2"],
            ["deform", "--poly", FIG2_QUARTIC, "--y-grid=2.25:5:4", "--x-max=5.005", "--samples=2"],
        ],
        ids=[
            "monge-ampere-degree-0",
            "nonneg-degree-0",
            "hessian-degree-0",
            "dhym-degree-0",
            "monge-ampere-negative-constant",
            "dhym-phase-outside-branch",
            "deform-grid-huge",
            "deform-grid-huge-negative",
            "deform-grid-above-root",
            "deform-x-max-below-the-default-grid",
            "deform-x-max-at-the-first-sample",
            "deform-x-max-below-the-top-curve",
        ],
    )
    def test_parameter_out_of_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1
        # the message names the range, it does not echo a 400-digit value
        assert len(err) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["deform", "{f}", "--samples", "2", "--y-grid", ""],
            ["deform", "{f}", "--samples", "2", "--x-max", ""],
            ["deform", "{f}", "--samples", "2", "--poly", ""],
            ["deform", "{f}", "--samples", "2", "--csv", ""],
            ["alpha", "{f}", "--range", "1:2", "--samples", "2", "--csv", ""],
            ["deform", "{f}", "--poly", "1275,-260,-24,0,1", "--samples", "2"],
        ],
        ids=["deform-y-grid", "deform-x-max", "deform-poly", "deform-csv", "alpha-csv",
             "deform-file-and-poly"],
    )
    def test_empty_value_or_second_input(self, tmp_path, capsys, argv):
        # an empty option value is read by its parser, never as the option left out
        path = write_json(tmp_path / "f.json", EX11)
        code, out, err = run(capsys, *[arg.format(f=path) for arg in argv])
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_deform_bad_x_max(self, capsys):
        code, _, err = run(capsys, "deform", "--poly", "1275,-260,-24,0,1", "--x-max", "abc")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("x_max", ["1e400", "-1e400"])
    def test_deform_x_max_beyond_float(self, tmp_path, capsys, x_max):
        # the sample abscissae are exact, so any rational --x-max above the curves is a
        # profile; one below them leaves the curves no sample and exits 2
        path = write_json(tmp_path / "f.json", EX11)
        code, out, err = run(capsys, "deform", path, f"--x-max={x_max}", "--samples", "2")
        if x_max.startswith("-"):
            assert code == 2 and out == "" and err.startswith("error: --x-max")
            return
        assert code == 0 and err == ""
        oracle = deform_oracle(restriction(EX11), 2, x_max=parse_rational(x_max))
        assert json.loads(out)["extras"] == oracle

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha", "{f}", "--range", "11.7:18", "--samples", "4"],
            ["deform", "--poly", FIG2_QUARTIC, "--samples", "2"],
        ],
        ids=["alpha", "deform"],
    )
    def test_unwritable_csv(self, tmp_path, capsys, argv, target):
        path = write_json(tmp_path / "f.json", EX11)
        csv = tmp_path if target == "directory" else tmp_path / "missing" / "out.csv"
        code, out, err = run(capsys, *[arg.format(f=path) for arg in argv], "--csv", str(csv))
        assert code == 2 and out == "" and err.startswith("error: cannot write --csv")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--convexity-pairs", "1"],
            ["alpha", "--range", "0:1", "--samples", "2"],
            ["deform", "--samples", "2"],
        ],
        ids=["certify-convexity-pairs", "alpha", "deform"],
    )
    def test_float_report_of_huge_coefficients(self, tmp_path, capsys, argv):
        # the exact certificate holds; only the float midpoint sampling leaves the
        # float range, the exact ratio profiles do not
        obj = {"n": 2, "c": ["1e1600", "0"]}
        path = write_json(tmp_path / "f.json", obj)
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        if argv[0] == "certify":
            assert code == 2 and out == "" and err.startswith("error:")
            assert len(err.splitlines()) == 1
        elif argv[0] == "alpha":
            assert code == 0 and json.loads(out)["extras"]["rows"] == alpha_oracle(obj, 0, 1, 2)
        else:
            oracle = deform_oracle(restriction(obj), 2)
            assert code == 0 and json.loads(out)["extras"] == oracle
        code, out, _ = run(capsys, "certify", path)
        assert code == 0 and json.loads(out)["verdict"] == "strictly-stable-convex"

    def test_convexity_pairs_near_the_float_limit(self, tmp_path, capsys, monkeypatch):
        # roots near 6e307: the sampled points are floats, but their symmetric
        # functions are beyond the float range, so membership decides them
        # exactly; each midpoint halves before it adds
        monkeypatch.setenv("SIGMAK_SEED", "0")
        path = write_json(tmp_path / "f.json", {"n": 3, "c": ["0", "0", "2e307"]})
        code, out, err = run(capsys, "certify", path, "--convexity-pairs", "5")
        assert code == 0 and err == ""
        check = json.loads(out)["extras"]["midpoint_check"]
        assert (check["pairs"], check["failures"]) == (5, 0)

    @pytest.mark.parametrize("bounds", ["12:inf", "-inf:12"])
    def test_alpha_infinite_range(self, tmp_path, capsys, bounds):
        path = write_json(tmp_path / "f.json", EX11)
        code, _, err = run(capsys, "alpha", path, f"--range={bounds}", "--samples", "4")
        assert code == 2 and err.startswith("error:")

    def test_alpha_range_width_beyond_float(self, tmp_path, capsys):
        # both ends are finite floats, hi - lo is not; the exact grid has no such limit
        path = write_json(tmp_path / "f.json", EX11)
        code, out, err = run(capsys, "alpha", path, "--range=-1e308:1e308", "--samples", "3")
        assert code == 0 and err == ""
        lo, hi = parse_rational("-1e308"), parse_rational("1e308")
        assert json.loads(out)["extras"]["rows"] == alpha_oracle(EX11, lo, hi, 3)

    def test_huge_exponent_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            parse_rational("1e100001")
        path = write_json(tmp_path / "f.json", EX11)
        code, _, err = run(capsys, "membership", path, "--point", "1e100001,1,1,1,1")
        assert code == 2 and err.startswith("error:")

    def test_dominance_of_different_degrees(self, tmp_path, capsys):
        g = write_json(tmp_path / "g.json", EX11)
        f = write_json(tmp_path / "f.json", {"n": 3, "c": ["-1", "0", "0"]})
        for args in ((g, f), (f, g)):
            code, out, err = run(capsys, "dominance", *args)
            assert code == 2 and out == "" and err.startswith("error:")
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("grid", ["3,3", "3:3:3", "3,3.5,7/2"])
    def test_deform_repeated_grid_value(self, capsys, grid):
        # a curve compared with itself read as a descent margin of 0
        code, out, err = run(capsys, "deform", "--poly", FIG2_QUARTIC, "--y-grid", grid,
                             "--samples", "2")
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("grid", ["3:3:1", "3"])
    def test_deform_single_grid_value(self, capsys, grid):
        code, out, err = run(capsys, "deform", "--poly", FIG2_QUARTIC, "--y-grid", grid,
                             "--samples", "2")
        assert code == 0 and err == ""
        assert json.loads(out)["extras"]["curves"] == 1
