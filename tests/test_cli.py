import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigmak
from sigmak.cli import canonical_body, main
from sigmak.rationals import parse_rational

EX11 = {"n": 5, "c": ["-20", "9", "-64", "19", "0"]}
EX12 = {"n": 5, "c": ["-24", "-2", "65", "19", "0"]}


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

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "certify", str(bad))
        assert code == 2 and "error" in err


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
        heavy = ["mpmath", "numpy", "sigmak.analysis", "sigmak.presets"]
        proc = run_fresh(
            "-c", f"import sys, sigmak.cli; print([m for m in {heavy!r} if m in sys.modules])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["preset", "dhym", "3", "3/4pi"],
            ["certify", "{ex11}", "--float"],
            ["certify", "{ex11}", "--convexity-pairs", "5"],
            ["alpha", "{ex11}", "--range", "11.7:18", "--samples", "8"],
            ["deform", "{ex11}", "--samples", "4"],
        ],
    )
    def test_commands_that_import_late(self, tmp_path, argv):
        ex11 = write_json(tmp_path / "ex11.json", EX11)
        proc = run_fresh("-m", "sigmak", *(arg.format(ex11=ex11) for arg in argv))
        assert proc.returncode == 0, proc.stderr
        json.loads(proc.stdout)


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
        ],
    )
    def test_size_caps(self, tmp_path, capsys, argv):
        path = write_json(tmp_path / "f.json", EX11)
        code, out, err = run(capsys, *[arg.format(f=path) for arg in argv])
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_deform_bad_x_max(self, capsys):
        code, _, err = run(capsys, "deform", "--poly", "1275,-260,-24,0,1", "--x-max", "abc")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("bounds", ["12:inf", "-inf:12"])
    def test_alpha_infinite_range(self, tmp_path, capsys, bounds):
        path = write_json(tmp_path / "f.json", EX11)
        code, _, err = run(capsys, "alpha", path, f"--range={bounds}", "--samples", "4")
        assert code == 2 and err.startswith("error:")

    def test_huge_exponent_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            parse_rational("1e100001")
        path = write_json(tmp_path / "f.json", EX11)
        code, _, err = run(capsys, "membership", path, "--point", "1e100001,1,1,1,1")
        assert code == 2 and err.startswith("error:")
