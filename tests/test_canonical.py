"""Canonical output as a function of the exact chain alone.

``canonical_golden.json`` holds the canonical bodies of the exact report
commands.  Report intervals, ``approx`` digits and seeded base points come
from the decimal bracket of each exact root, so neither the golden nor the
invariance checks below may move when the isolation algorithm changes.
Regenerate the golden only for an intended change of canonical output:
``PYTHONPATH=src python tests/test_canonical.py > tests/canonical_golden.json``.
"""

import contextlib
import dataclasses
import importlib.util
import io
import json
import random
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

from sigmak import equations
from sigmak.cli import canonical_body, main
from sigmak.equations import SigmaKPolynomial, certify_stable, sample_region
from sigmak.presets import hessian_type, j_equation, monge_ampere, nonneg_coeff
from sigmak.realroots import approx, bracket, refine

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("canonical_golden.json")
EX11 = {"n": 5, "c": ["-20", "9", "-64", "19", "0"]}
EX12 = {"n": 5, "c": ["-24", "-2", "65", "19", "0"]}
PRESETS = {
    "monge-ampere": ["3", "1"],
    "j-equation": ["4", "2"],
    "hessian": ["4", "1", "3"],
    "nonneg": ["4", "1", "2", "3", "--top", "-5"],
}


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def canonical_bodies(workdir: Path) -> dict:
    """``{command line: canonical body}`` for the golden corpus."""
    files = {"ex11": EX11, "ex12": EX12}
    for name, obj in files.items():
        (workdir / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    for name, params in PRESETS.items():
        (workdir / f"{name}.json").write_text(_stdout(["preset", name, *params]), encoding="utf-8")
    commands = [
        ["certify", f"{name}.json", "--digits", digits]
        for name in ("ex11", "ex12")
        for digits in ("3", "8")
    ]
    commands += [["certify", f"{name}.json"] for name in PRESETS]
    commands += [
        ["dominance", "ex12.json", "ex11.json"],
        ["dominance", "ex11.json", "ex12.json"],
        ["membership", "ex11.json", "--point", "12,12,12,12,12"],
    ]
    return {
        " ".join(argv): canonical_body(
            json.loads(_stdout([str(workdir / a) if a.endswith(".json") else a for a in argv]))
        )
        for argv in commands
    }


def _golden_text(bodies: dict) -> str:
    return json.dumps(bodies, indent=1) + "\n"


def test_canonical_bodies_match_golden(tmp_path):
    assert _golden_text(canonical_bodies(tmp_path)) == GOLDEN.read_text(encoding="utf-8")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpus_chains():
    """Chains of EX11, EX12, the exact presets and the certify-highdeg families at degrees 5 and 8."""
    fs = [
        SigmaKPolynomial(5, tuple(F(v) for v in EX11["c"])),
        SigmaKPolynomial(5, tuple(F(v) for v in EX12["c"])),
        monge_ampere(3, F(1)),
        j_equation(4, F(2)),
        hessian_type(4, 1, F(3)),
        nonneg_coeff(4, [F(1), F(2), F(3)], F(-5)).equation,
    ]
    workloads = _load_workloads()
    rng = random.Random(20)
    for n in (5, 8):
        for family in workloads.CertifyHighdeg.families:
            fs.append(SigmaKPolynomial(n, workloads.family_equation(rng, n, family)))
    return [certify_stable(f).certificate.chain for f in fs]


def test_bracket_and_approx_ignore_the_interval():
    roots = [a for chain in _corpus_chains() for a in chain if a is not None]
    assert len(roots) > 50
    for root in roots:
        want = [bracket(root, d) for d in (0, 3, 6, 12)] + [approx(root, d) for d in (1, 3, 8)]
        for eps in (F(1, 10**3), F(1, 10**9), F(1, 10**30)):
            tight = refine(root, eps)
            got = [bracket(tight, d) for d in (0, 3, 6, 12)] + [approx(tight, d) for d in (1, 3, 8)]
            assert got == want
        lo, hi = want[3]
        assert hi - lo in (0, F(1, 10**12)) and (lo * 10**12).denominator == 1


def test_sample_region_ignores_the_interval(monkeypatch):
    f = SigmaKPolynomial(5, tuple(F(v) for v in EX11["c"]))
    want = sample_region(f, 8, 7)
    report = certify_stable(f)
    chain = report.certificate.chain
    tight = dataclasses.replace(
        report.certificate, chain=(refine(chain[0], F(1, 10**30)),) + chain[1:]
    )
    assert tight.chain[0].interval != chain[0].interval
    tight_report = dataclasses.replace(report, certificate=tight)
    monkeypatch.setattr(equations, "certify_stable", lambda _: tight_report)
    assert sample_region(f, 8, 7) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(_golden_text(canonical_bodies(Path(tmp))))
