"""Canonical output as a function of the exact chain alone.

``canonical_golden.json`` holds the canonical bodies of the exact report
commands.  Report intervals, ``approx`` digits and seeded base points come
from the decimal bracket of each exact root, so neither the golden nor the
invariance checks below may move when the isolation algorithm changes.
Regenerate the golden only for an intended change of canonical output:
``PYTHONPATH=src python tests/test_canonical.py > tests/canonical_golden.json``.
"""

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

from sigmak import equations
from sigmak.cli import canonical_body, main
from sigmak.equations import SigmaKPolynomial, StabilityReport, certify_stable, sample_region
from sigmak.realroots import approx, bracket, refine
from sigmak.rootchain import ChainCertificate

from _oracles import corpus_equations

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


def _corpus_chains():
    """Chains of EX11, EX12, the exact presets and the certify-highdeg families at degrees 5 and 8."""
    return [certify_stable(f).certificate.chain for f in corpus_equations(20, (5, 8))]


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
    cert = report.certificate
    chain = cert.chain
    tight = ChainCertificate(
        cert.verdict,
        cert.polynomial,
        (refine(chain[0], F(1, 10**30)),) + chain[1:],
        cert.signs,
        cert.failure_level,
        cert.missing_root,
        cert.top_multiplicity,
    )
    assert tight.chain[0].interval != chain[0].interval
    tight_report = StabilityReport(report.verdict, tight)
    monkeypatch.setattr(equations, "certify_stable", lambda _: tight_report)
    assert sample_region(f, 8, 7) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(_golden_text(canonical_bodies(Path(tmp))))
