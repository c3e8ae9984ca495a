"""Library timings of the chain certifier at degrees 24 to 64.

For the real-rooted, not-stable and no-real-root families of the
certify-highdeg workload (generated by ``bench/workloads.py``), prints the
median over seeds 1-3 of ``certify_right`` plus one ``bracket(alg, 6)`` per
chain root, which is the compute of ``sigmak certify --digits 3``.  A
second table gives the median over the same chains' roots of one
``refine(alg, 1e-6)``, the narrowing the certify-highdeg op times.  A third
table times hard inputs outside every workload, median of three runs each:

- the close-root quartic ``c = (3, -2 + 10^-e, 1, 0)``, whose top derivative
  roots lie about ``10^-e/2`` apart, certified with its 6-digit brackets;
- ``bracket(alg, 103)`` over the seed-1 real-rooted chains at d12, d24 and
  d32, which is what ``sigmak certify --digits 100`` computes per root;
- the default-grid ``deform --samples 2`` on ``{"n": 2, "c": ["1e-1600", "0"]}``,
  whose deformation window is 10^-800 wide.

The output is Markdown.  Run from anywhere: ``python tools/chain_timing.py``.
"""

import importlib.util
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sigmak.analysis import deformation_family  # noqa: E402
from sigmak.equations import SigmaKPolynomial, diagonal_restriction  # noqa: E402
from sigmak.realroots import bracket, refine  # noqa: E402
from sigmak.rootchain import certify_right  # noqa: E402

FAMILIES = ("real-rooted", "not-stable", "no-real-root")
DEGREES = (24, 32, 48, 64)
SEEDS = (1, 2, 3)


def load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def certify_ms(p) -> tuple[float, list]:
    """Time of ``certify_right(p)`` plus its brackets, and the chain's roots."""
    start = time.perf_counter()
    roots = [alg for alg in certify_right(p).chain if alg is not None]
    for alg in roots:
        bracket(alg, 6)
    return 1000 * (time.perf_counter() - start), roots


def refine_ms(alg) -> float:
    start = time.perf_counter()
    refine(alg, Fraction(1, 10**6))
    return 1000 * (time.perf_counter() - start)


def median_ms(run) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run()
        times.append(1000 * (time.perf_counter() - start))
    return statistics.median(times)


def hard_inputs(workloads):
    """``(label, ms)`` rows for inputs that take long narrowings."""
    rows = []
    for e in (600, 1200, 2400):
        c1 = Fraction(-2) + Fraction(1, 10**e)
        p = diagonal_restriction(SigmaKPolynomial(4, (Fraction(3), c1, Fraction(1), Fraction(0))))
        label = f"close-root quartic c = (3, -2 + 10^-{e}, 1, 0): certify"
        rows.append((label, median_ms(lambda: certify_ms(p))))
    for n in (12, 24, 32):
        c = workloads.family_equation(random.Random(1), n, "real-rooted")
        _, roots = certify_ms(diagonal_restriction(SigmaKPolynomial(n, c)))
        label = f"seed-1 real-rooted d{n}: bracket(alg, 103) per chain"
        rows.append((label, median_ms(lambda: [bracket(alg, 103) for alg in roots])))
    p = diagonal_restriction(SigmaKPolynomial(2, (Fraction(1, 10**1600), Fraction(0))))
    label = '{"n": 2, "c": ["1e-1600", "0"]}: default-grid deform --samples 2'
    rows.append((label, median_ms(lambda: deformation_family(certify_right(p), None, 2, 2))))
    return rows


def print_table(title, rows, digits):
    print(title)
    print()
    print("| degree | " + " | ".join(FAMILIES) + " |")
    print("|---|" + "---|" * len(FAMILIES))
    for n, cells in rows:
        print(f"| d{n} | " + " | ".join(f"{ms:.{digits}f} ms" for ms in cells) + " |")


def main():
    workloads = load_workloads()
    certify_rows, refine_rows = [], []
    for n in DEGREES:
        certify_cells, refine_cells = [], []
        for family in FAMILIES:
            times, roots = [], []
            for seed in SEEDS:
                c = workloads.family_equation(random.Random(seed), n, family)
                ms, chain = certify_ms(diagonal_restriction(SigmaKPolynomial(n, c)))
                times.append(ms)
                roots += chain
            certify_cells.append(statistics.median(times))
            refine_cells.append(statistics.median(refine_ms(alg) for alg in roots))
        certify_rows.append((n, certify_cells))
        refine_rows.append((n, refine_cells))
    host = f"Python {platform.python_version()}, {platform.machine()}"
    print_table(f"Chain certification plus 6-digit brackets, median of seeds 1-3 ({host})", certify_rows, 1)
    print()
    print_table(f"One refine(alg, 1e-6), median over the chain roots of seeds 1-3 ({host})", refine_rows, 3)
    print()
    print(f"Hard inputs, median of three runs ({host})")
    print()
    print("| input | time |")
    print("|---|---|")
    for label, ms in hard_inputs(workloads):
        print(f"| {label} | {ms:.1f} ms |")


if __name__ == "__main__":
    main()
