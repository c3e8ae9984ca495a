"""Library timings of the chain certifier at degrees 24 to 64.

For the real-rooted, not-stable and no-real-root families of the
certify-highdeg workload (generated by ``bench/workloads.py``), prints the
median over seeds 1-3 of ``certify_right`` plus one ``bracket(alg, 6)`` per
chain root, which is the compute of ``sigmak certify --digits 3``.  The
output is a Markdown table.  Run from anywhere: ``python tools/chain_timing.py``.
"""

import importlib.util
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sigmak.equations import SigmaKPolynomial, diagonal_restriction  # noqa: E402
from sigmak.realroots import bracket  # noqa: E402
from sigmak.rootchain import certify_right  # noqa: E402

FAMILIES = ("real-rooted", "not-stable", "no-real-root")
DEGREES = (24, 32, 48, 64)
SEEDS = (1, 2, 3)


def load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def certify_ms(p) -> float:
    start = time.perf_counter()
    for alg in certify_right(p).chain:
        if alg is not None:
            bracket(alg, 6)
    return 1000 * (time.perf_counter() - start)


def main():
    workloads = load_workloads()
    print(f"Chain certification plus 6-digit brackets, median of seeds 1-3 "
          f"(Python {platform.python_version()}, {platform.machine()})")
    print()
    print("| degree | " + " | ".join(FAMILIES) + " |")
    print("|---|" + "---|" * len(FAMILIES))
    for n in DEGREES:
        cells = []
        for family in FAMILIES:
            times = []
            for seed in SEEDS:
                c = workloads.family_equation(random.Random(seed), n, family)
                times.append(certify_ms(diagonal_restriction(SigmaKPolynomial(n, c))))
            cells.append(f"{statistics.median(times):.1f} ms")
        print(f"| d{n} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
