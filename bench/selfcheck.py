"""Smoke test of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload named in BENCHMARK.json at smoke-test sizes, untraced
and traced, and checks that the last line carries exactly the metrics
BENCHMARK.json names, each with its unit and a numeric value, and that
``equations.certify_stable.hit_ratio`` reads 0 on certify-highdeg.  Then
it runs each workload with a deliberately wrong expected verdict and
checks that the correctness gate fires: a nonzero exit and
``"correct": false``.  Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(workload: str, trace: int, *extra: str):
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload]
    argv += ["--seed", "1", "--seconds", "1", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, result {result['correct']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want.items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(want.items()))
                problems.append(f"{label}: missing {missing}, unexpected {extra}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
                    problems.append(f"{label}: {name} is not a number")
            if trace and workload == "certify-highdeg":
                hit = result["metrics"].get("equations.certify_stable.hit_ratio", {}).get("value")
                if hit != 0:
                    problems.append(f"{label}: certify_stable hit ratio {hit}, expected 0")
        code, result = run(workload, 0, "--wrong-expected")
        if code == 0 or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: the gate did not fire on a wrong expected verdict")
    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
