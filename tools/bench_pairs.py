"""Alternating benchmark pairs of two checkouts: medians, quartiles and wins.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` once
in each, from that checkout's root; the side that runs first alternates
from pair to pair, so a host that slows down over time favours neither.
For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles and the number of pairs the change won (``better``
decides the direction; a tie is no win), and with ``--json`` it writes the
runs and that summary to a file.  It changes no tracked file of either
tree (``bench/run.py`` keeps its scratch in the ignored ``bench/out/``);
it is evidence beside the benchmark's gates, not one of them.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root}: bench/run.py printed nothing (exit {done.returncode}): {done.stderr[-400:]}")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list, metrics: list) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {
            side: [p[side]["metrics"][name]["value"] for p in pairs] for side in ("parent", "change")
        }
        wins = sum(
            (c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"])
        )
        entry = {"better": metric["better"], "bound": metric["bound"]}
        for side, values in sides.items():
            q1, median, q3 = quartiles(values)
            entry[side] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
        entry["change_wins_pairs"] = f"{wins}/{len(pairs)}"
        parent_median = entry["parent"]["median"]
        if parent_median:
            entry["relative_change_of_median"] = round(
                entry["change"]["median"] / parent_median - 1, 4
            )
        entry["parent_iqr"] = round(entry["parent"]["q3"] - entry["parent"]["q1"], 4)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--json", type=Path, help="also write the runs and the summary here")
    args = parser.parse_args(argv)

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
        pairs.append(pair)
        shown = {side: pair[side]["metrics"]["ops_per_s"]["value"] for side in ("parent", "change")}
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): ops_per_s {shown}", flush=True)

    summary = summarize(pairs, metrics)
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, failed ops {failed}")
    print(f"{'metric':14s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s}  wins")
    for name, entry in summary.items():
        cells = [
            f"{entry[side]['median']:.4g} [{entry[side]['q1']:.4g}, {entry[side]['q3']:.4g}]"
            for side in ("parent", "change")
        ]
        print(f"{name:14s} {cells[0]:>32s} {cells[1]:>32s}  {entry['change_wins_pairs']}")
    if args.json:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "failed_ops": failed,
            "summary": summary,
            "runs": pairs,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
