"""Benchmark of sigmak: one workload, one seed, one closed loop with a single caller.

    python3 bench/run.py --workload certify-highdeg --seed 1 --seconds 30 --trace 0

Run from the repository root; sigmak is imported from ``src/``.  The
workload runs whole cycles of its op mix until ``--seconds`` of op time
have passed, and every op's output goes through the workload's
correctness gate.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones of
a traced pass (see ``README.md``).  Lines before it are a readable
summary and the run's provenance.

Exit codes: 0 when every op passed its gate, 1 when the gate failed, 2
when the sigmak sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from workloads import WORKLOADS, CliSmall

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 7  # fresh interpreters per run; setup_s is their median
PROBE_REPEATS = 5  # at least this many bare and importing interpreters per traced run
WALL_LIMIT_S = 140.0  # no new cycle starts past this wall time, so a run ends within 180 s
P90_MIN_OPS = 100  # op_p90_ms needs ten ops beyond it
# Never run while a change is being written; kept for validating its claims.
VALIDATION_SEED = 9001

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
_SPANS_WITH_SELF = (
    "equations.certify_stable",
    "equations.cone_membership",
    "analysis.midpoint_convexity_test",
    "rootchain.certify_right",
    "realroots.isolate_real_roots",
    "realroots.sign_at",
    "realroots.refine",
    "realroots.approx",
    "realroots.compare",
)
_KERNEL_SPANS = (
    "poly.evaluate",
    "poly.eval_interval",
    "poly.sturm_chain",
    "poly.SturmChain.count",
    "poly.poly_gcd",
    "poly.squarefree_part",
    "poly.yun_decomposition",
)
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.compute_ms": "ms",
    "cli.emit_ms": "ms",
    **{f"{s}.calls": "calls/op" for s in _SPANS_WITH_SELF + _KERNEL_SPANS},
    **{f"{s}.self_ms": "ms/op" for s in _SPANS_WITH_SELF},
    "equations.dominates.self_ms": "ms/op",
    "equations.sample_region.self_ms": "ms/op",
    **{f"{s}.ms": "ms/op" for s in _KERNEL_SPANS},
    "equations.certify_stable.hit_ratio": "ratio",
    "poly.sturm_chain.hit_ratio": "ratio",
    "equations.sample_region.accept_ratio": "ratio",
    "rootchain.certify_right.d12_ms": "ms",
    "rootchain.certify_right.d16_ms": "ms",
    "rootchain.certify_right.d24_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Stats:
    """Op times, op counts by kind and gate failures of one pass."""

    def __init__(self):
        self.times = []
        self.by_kind = {}  # op kind -> its op times
        self.cycle_rates = []  # ops per second of op time, one per whole cycle
        self.failures = []

    @property
    def busy(self) -> float:
        return sum(self.times)

    def run(self, op):
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising op counts as failed; the loop goes on
            out, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.by_kind.setdefault(op.kind, []).append(elapsed)
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:  # malformed output is a gate failure too
                error = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(error)


def run_cycles(workload, seconds, replay=None, between=None, keep=False):
    """Whole cycles until ``seconds`` of op time have passed, or replay the given cycles.

    A new cycle starts while the op time so far is under ``seconds``, so the
    op mix is never cut short and a run holds the same number of cycles
    unless the host speed changes a lot.  ``between`` runs, untimed, after
    each op.
    The cycles run are returned only with ``keep``: held ops would
    otherwise grow the process and its peak memory with the op count.
    """
    wall_start = time.monotonic()
    stats, kept = Stats(), []
    index, last = 0, 0.0
    while True:
        if replay is not None:
            if index == len(replay):
                break
            ops = replay[index]
        else:
            if index and (
                stats.busy >= seconds or time.monotonic() - wall_start + last > WALL_LIMIT_S
            ):
                break
            ops = workload.cycle(index)
        begin = stats.busy
        for op in ops:
            stats.run(op)
            if between is not None:
                between()
        last = stats.busy - begin
        stats.cycle_rates.append(len(ops) / last)
        if keep:
            kept.append(ops)
        index += 1
    return stats, kept


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python ``Fraction`` loop: the host's speed, not sigmak's.

    Recorded in the provenance only, to tell a slow spell of a shared host
    from a slow commit.
    """
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 3000):
            acc += Fraction(1, i % 97 + 1)
        samples.append(time.perf_counter() - start)
    return _median_ms(samples)


def setup_seconds(args) -> float:
    """Median wall time from spawning a fresh interpreter to the workload's warm-up done."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup"]
    argv += ["--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        argv.append("--small")
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
        samples.append(float(out.split()[-1]) - start)
    return statistics.median(samples)


class FloorProbe:
    """Wall times of a bare ``python -c pass`` and of ``python -c "import sigmak.cli"``."""

    def __init__(self):
        self.bare, self.loaded = [], []

    def _spawn(self, code, into):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), check=True)
        into.append(time.monotonic() - start)

    def after_op(self):
        self._spawn("import sigmak.cli", self.loaded)

    def interp_import_ms(self) -> tuple[float, float]:
        while len(self.bare) < PROBE_REPEATS or len(self.loaded) < PROBE_REPEATS:
            self._spawn("pass", self.bare)
            self.after_op()
        interp = _median_ms(self.bare)
        return interp, _median_ms(self.loaded) - interp


def make_workload(args, workdir):
    cls = WORKLOADS[args.workload]
    extra = {"src": SRC, "workdir": workdir} if cls is CliSmall else {}
    return cls(args.seed, small=args.small, wrong_expected=args.wrong_expected, **extra)


def probe_setup(args) -> int:
    """Child side of ``setup_seconds``: import, build and warm up, then print the time."""
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    if args.workload == "cli-small":
        import sigmak.cli  # noqa: F401  (what every cli-small op pays at start)
    workload = make_workload(args, workdir)
    workload.warm()
    print(time.monotonic())
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def end_to_end(stats, setup_s, workload_name):
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-small" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(stats.cycle_rates),
        "op_p50_ms": _median_ms(stats.times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def _merge(records):
    total = {
        "calls": Counter(),
        "total_ns": Counter(),
        "self_ns": Counter(),
        "by_degree": {},
        "sampled": 0,
        "sampling_tests": 0,
        "cache": Counter(),
    }
    for rec in records:
        for key in ("calls", "total_ns", "self_ns"):
            total[key].update(dict(zip(rec["names"], rec[key])))
        for degree, values in rec["by_degree"].items():
            total["by_degree"].setdefault(int(degree), []).extend(values)
        total["sampled"] += rec["sampled"]
        total["sampling_tests"] += rec["sampling_tests"]
        for name, (hits, misses) in rec["cache"].items():
            total["cache"][name + ".hits"] += hits
            total["cache"][name + ".misses"] += misses
    return total


def per_layer(merged, ops, overhead, cli):
    def ratio(num, den):
        return num / den if den else 0.0

    values = dict(cli)
    values["trace.overhead_ratio"] = overhead
    for name in PER_LAYER:
        if name in values:
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "calls":
            values[name] = merged["calls"][span] / ops
        elif stat == "self_ms":
            values[name] = merged["self_ns"][span] / ops / 1e6
        elif stat == "ms":
            values[name] = merged["total_ns"][span] / ops / 1e6
        elif stat == "hit_ratio":
            hits, misses = merged["cache"][span + ".hits"], merged["cache"][span + ".misses"]
            values[name] = ratio(hits, hits + misses)
        elif stat == "accept_ratio":
            values[name] = ratio(merged["sampled"], merged["sampling_tests"])
        else:  # dNN_ms: median certify_right time at degree NN
            durations = merged["by_degree"].get(int(stat[1:-3]), [])
            values[name] = statistics.median(durations) / 1e6 if durations else 0.0
    return values


def traced_pass(args, workload):
    """Untraced then traced pass over the same cycles; returns per-layer values and stats."""
    import tracer

    floor = FloorProbe()
    # cli-small starts an importing interpreter right after each op, so that
    # cli.emit_ms subtracts a floor taken at the same moment as the op
    is_cli = isinstance(workload, CliSmall)
    plain, cycles = run_cycles(
        workload, args.seconds / 2, between=floor.after_op if is_cli else None, keep=True
    )
    loaded_ms = [t * 1e3 for t in floor.loaded]
    interp, imports = floor.interp_import_ms()
    cli = {"cli.interp_ms": interp, "cli.import_ms": imports}
    cli.update({"cli.parse_ms": 0.0, "cli.compute_ms": 0.0, "cli.emit_ms": 0.0})
    os.makedirs(OUT, exist_ok=True)
    dump = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    open(dump, "w", encoding="utf-8").close()
    if is_cli:
        rows = workload.timings  # (op number, wall, parse, compute) in ms
        cli["cli.parse_ms"] = statistics.median(r[2] for r in rows)
        cli["cli.compute_ms"] = statistics.median(r[3] for r in rows)
        cli["cli.emit_ms"] = statistics.median(w - p - c - loaded_ms[i] for i, w, p, c in rows)
        # each traced op is a child that appends its own record to the dump
        workload.prefix = [sys.executable, os.path.join(BENCH, "tracer.py"), dump, "--"]
        traced, _ = run_cycles(workload, 0, replay=cycles)
    else:
        for module, attr in tracer.CACHES.values():
            getattr(sys.modules[module], attr).cache_clear()
        workload.warm()
        trace = tracer.Tracer()
        trace.install()
        try:
            traced, _ = run_cycles(workload, 0, replay=cycles)
        finally:
            trace.uninstall()
        trace.write(dump)
    with open(dump, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    overhead = traced.busy / plain.busy
    merged = _merge(records)
    kernel_ns = sum(v for k, v in merged["self_ns"].items() if k.split(".")[0] in ("realroots", "poly"))
    note = f"realroots + poly self time = {kernel_ns / 1e9 / traced.busy:.1%} of traced op time"
    return per_layer(merged, len(traced.times), overhead, cli), plain, traced, note


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smoke-test sizes (bench/selfcheck.py)")
    parser.add_argument(
        "--wrong-expected",
        action="store_true",
        help="deliberately wrong expected verdict, to show the gate fires (bench/selfcheck.py)",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sigmak", "__init__.py")):
        print(f"error: sigmak sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_setup:
        return probe_setup(args)

    host_ms = [host_reference_ms()]
    workdir = os.path.join(OUT, f"cli-inputs-{os.getpid()}")
    workload = make_workload(args, workdir)
    try:
        workload.warm()
        if args.trace:
            metrics, plain, traced, note = traced_pass(args, workload)
            passes = {"untraced": plain, "traced": traced}
        else:
            plain, _ = run_cycles(workload, args.seconds)
            metrics = end_to_end(plain, setup_seconds(args), args.workload)
            passes = {"measured": plain}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host_ms.append(host_reference_ms())

    failures = [f for stats in passes.values() for f in stats.failures]
    attempted = sum(len(stats.times) for stats in passes.values())
    units = PER_LAYER if args.trace else END_TO_END
    for failure in failures[:20]:
        print(f"GATE FAILED: {failure}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, stats in passes.items():
        print(f"#   {name}: {len(stats.times)} ops in {stats.busy:.2f} s of op time, {len(stats.failures)} failed")
        medians = ", ".join(f"{k} {_median_ms(v):.1f}" for k, v in stats.by_kind.items())
        print(f"#     median ms by kind: {medians}")
    print(f"#   fail_ratio = {len(failures) / attempted:.4f} ({len(failures)}/{attempted} ops)")
    if args.trace:
        print(f"#   {note}")
    else:
        if len(plain.times) >= P90_MIN_OPS:
            p90 = statistics.quantiles(plain.times, n=10)[-1] * 1e3
            print(f"#   op_p90_ms = {p90:.3f} ms (n={len(plain.times)})")
        else:
            print(f"#   op_p90_ms omitted: {len(plain.times)} ops < {P90_MIN_OPS}")
    for name, value in metrics.items():
        print(f"#   {name} = {value:.6g} {units[name]}")
    provenance = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "validation_seed": args.seed == VALIDATION_SEED,
        "seconds": args.seconds,
        "host_ref_ms": host_ms,  # before and after the run
        "op_counts": {
            name: {kind: len(times) for kind, times in stats.by_kind.items()}
            for name, stats in passes.items()
        },
    }
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
