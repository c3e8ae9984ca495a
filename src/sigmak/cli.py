"""Command-line front end: JSON in, deterministic JSON reports out.

Input equations are ``{"n": int, "c": [c_0 ... c_{n-1} as strings or
numbers]}`` with fraction strings kept exact end to end.  Reports are byte-identical across
runs for identical inputs and seeds; wall-clock timings live in a separate
non-canonical field.  Exit codes: 0 success (whatever the verdict), 2 usage
or parse errors, 3 internal precondition violations.

``analysis``, ``presets`` and numpy are imported only by the commands that
use them, so a ``certify``, ``dominance`` or ``membership`` run does not
load them or mpmath.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from .equations import (
    SigmaKPolynomial,
    StabilityVerdict,
    certify_stable,
    cone_membership,
    diagonal_restriction,
    dominates,
)
from .errors import SigmaKError
from .poly import Poly
from .rationals import format_rational, parse_rational
from .realroots import Order, bracket, rounded
from .rootchain import certify_right

SCHEMA_VERSION = "1"
EXIT_USAGE = 2
EXIT_CONTRACT = 3
# upper bounds on sizes read from the command line; MAX_SAMPLES also caps
# the rows `deform` computes, its samples times its curves
MAX_DIGITS = 100
MAX_SAMPLES = 10000
# curves in the default `deform` grid
DEFORM_CURVES = 12


class UsageError(Exception):
    pass


def _read_equation(path: str) -> SigmaKPolynomial:
    try:
        if path == "-":
            raw = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and bytes that are not UTF-8;
        # RecursionError covers arrays nested too deep for the decoder
        raise UsageError(f"cannot read equation: {exc}") from exc
    return _equation_from_obj(raw)


def _equation_from_obj(raw) -> SigmaKPolynomial:
    if not isinstance(raw, dict) or "n" not in raw or "c" not in raw:
        raise UsageError('input must be an object with keys "n" and "c"')
    n, c = raw["n"], raw["c"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise UsageError('"n" must be an integer')
    if not isinstance(c, list) or any(
        isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in c
    ):
        raise UsageError('"c" must be an array of strings or numbers')
    try:
        return SigmaKPolynomial(n, tuple(parse_rational(str(v)) for v in c))
    except (ValueError, ZeroDivisionError, SigmaKError) as exc:
        raise UsageError(f"bad equation: {exc}") from exc


def _rational(text: str, what: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def _equation_json(f: SigmaKPolynomial) -> dict:
    return {"n": f.n, "c": [format_rational(v) for v in f.c]}


def _chain_payload(cert, digits: int) -> list[dict]:
    rows = []
    for level, alg in enumerate(cert.chain):
        if alg is None:
            rows.append({"level": level, "approx": None, "interval": None})
            continue
        interval = bracket(alg, digits + 3)
        rows.append(
            {
                "level": level,
                "approx": rounded(interval, digits),
                "interval": [format_rational(end) for end in interval],
            }
        )
    return rows


def canonical_body(report: dict) -> dict:
    """The deterministic part of a report (everything except timings)."""
    return {k: v for k, v in report.items() if k != "timings_ms"}


def _run_report(args) -> int:
    """Run a report command's parse and compute steps and write its report.

    ``parse(args)`` reads and validates every argument and returns the input
    echo and the parsed state; ``compute(args, state)`` returns the verdict,
    the chain rows and the extras.  Their wall times are the report's
    non-canonical ``timings_ms``.
    """
    parse, compute = args.steps
    t0 = time.perf_counter()
    input_obj, state = parse(args)
    t1 = time.perf_counter()
    verdict, chain, extras = compute(args, state)
    t2 = time.perf_counter()
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": input_obj,
        "verdict": verdict,
        "chain": chain,
        "extras": extras,
        "timings_ms": {"parse": (t1 - t0) * 1e3, "compute": (t2 - t1) * 1e3},
    }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0


def _numeric_chain(p: Poly) -> list[float]:
    """Float largest-root chain of every derivative; non-certificate path."""
    import numpy as np

    from .poly import derivative

    chain = []
    current = p
    n = int(p.degree)
    for _ in range(n):
        coeffs = [float(c) for c in reversed(current.coeffs)]
        roots = np.roots(coeffs) if len(coeffs) > 1 else np.array([])
        scale = 1.0 + max(abs(r) for r in roots) if len(roots) else 1.0
        real = [r.real for r in roots if abs(r.imag) <= 1e-9 * scale]
        chain.append(max(real) if real else None)
        current = derivative(current)
    return chain


def _parse_certify(args):
    equation = _read_equation(args.input)
    if not 1 <= args.digits <= MAX_DIGITS:
        raise UsageError(f"--digits must be between 1 and {MAX_DIGITS}")
    if args.convexity_pairs < 0:
        raise UsageError("--convexity-pairs must be >= 0")
    try:
        seed = int(os.environ.get("SIGMAK_SEED", "0"))
    except ValueError as exc:
        raise UsageError(f"SIGMAK_SEED must be an integer: {exc}") from exc
    return _equation_json(equation), (equation, seed)


def _certify(args, state):
    equation, seed = state
    extras: dict = {}
    if args.float_mode:
        chain = _numeric_chain(diagonal_restriction(equation))
        extras["mode"] = "numeric (non-certificate)"
        ok = all(v is not None for v in chain) and all(
            chain[k] >= chain[k + 1] - 1e-9 for k in range(len(chain) - 1)
        )
        strict = ok and len(chain) >= 2 and chain[0] > chain[1] + 1e-9
        verdict = (
            StabilityVerdict.STRICTLY_STABLE
            if strict
            else StabilityVerdict.STABLE
            if ok
            else StabilityVerdict.NOT_STABLE
        )
        chain_rows = [
            {"level": k, "approx": None if v is None else f"{v:.{args.digits}f}"}
            for k, v in enumerate(chain)
        ]
    else:
        report = certify_stable(equation)
        verdict = report.verdict
        chain_rows = _chain_payload(report.certificate, args.digits)
        if not report.is_stable:
            cert = report.certificate
            extras["failure_level"] = cert.failure_level
            extras["missing_root"] = cert.missing_root
    if args.convexity_pairs > 0:
        from . import analysis

        mid = analysis.midpoint_convexity_test(
            equation, args.convexity_pairs, seed, mode="float"
        )
        extras["midpoint_check"] = {
            "pairs": mid.pairs,
            "failures": mid.failures,
            "mode": mid.mode,
        }
    return verdict.value, chain_rows, extras


_ORDER_SYMBOL = {Order.GREATER: ">", Order.EQUAL: "=", Order.LESS: "<"}


def _parse_dominance(args):
    g = _read_equation(args.dominator)
    f = _read_equation(args.dominated)
    return {"dominator": _equation_json(g), "dominated": _equation_json(f)}, (g, f)


def _dominance(args, pair):
    result = dominates(*pair)
    extras = {
        "dominates": result.dominates,
        "levels": [_ORDER_SYMBOL[c] for c in result.comparisons],
        "inclusion": (
            "stable component of first argument is contained in the second's"
            if result.dominates
            else "no containment certified"
        ),
    }
    return "dominates" if result.dominates else "does-not-dominate", [], extras


def _parse_membership(args):
    equation = _read_equation(args.input)
    point = tuple(_rational(part, "point") for part in args.point.split(","))
    if len(point) != equation.n:
        raise UsageError(
            f"point has {len(point)} coordinates, equation has {equation.n}"
        )
    return _equation_json(equation), (equation, point)


def _membership(args, state):
    equation, point = state
    membership = cone_membership(
        equation, point, exhaustive=args.exhaustive
    )
    extras = {
        "member_of": membership.member_level,
        "c-subsolution": membership.is_subsolution,
        "failing_level": membership.failing_level,
        "failing_subset": list(membership.failing_subset)
        if membership.failing_subset is not None
        else None,
        "level_values": [
            {"level": level, "value": format_rational(value)}
            for level, value in membership.level_values
        ],
    }
    return "member" if membership.member_level is not None else "outside", [], extras


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError("range must be lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"bad range: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("range ends must be finite")
    if not hi > lo:
        raise UsageError("range must satisfy lo < hi")
    return lo, hi


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(f"{v:.12g}" for v in row) + "\n")


def _parse_alpha(args):
    equation = _read_equation(args.input)
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError(f"--samples must be between 1 and {MAX_SAMPLES}")
    lo, hi = _parse_range(args.range)
    return _equation_json(equation), (equation, lo, hi)


def _alpha(args, state):
    from . import analysis

    equation, lo, hi = state
    report = certify_stable(equation)
    if not report.is_stable:
        raise SigmaKError("ratio profile needs a stable (chain-certified) equation")
    restriction = diagonal_restriction(equation)
    rows = analysis.alpha_profile(restriction, lo, hi, args.samples)
    values = [v for _, v in rows]
    monotone = all(values[i + 1] >= values[i] - 1e-9 for i in range(len(values) - 1))
    extras = {
        "limit": format_rational(Fraction(equation.n - 1, equation.n)),
        "monotone_nondecreasing": monotone,
        "samples": len(rows),
        "max_value": f"{max(values):.12g}",
    }
    if args.csv:
        _write_csv(args.csv, "x,alpha", rows)
        extras["csv"] = args.csv
    else:
        extras["rows"] = [[f"{x:.12g}", f"{v:.12g}"] for x, v in rows]
    return report.verdict.value, [], extras


def _parse_grid(text: str) -> list[Fraction]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("grid must be lo:hi:count or a comma list")
        try:
            lo, hi, count = parse_rational(parts[0]), parse_rational(parts[1]), int(parts[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad grid: {exc}") from exc
        if not 1 <= count <= MAX_SAMPLES or not hi >= lo:
            raise UsageError(f"grid needs lo <= hi and 1 <= count <= {MAX_SAMPLES}")
        if count == 1:
            return [lo]
        step = (hi - lo) / (count - 1)
        return [lo + step * i for i in range(count)]
    return [_rational(part, "grid") for part in text.split(",")]


def _parse_deform(args):
    if args.poly:
        coeffs = [_rational(part, "polynomial") for part in args.poly.split(",")]
        target = Poly(coeffs)
        input_obj = {"poly": [format_rational(c) for c in coeffs]}
    else:
        if not args.input:
            raise UsageError("deform needs an input file or --poly")
        equation = _read_equation(args.input)
        target = diagonal_restriction(equation)
        input_obj = _equation_json(equation)
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError(f"--samples must be between 1 and {MAX_SAMPLES}")
    grid = _parse_grid(args.y_grid) if args.y_grid else None
    curves = DEFORM_CURVES if grid is None else len(grid)
    if args.samples * curves > MAX_SAMPLES:
        raise UsageError(
            f"--samples times the {curves} grid curves must be at most {MAX_SAMPLES}"
        )
    x_max = _rational(args.x_max, "--x-max") if args.x_max else None
    return input_obj, (target, grid, x_max)


def _deform(args, state):
    from . import analysis

    target, grid, x_max = state
    cert = certify_right(target)
    if not cert.succeeded:
        raise SigmaKError("deformation needs a chain-certified polynomial")
    if grid is None:
        m = cert.top_multiplicity or 1
        low = bracket(cert.chain[min(m, len(cert.chain) - 1)], 6)[1]
        high = cert.x0_bracket[0]
        if not high > low:
            raise SigmaKError("degenerate deformation window")
        step = (high - low) / DEFORM_CURVES
        grid = [low + step * i for i in range(1, DEFORM_CURVES + 1)]
    rows = analysis.deformation_profile(
        target, grid, args.samples, x_max, certificate=cert
    )
    descent = analysis.deformation_alpha_descent(
        target,
        grid,
        x_count=min(args.samples, 64),
        x_max=x_max,
        certificate=cert,
    )
    extras = {
        "curves": len(grid),
        "descending_in_y": descent.all_positive,
        "min_margin": None if descent.min_margin is None else f"{float(descent.min_margin):.12g}",
    }
    if args.csv:
        _write_csv(args.csv, "x,y,alpha", rows)
        extras["csv"] = args.csv
    else:
        extras["rows"] = [[f"{a:.12g}", f"{b:.12g}", f"{c:.12g}"] for a, b, c in rows]
    return "deformation", [], extras


def _cmd_preset(args) -> int:
    from .presets import (
        DhymSpec,
        dhym,
        hessian_type,
        j_equation,
        monge_ampere,
        nonneg_coeff,
        parse_phase,
    )

    name = args.name
    params = args.params
    extras = {}
    if not 0 <= args.precision <= MAX_DIGITS:
        raise UsageError(f"--precision must be between 0 and {MAX_DIGITS}")
    try:
        if name == "monge-ampere":
            equation = monge_ampere(int(params[0]), parse_rational(params[1]))
        elif name == "j-equation":
            equation = j_equation(int(params[0]), parse_rational(params[1]))
        elif name == "hessian":
            equation = hessian_type(int(params[0]), int(params[1]), parse_rational(params[2]))
        elif name in ("nonneg", "guan-zhang"):
            n = int(params[0])
            lower = [parse_rational(v) for v in params[1:]]
            equation = nonneg_coeff(n, lower, parse_rational(args.top)).equation
        elif name == "dhym":
            n = int(params[0])
            mult, offset = parse_phase(params[1])
            result = dhym(DhymSpec(n, mult, offset, args.precision))
            equation = result.equation
            extras = {
                "expected_chain": [f"{v:.12g}" for v in result.expected_chain],
                "branch": result.branch,
                "mode": "numeric (non-certificate)",
            }
        else:
            raise UsageError(f"unknown preset {name!r}")
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad preset parameters: {exc}") from exc
    payload = dict(_equation_json(equation))
    payload.update(extras)
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmak",
        description="Exact convexity certification of general inverse sigma_k level sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="certify stability / level-set convexity")
    certify.add_argument("input", nargs="?", default="-")
    certify.add_argument("--digits", type=int, default=3)
    certify.add_argument("--float", dest="float_mode", action="store_true")
    certify.add_argument(
        "--convexity-pairs",
        type=int,
        default=0,
        help="optionally run a seeded midpoint convexity check (SIGMAK_SEED)",
    )
    certify.set_defaults(func=_run_report, steps=(_parse_certify, _certify))

    dominance = sub.add_parser("dominance", help="per-level chain comparison of two equations")
    dominance.add_argument("dominator")
    dominance.add_argument("dominated")
    dominance.set_defaults(func=_run_report, steps=(_parse_dominance, _dominance))

    membership = sub.add_parser("membership", help="nested cone membership of a point")
    membership.add_argument("input")
    membership.add_argument("--point", required=True)
    membership.add_argument("--exhaustive", action="store_true")
    membership.set_defaults(func=_run_report, steps=(_parse_membership, _membership))

    alpha_cmd = sub.add_parser("alpha", help="log-concavity ratio profile as CSV")
    alpha_cmd.add_argument("input")
    alpha_cmd.add_argument("--range", required=True)
    alpha_cmd.add_argument("--samples", type=int, required=True)
    alpha_cmd.add_argument("--csv")
    alpha_cmd.set_defaults(func=_run_report, steps=(_parse_alpha, _alpha))

    deform = sub.add_parser("deform", help="deformation family ratio profile as CSV")
    deform.add_argument("input", nargs="?")
    deform.add_argument("--poly", help="raw ascending coefficients, comma separated")
    deform.add_argument("--y-grid", dest="y_grid")
    deform.add_argument("--samples", type=int, default=200)
    deform.add_argument("--x-max", dest="x_max")
    deform.add_argument("--csv")
    deform.set_defaults(func=_run_report, steps=(_parse_deform, _deform))

    preset = sub.add_parser("preset", help="emit a named equation as canonical JSON")
    preset.add_argument("name")
    preset.add_argument("params", nargs="*")
    preset.add_argument("--top", default="0")
    preset.add_argument("--precision", type=int, default=15)
    preset.set_defaults(func=_cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SigmaKError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
