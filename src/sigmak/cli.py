"""Command-line front end: JSON in, deterministic JSON reports out.

Input equations are ``{"n": int, "c": [c_0 ... c_{n-1} as strings or
numbers]}`` with fraction strings kept exact end to end.  Reports are byte-identical across
runs for identical inputs and seeds; wall-clock timings live in a separate
non-canonical field.  Exit codes: 0 success (whatever the verdict), 2 usage
or parse errors, 3 internal precondition violations.

``analysis`` and ``presets`` are imported only by the commands that use
them, so a ``certify``, ``dominance`` or ``membership`` run loads neither.
No command imports anything outside the standard library, nor its data
classes module, which loads ``inspect`` and ``ast``: sigmak's records are
``NamedTuple``s or subclasses of one immutable base, which a cold start defines faster.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .equations import (
    SigmaKPolynomial,
    certify_stable,
    cone_membership,
    diagonal_restriction,
    dominates,
)
from .errors import EmptySampleRange, NotStableEquation, OutOfDeformationRange, SigmaKError
from .poly import Poly
from .rationals import format_rational, format_significant, parse_rational
from .realroots import Order, bracket, rounded
from .rootchain import certify_right

SCHEMA_VERSION = "1"
EXIT_USAGE = 2
EXIT_CONTRACT = 3
# upper bounds on sizes read from the command line; MAX_SAMPLES also caps
# the rows `deform` computes, its samples times its curves, and the pairs
# of `certify --convexity-pairs`
MAX_DIGITS = 100
MAX_PRESET_DEGREE = 1000
MAX_SAMPLES = 10000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are ``UsageError``s: one ``error:`` line, exit 2."""

    def error(self, message):
        raise UsageError(message)


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


def _parse_certify(args):
    equation = _read_equation(args.input)
    if not 1 <= args.digits <= MAX_DIGITS:
        raise UsageError(f"--digits must be between 1 and {MAX_DIGITS}")
    if not 0 <= args.convexity_pairs <= MAX_SAMPLES:
        raise UsageError(f"--convexity-pairs must be between 0 and {MAX_SAMPLES}")
    try:
        seed = int(os.environ.get("SIGMAK_SEED", "0"))
    except ValueError as exc:
        raise UsageError(f"SIGMAK_SEED must be an integer: {exc}") from exc
    return _equation_json(equation), (equation, seed)


def _certify(args, state):
    equation, seed = state
    report = certify_stable(equation)
    # --float stays for existing callers: the same certificate, plus its old label
    extras: dict = {"mode": "numeric (non-certificate)"} if args.float_mode else {}
    if not report.is_stable:
        extras["failure_level"] = report.certificate.failure_level
        extras["missing_root"] = report.certificate.missing_root
    if args.convexity_pairs > 0:
        from . import analysis

        # the midpoint test needs a strictly stable equation; other verdicts get none
        extras["midpoint_check"] = None
        if report.is_strict:
            mid = analysis.midpoint_convexity_test(equation, args.convexity_pairs, seed)
            extras["midpoint_check"] = {k: getattr(mid, k) for k in ("pairs", "failures", "mode")}
    return report.verdict.value, _chain_payload(report.certificate, args.digits), extras


_ORDER_SYMBOL = {Order.GREATER: ">", Order.EQUAL: "=", Order.LESS: "<"}


def _parse_dominance(args):
    g = _read_equation(args.dominator)
    f = _read_equation(args.dominated)
    if g.n != f.n:
        raise UsageError(f"dominance needs equations of equal degree, got {g.n} and {f.n}")
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


def _parse_range(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError("range must be lo:hi")
    lo, hi = (_rational(part, "range") for part in parts)
    if not hi > lo:
        raise UsageError("range must satisfy lo < hi")
    return lo, hi


def _emit_rows(args, extras: dict, header: str, rows) -> None:
    """Round exact rows once into ``--csv`` (undefined: an empty cell) or ``rows`` (null)."""
    rows = [[format_significant(v) for v in row] for row in rows]
    if args.csv is not None:
        try:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(header + "\n")
                handle.writelines(",".join(v or "" for v in row) + "\n" for row in rows)
        except OSError as exc:
            raise UsageError(f"cannot write --csv: {exc}") from exc
        extras["csv"] = args.csv
    else:
        extras["rows"] = rows


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
        raise NotStableEquation("ratio profile needs a stable (chain-certified) equation")
    restriction = diagonal_restriction(equation)
    rows = analysis.alpha_profile(restriction, lo, hi, args.samples)
    # undefined samples (one-sided limits that disagree) are left out of both
    values = [v for _, v in rows if v is not None]
    extras = {
        "limit": format_rational(Fraction(equation.n - 1, equation.n)),
        "monotone_nondecreasing": all(a <= b for a, b in zip(values, values[1:])),
        "samples": len(rows),
        "max_value": format_significant(max(values, default=None)),
    }
    _emit_rows(args, extras, "x,alpha", rows)
    return report.verdict.value, [], extras


def _parse_grid(text: str) -> list[Fraction]:
    from . import analysis

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
        return analysis._grid(lo, hi, count)
    return [_rational(part, "grid") for part in text.split(",")]


def _parse_deform(args):
    from . import analysis

    if (args.poly is None) == (args.input is None):
        raise UsageError("deform needs exactly one of an input file and --poly")
    if args.poly is not None:
        coeffs = [_rational(part, "polynomial") for part in args.poly.split(",")]
        target = Poly(coeffs)
        if target.degree < 1:
            raise UsageError("--poly needs a polynomial of degree at least 1")
        input_obj = {"poly": [format_rational(c) for c in coeffs]}
    else:
        equation = _read_equation(args.input)
        target = diagonal_restriction(equation)
        input_obj = _equation_json(equation)
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError(f"--samples must be between 1 and {MAX_SAMPLES}")
    grid = None if args.y_grid is None else _parse_grid(args.y_grid)
    if grid is not None and len(set(grid)) < len(grid):
        # a repeated curve would be compared with itself in the descent check
        raise UsageError("--y-grid values must be distinct")
    curves = analysis.DEFORM_CURVES if grid is None else len(grid)
    if args.samples * curves > MAX_SAMPLES:
        raise UsageError(
            f"--samples times the {curves} grid curves must be at most {MAX_SAMPLES}"
        )
    x_max = None if args.x_max is None else _rational(args.x_max, "--x-max")
    return input_obj, (target, grid, x_max)


def _deform(args, state):
    from . import analysis

    target, grid, x_max = state
    try:
        rows, descent = analysis.deformation_family(
            certify_right(target), grid, args.samples, min(args.samples, 64), x_max
        )
    except OutOfDeformationRange as exc:
        # the grid value may be hundreds of digits long: name the window, not the value
        raise UsageError(
            "--y-grid values must lie in the deformation window: from the largest root"
            " of p^(m), m the top root's multiplicity, to the largest root of p"
        ) from exc
    except EmptySampleRange as exc:
        raise UsageError("--x-max must lie above the largest curve parameter plus 1/100") from exc
    extras = {
        "curves": descent.curves,
        "descending_in_y": descent.all_positive,
        "min_margin": format_significant(descent.min_margin),
    }
    _emit_rows(args, extras, "x,y,alpha", rows)
    return "deformation", [], extras


def _preset_degree(text: str) -> int:
    n = int(text)
    if n > MAX_PRESET_DEGREE:
        raise UsageError(f"preset degree must be at most {MAX_PRESET_DEGREE}")
    return n


# the parameters each preset takes; nonneg takes n and then n - 1 coefficients
PRESET_PARAMS = {
    "monge-ampere": "n c0",
    "j-equation": "n c_top",
    "hessian": "n k ck",
    "nonneg": "n c_0 ... c_{n-2}",
    "guan-zhang": "n c_0 ... c_{n-2}",
    "dhym": "n theta",
}


def _cmd_preset(args) -> int:
    from . import presets

    name = args.name
    params = args.params
    extras = {}
    if name not in PRESET_PARAMS:
        raise UsageError(f"unknown preset {name!r}")
    for option, takers in (("--top", ("nonneg", "guan-zhang")), ("--precision", ("dhym",))):
        if getattr(args, option[2:]) is not None and name not in takers:
            raise UsageError(f"preset {name} does not take {option}")
    if args.precision is not None and not 0 <= args.precision <= MAX_DIGITS:
        raise UsageError(f"--precision must be between 0 and {MAX_DIGITS}")
    takes = PRESET_PARAMS[name]
    try:
        n = _preset_degree(params[0]) if params else None
        # nonneg takes n parameters in all
        if len(params) != (n if "..." in takes else len(takes.split())):
            raise UsageError(f"preset {name} takes the parameters {takes}, got {len(params)}")
        if name == "monge-ampere":
            equation = presets.monge_ampere(n, parse_rational(params[1]))
        elif name == "j-equation":
            equation = presets.j_equation(n, parse_rational(params[1]))
        elif name == "hessian":
            equation = presets.hessian_type(n, int(params[1]), parse_rational(params[2]))
        elif name in ("nonneg", "guan-zhang"):
            lower = [parse_rational(v) for v in params[1:]]
            top = parse_rational("0" if args.top is None else args.top)
            equation = presets.nonneg_coeff(n, lower, top).equation
        else:
            mult, offset = presets.parse_phase(params[1])
            precision = {} if args.precision is None else {"precision": args.precision}
            result = presets.dhym(n, mult, offset, **precision)
            equation = result.equation
            extras = {
                "expected_chain": [f"{v:.12g}" for v in result.expected_chain],
                "branch": result.branch,
                "mode": "numeric (non-certificate)",
            }
        # a coefficient past Python's 4300-digit int-to-str limit raises ValueError
        payload = dict(_equation_json(equation), **extras)
    except (ValueError, ZeroDivisionError, SigmaKError) as exc:
        # SigmaKError: a constructor's range check on a parameter
        raise UsageError(f"bad preset parameters: {exc}") from exc
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sigmak",
        description="Exact convexity certification of general inverse sigma_k level sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="certify stability / level-set convexity")
    certify.add_argument("input", nargs="?", default="-")
    certify.add_argument("--digits", type=int, default=3)
    certify.add_argument(
        "--float",
        dest="float_mode",
        action="store_true",
        help='the same exact certificate, labelled "numeric (non-certificate)"',
    )
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
    preset.add_argument("params", nargs="*", default=[])
    preset.add_argument("--top")
    preset.add_argument("--precision", type=int)
    preset.set_defaults(func=_cmd_preset)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:
        # only --help exits inside argparse; its rejections raise UsageError
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        # a float draw of `certify --convexity-pairs` that is itself beyond the float range
        print("error: a value of this input is outside the float range", file=sys.stderr)
        return EXIT_USAGE
    except SigmaKError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
