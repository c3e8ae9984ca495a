"""The benchmark's workloads: inputs from a seed, the timed ops and their gates.

A workload hands out its ops in cycles.  Every cycle holds the same mix of
op kinds, so a run that measures whole cycles measures the stated mix.  An
op is one timed call into sigmak plus an untimed check of its output; the
check returns None, or one line describing the mismatch.

Each workload imports the sigmak modules it drives when it is built, so
the set-up probe in ``run.py`` times exactly those imports.  The float
oracle (numpy) is imported only by the checks.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

EX11 = (5, ("-20", "9", "-64", "19", "0"))
EX12 = (5, ("-24", "-2", "65", "19", "0"))
EX11_CHAIN = ["11.632", "9.306", "6.909", "4.359", "0.000"]
EX12_CHAIN = ["15.250", "11.673", "8.066", "4.359", "0.000"]
# EX12 dominates EX11 with this per-level pattern (pinned by the tier-1 tests).
EX12_OVER_EX11 = ["GREATER", "GREATER", "GREATER", "EQUAL", "EQUAL"]


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _from_roots(roots):
    p = [Fraction(1)]
    for r in roots:
        p = _mul(p, [-r, Fraction(1)])
    return p


def _equation_coeffs(p):
    """Equation coefficients whose diagonal restriction is the monic ``p``."""
    n = len(p) - 1
    return tuple(-p[k] / math.comb(n, k) for k in range(n))


# -- certify-highdeg ----------------------------------------------------------

# Known verdict of each generated family.
FAMILY_VERDICT = {
    "real-rooted": "STRICTLY_STABLE",
    "repeated-top": "STABLE",
    "nonneg": "STRICTLY_STABLE",
    "not-stable": "NOT_STABLE",
    "no-real-root": "NOT_STABLE",
}
ORACLE_VERDICT = {"strict": "STRICTLY_STABLE", "not-strict": "STABLE", "failed": "NOT_STABLE"}


def _grid_roots(rng, n, count):
    """``count`` distinct half-integers, evenly spread with a random jitter.

    Root k sits at ``(3k + j_k) / 2`` with ``j_k`` drawn from {0, 1, 2}: the
    inputs differ from op to op and seed to seed, while the spacing, and
    with it the cost of an op, stays nearly the same.
    """
    first = -(count // 2)
    return [Fraction(3 * k + rng.randint(0, 2), 2) for k in range(first, first + count)]


def family_equation(rng, n, family):
    """Coefficients ``c_0..c_{n-1}`` of a degree-n equation of the named family."""
    if family == "nonneg":
        lower = [Fraction(rng.randint(1, 9), 2) for _ in range(n - 1)]
        return tuple(lower) + (Fraction(rng.randint(2, 4)),)
    if family == "real-rooted":
        return _equation_coeffs(_from_roots(_grid_roots(rng, n, n)))
    if family == "repeated-top":
        roots = _grid_roots(rng, n, n - 1)
        return _equation_coeffs(_from_roots(roots + [max(roots)]))
    if family == "not-stable":
        # q * ((x-b)^2 + e) with e < h^2/4, h = q(b)/q'(b): p' then has a root
        # in (b - h/2, b), above every real root of p, so the chain fails.
        q_roots = _grid_roots(rng, n, n - 2)
        q = _from_roots(q_roots)
        dq = [q[i] * i for i in range(1, len(q))]
        b = max(q_roots) + 4
        h = _horner(q, b) / _horner(dq, b)
        return _equation_coeffs(_mul(q, [b * b + h * h / 16, -2 * b, Fraction(1)]))
    if family == "no-real-root":
        # s + C with s real-rooted and C above (root span)^n >= -min s: every
        # derivative level passes as for s, and level 0 fails with no real root
        roots = _grid_roots(rng, n, n)
        s = _from_roots(roots)
        s[0] += (max(roots) - min(roots)) ** n + 1
        return _equation_coeffs(s)
    raise ValueError(f"unknown family {family!r}")


class CertifyHighdeg:
    """Fresh high-degree equations, one ``sigmak certify`` compute per op."""

    name = "certify-highdeg"
    families = ("real-rooted", "repeated-top", "nonneg", "not-stable", "no-real-root")

    def __init__(self, seed, small=False, wrong_expected=False):
        from sigmak import equations, realroots

        self.equations, self.realroots = equations, realroots
        self.rng = random.Random(seed)
        # (degree, ops per family) per cycle; the cheap degree gets the most ops,
        # so the median op sits inside one tight cluster of costs
        self.mix, self.top_degree = (((5, 3), (6, 1)), 8) if small else (((12, 3), (16, 1)), 24)
        self.expected = dict(FAMILY_VERDICT)
        if wrong_expected:
            self.expected["real-rooted"] = "NOT_STABLE"
        self.seen = set()

    def warm(self):
        pass

    def cycle(self, index):
        """Every family at each lower degree, then one real-rooted top-degree op."""
        plan = [(n, fam) for n, repeats in self.mix for _ in range(repeats) for fam in self.families]
        plan.append((self.top_degree, ("real-rooted", "repeated-top")[index % 2]))
        # interleaved, so a slow spell of the machine hits every kind alike
        self.rng.shuffle(plan)
        return [self._op(n, fam) for n, fam in plan]

    def _op(self, n, family):
        while True:
            c = family_equation(self.rng, n, family)
            if (n, c) not in self.seen:  # distinct inputs: no cache can serve an op
                self.seen.add((n, c))
                break
        f = self.equations.SigmaKPolynomial(n, c)
        return Op(
            f"d{n}-{family}",
            lambda: self._certify(f),
            lambda out: self._check(n, c, family, out),
        )

    def _certify(self, f):
        # the compute of `sigmak certify` at its default 3 digits
        report = self.equations.certify_stable(f)
        rows = []
        for alg in report.certificate.chain:
            if alg is None:
                rows.append(None)
                continue
            tight = self.realroots.refine(alg, Fraction(1, 10**6))
            rows.append((tight.interval, self.realroots.approx(alg, 3)))
        return report, rows

    def _check(self, n, c, family, out):
        import oracle

        report, rows = out
        verdict = report.verdict.name
        if verdict != self.expected[family]:
            return f"d{n} {family}: verdict {verdict}, family says {self.expected[family]}"
        decision = oracle.chain_decision(oracle.diagonal_coeffs(n, c))
        if decision is None:
            return None  # near tie: the float oracle cannot decide
        float_verdict, level, missing, chain = decision
        if ORACLE_VERDICT[float_verdict] != verdict:
            return f"d{n} {family}: verdict {verdict}, float oracle says {float_verdict}"
        cert = report.certificate
        if float_verdict == "failed" and (cert.failure_level, cert.missing_root) != (level, missing):
            return (
                f"d{n} {family}: failure at level {cert.failure_level} "
                f"(missing_root={cert.missing_root}), oracle says {level} ({missing})"
            )
        return check_chain_rows(rows, chain, 6, 3, f"d{n} {family}")


def check_chain_rows(rows, chain, interval_digits, digits, label):
    """Refined intervals and decimal strings agree with the float chain, when it is reliable."""
    if chain is None:
        return None
    for k, row in enumerate(rows):
        if row is None:
            continue
        interval, text = row
        x = chain[k]
        tol = 1e-6 * (1.0 + abs(x))
        if interval.hi - interval.lo > Fraction(1, 10**interval_digits):
            return f"{label}: level {k} interval wider than 1e-{interval_digits}"
        if not float(interval.lo) - tol <= x <= float(interval.hi) + tol:
            return f"{label}: level {k} interval misses the float root {x!r}"
        if abs(float(text) - x) > 0.5 * 10.0**-digits + tol:
            return f"{label}: level {k} approx {text} vs float root {x!r}"
    return None


# -- query-sampling -----------------------------------------------------------


class QuerySampling:
    """Membership, dominance and sampling queries on a fixed set of stable equations."""

    name = "query-sampling"
    SAMPLE_POINTS = 4
    MIDPOINT_PAIRS = 2

    def __init__(self, seed, small=False, wrong_expected=False):
        from sigmak import analysis, equations, presets

        self.analysis, self.equations = analysis, equations
        self.rng = random.Random(seed)
        self.pinned = list(reversed(EX12_OVER_EX11)) if wrong_expected else EX12_OVER_EX11
        eq = equations.SigmaKPolynomial
        self.set = {
            "EX11": eq(EX11[0], tuple(Fraction(v) for v in EX11[1])),
            "EX12": eq(EX12[0], tuple(Fraction(v) for v in EX12[1])),
            "monge-ampere": presets.monge_ampere(5, 7),
            "j-equation": presets.j_equation(4, 2),
            "hessian": presets.hessian_type(4, 1, 3),
            "nonneg": presets.nonneg_coeff(4, [1, 2, 3], -5).equation,
        }
        for n in range(5, 7 if small else 9):
            lower = [Fraction(k % 3 + 1, 2) for k in range(n - 1)]
            self.set[f"nonneg-{n}"] = presets.nonneg_coeff(n, lower, 1).equation
        self.pairs = [
            (g, f)
            for g in self.set
            for f in self.set
            if g != f and self.set[g].n == self.set[f].n
        ]
        self._chains = {}

    def warm(self):
        for f in self.set.values():
            self.equations.certify_stable(f)

    def _chain(self, name):
        import oracle

        if name not in self._chains:
            f = self.set[name]
            self._chains[name] = oracle.float_chain(oracle.diagonal_coeffs(f.n, f.c))
        return self._chains[name]

    def _point(self, name, exact):
        x0 = self._chain(name)[0]
        scale = 1.0 + abs(x0)
        values = [x0 + scale * self.rng.uniform(-0.5, 1.5) for _ in range(self.set[name].n)]
        if exact:
            return tuple(Fraction(round(v * 64), 64) for v in values)
        return tuple(values)

    def cycle(self, index):
        ops = []
        for name, f in self.set.items():
            mode = ("exact", "float")[(index + len(ops)) % 2]
            ops += [
                self._membership(name, self._point(name, True), False),
                self._membership(name, self._point(name, False), False),
                self._membership(name, self._point(name, True), True),
                self._sample(name, mode, self.rng.randrange(2**31)),
                self._midpoint(name, mode, self.rng.randrange(2**31)),
            ]
        ops += [self._dominance(g, f) for g, f in self.pairs]
        self.rng.shuffle(ops)
        return ops

    def _membership(self, name, point, exhaustive):
        f = self.set[name]

        def check(report):
            import oracle

            margin = 0.0 if isinstance(point[0], Fraction) else 1e-9
            sure, level = oracle.member_level(f.n, f.c, point, margin)
            if sure and level != report.member_level:
                return f"{name}: member level {report.member_level}, oracle says {level}"
            return None

        kind = "membership-exhaustive" if exhaustive else "membership"
        return Op(
            kind,
            lambda: self.equations.cone_membership(f, point, exhaustive=exhaustive),
            check,
        )

    def _sample(self, name, mode, seed):
        f = self.set[name]
        count = self.SAMPLE_POINTS

        def check(points):
            import oracle

            if len(points) != count:
                return f"{name}: sampled {len(points)} points, asked for {count}"
            margin = 0.0 if mode == "exact" else 1e-9
            for point in points:
                sure, level = oracle.member_level(f.n, f.c, point, margin)
                if sure and level != 0:
                    return f"{name}: sampled point outside the stable component"
            return None

        return Op(
            f"sample-{mode}",
            lambda: self.equations.sample_region(f, count, seed, mode=mode),
            check,
        )

    def _midpoint(self, name, mode, seed):
        f = self.set[name]
        pairs = self.MIDPOINT_PAIRS

        def check(report):
            if report.pairs != pairs or report.failures:
                return f"{name}: midpoint test {report.failures} failures in {report.pairs} pairs"
            return None

        return Op(
            f"midpoint-{mode}",
            lambda: self.analysis.midpoint_convexity_test(f, pairs, seed, mode=mode),
            check,
        )

    def _dominance(self, g_name, f_name):
        g, f = self.set[g_name], self.set[f_name]

        def check(report):
            import oracle

            levels = [c.name for c in report.comparisons]
            if report.dominates != all(v in ("GREATER", "EQUAL") for v in levels):
                return f"{g_name}/{f_name}: dominates flag disagrees with its levels"
            if (g_name, f_name) == ("EX12", "EX11"):
                if levels != self.pinned:
                    return f"EX12/EX11: levels {levels}, pinned {self.pinned}"
                return None
            for k, (a, b) in enumerate(zip(self._chain(g_name), self._chain(f_name))):
                if abs(a - b) <= oracle.TIE_GAP * (1.0 + abs(a) + abs(b)):
                    continue  # tie in floats: only the exact path can order them
                want = "GREATER" if a > b else "LESS"
                if levels[k] != want:
                    return f"{g_name}/{f_name}: level {k} {levels[k]}, float chain says {want}"
            return None

        return Op("dominance", lambda: self.equations.dominates(g, f), check)


# -- cli-small ----------------------------------------------------------------


def _json_equation(n, c):
    return {"n": n, "c": [str(Fraction(v)) for v in c]}


class CliSmall:
    """One ``sigmak`` subprocess per op on small inputs; the files exist before timing."""

    name = "cli-small"

    def __init__(self, seed, small=False, wrong_expected=False, *, src, workdir):
        self.rng = random.Random(seed)
        self.small = small
        self.ex11_verdict = "not-stable" if wrong_expected else "strictly-stable-convex"
        self.env = dict(os.environ, PYTHONPATH=src, SIGMAK_SEED="0")
        self.workdir = workdir
        self.prefix = [sys.executable, "-m", "sigmak"]
        self.bodies = {}  # argv -> canonical output of its first run
        self.spawned = 0
        self.timings = []  # (op number, wall, parse, compute) in ms, for ops that report them
        lower = [self.rng.randint(1, 9) for _ in range(3)]
        top = self.rng.randint(-6, 6)
        self.nonneg_params = [str(v) for v in lower] + ["--top", str(top)]
        self.inputs = {
            "EX11": EX11,
            "EX12": EX12,
            "monge-ampere": (3, (1, 0, 0)),
            "j-equation": (4, (0, 0, 0, 2)),
            "hessian": (4, (0, 3, 0, 0)),
            "nonneg": (4, tuple(lower) + (-top,)),
        }
        self.point = {
            name: ",".join(str(12 + Fraction(self.rng.randint(-16, 16), 4)) for _ in range(5))
            for name in ("EX11", "EX12")
        }

    def path(self, name):
        return os.path.join(self.workdir, f"{name}.json")

    def warm(self):
        os.makedirs(self.workdir, exist_ok=True)
        for name, (n, c) in self.inputs.items():
            with open(self.path(name), "w", encoding="utf-8") as handle:
                json.dump(_json_equation(n, c), handle)

    def cycle(self, index):
        ops = []
        for name in self.inputs:
            ops.append(self._certify(name, 3))
            ops.append(self._certify(name, 8))
        ops.append(self._certify_float("EX11"))
        ops.append(self._dominance("EX12", "EX11", True))
        ops.append(self._dominance("EX11", "EX12", False))
        ops += [self._membership(name) for name in ("EX11", "EX12")]
        ops += [
            self._preset(["monge-ampere", "3", "1"], self.inputs["monge-ampere"]),
            self._preset(["j-equation", "4", "2"], self.inputs["j-equation"]),
            self._preset(["hessian", "4", "1", "3"], self.inputs["hessian"]),
            self._preset(["nonneg", "4"] + self.nonneg_params, self.inputs["nonneg"]),
            self._preset(["dhym", "3", "3/4pi"], None),
        ]
        if self.small:
            ops = ops[::4]
        self.rng.shuffle(ops)
        return ops

    def _spawn(self, argv):
        # timed here as well, for the cli.emit_ms remainder
        t0 = time.perf_counter()
        proc = subprocess.run(
            self.prefix + argv, env=self.env, capture_output=True, timeout=120, check=False
        )
        wall_ms = (time.perf_counter() - t0) * 1e3
        self.spawned += 1
        return proc, wall_ms, self.spawned - 1

    def _op(self, kind, argv, semantic):
        key = tuple(argv)

        def run():
            return self._spawn(argv)

        def check(out):
            proc, wall_ms, number = out
            if proc.returncode != 0:
                return f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.decode()[-200:]}"
            try:
                report = json.loads(proc.stdout)
            except json.JSONDecodeError:
                return f"{' '.join(argv)}: output is not JSON"
            timings = report.pop("timings_ms", None)
            body = json.dumps(report, sort_keys=True)
            if self.bodies.setdefault(key, body) != body:
                return f"{' '.join(argv)}: canonical body differs from its first run"
            if timings is not None:
                self.timings.append((number, wall_ms, timings["parse"], timings["compute"]))
            return semantic(report)

        return Op(kind, run, check)

    def _certify(self, name, digits):
        argv = ["certify", self.path(name)] + ([] if digits == 3 else ["--digits", str(digits)])
        n, c = self.inputs[name]

        def semantic(report):
            import oracle

            want = self.ex11_verdict if name == "EX11" else "strictly-stable-convex"
            if report["verdict"] != want:
                return f"certify {name}: verdict {report['verdict']}, expected {want}"
            texts = [row["approx"] for row in report["chain"]]
            if digits == 3 and name in ("EX11", "EX12"):
                pinned = EX11_CHAIN if name == "EX11" else EX12_CHAIN
                if texts != pinned:
                    return f"certify {name}: chain {texts}, pinned {pinned}"
            chain = oracle.float_chain(oracle.diagonal_coeffs(n, c))
            rows = []
            for row in report["chain"]:
                lo, hi = (Fraction(v) for v in row["interval"])
                rows.append((_Interval(lo, hi), row["approx"]))
            return check_chain_rows(rows, chain, digits + 3, digits, f"certify {name}")

        return self._op(f"certify-{name}" + ("" if digits == 3 else f"-d{digits}"), argv, semantic)

    def _certify_float(self, name):
        n, c = self.inputs[name]

        def semantic(report):
            import oracle

            if report["verdict"] != "strictly-stable-convex":
                return f"certify --float {name}: verdict {report['verdict']}"
            chain = oracle.float_chain(oracle.diagonal_coeffs(n, c))
            for row, x in zip(report["chain"], chain):
                if abs(float(row["approx"]) - x) > 1e-3:
                    return f"certify --float {name}: {row['approx']} vs {x!r}"
            return None

        return self._op(f"certify-float-{name}", ["certify", self.path(name), "--float"], semantic)

    def _dominance(self, g, f, expected):
        def semantic(report):
            levels = report["extras"]["levels"]
            if report["extras"]["dominates"] is not expected:
                return f"dominance {g} {f}: dominates={report['extras']['dominates']}"
            if g == "EX12" and levels != [">", ">", ">", "=", "="]:
                return f"dominance EX12 EX11: levels {levels}"
            return None

        return self._op(f"dominance-{g}-{f}", ["dominance", self.path(g), self.path(f)], semantic)

    def _membership(self, name):
        n, c = self.inputs[name]
        point = self.point[name]

        def semantic(report):
            import oracle

            coords = [Fraction(v) for v in point.split(",")]
            sure, level = oracle.member_level(n, [Fraction(v) for v in c], coords, 0.0)
            if sure and report["extras"]["member_of"] != level:
                return f"membership {name}: member_of {report['extras']['member_of']}, oracle {level}"
            return None

        argv = ["membership", self.path(name), "--point", point]
        return self._op(f"membership-{name}", argv, semantic)

    def _preset(self, params, expected):
        def semantic(payload):
            if expected is None:
                ok = payload["n"] == 3 and len(payload["c"]) == 3
                ok = ok and payload["branch"] == "supercritical"
                return None if ok else f"preset {params[0]}: unexpected payload"
            if payload != _json_equation(*expected):
                return f"preset {params[0]}: {payload} vs {_json_equation(*expected)}"
            return None

        return self._op(f"preset-{params[0]}", ["preset"] + params, semantic)


class _Interval(NamedTuple):
    lo: Fraction
    hi: Fraction


WORKLOADS = {w.name: w for w in (CertifyHighdeg, QuerySampling, CliSmall)}
