"""Span tracer that wraps sigmak's public functions from outside the package.

Every wrapped call records a span: its name, start, end and parent span.
Spans stay in memory and are written out when the traced pass ends.  A
span's self time is its duration minus the durations of its direct
children, accumulated as the calls return.

A function is patched on every loaded sigmak module that holds it (for
example ``evaluate`` in both ``poly`` and ``realroots``), and a method on
its class, so calls between sigmak modules are seen as well.

Run as a script, it is a traced ``sigmak`` command line:

    python3 bench/tracer.py OUT.jsonl -- certify eq.json --digits 8

which runs the command and appends one JSON line with its spans and
per-name totals to OUT.jsonl.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

# span name -> (module, attribute path); the name is the per-layer metric prefix
TARGETS = {
    "equations.certify_stable": ("sigmak.equations", "certify_stable"),
    "equations.cone_membership": ("sigmak.equations", "cone_membership"),
    "equations.dominates": ("sigmak.equations", "dominates"),
    "equations.sample_region": ("sigmak.equations", "sample_region"),
    "analysis.midpoint_convexity_test": ("sigmak.analysis", "midpoint_convexity_test"),
    "rootchain.certify_right": ("sigmak.rootchain", "certify_right"),
    "realroots.isolate_real_roots": ("sigmak.realroots", "isolate_real_roots"),
    "realroots.sign_at": ("sigmak.realroots", "sign_at"),
    "realroots.refine": ("sigmak.realroots", "refine"),
    "realroots.approx": ("sigmak.realroots", "approx"),
    "realroots.compare": ("sigmak.realroots", "compare"),
    "poly.evaluate": ("sigmak.poly", "evaluate"),
    "poly.eval_interval": ("sigmak.poly", "Poly.eval_interval"),
    "poly.sturm_chain": ("sigmak.poly", "sturm_chain"),
    "poly.SturmChain.count": ("sigmak.poly", "SturmChain.count"),
    "poly.poly_gcd": ("sigmak.poly", "poly_gcd"),
    "poly.squarefree_part": ("sigmak.poly", "squarefree_part"),
    "poly.yun_decomposition": ("sigmak.poly", "yun_decomposition"),
}
# process-wide caches whose hit ratio the traced pass reports
CACHES = {
    "equations.certify_stable": ("sigmak.equations", "certify_stable"),
    "poly.sturm_chain": ("sigmak.poly", "sturm_chain"),
}


def cache_counts() -> dict:
    """``{name: (hits, misses)}`` read from each loaded cache's ``cache_info()``."""
    out = {}
    for name, (module, attr) in CACHES.items():
        mod = sys.modules.get(module)
        if mod is not None:
            fn = getattr(mod, attr)
            info = getattr(fn, "__wrapped_cache__", fn).cache_info()
            out[name] = (info.hits, info.misses)
    return out


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.spans = array("q")  # flat (name id, start ns, end ns, parent index)
        self.calls = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.by_degree = {}  # certify_right duration (ns) lists, keyed by degree
        self.sampled = 0  # points returned by sample_region
        self.sampling_tests = 0  # cone_membership calls made directly by sample_region
        self.cache = {}  # cache name -> [hits, misses] while installed
        self._cache_before = {}
        self._stack = [-1]
        self._child_ns = [0]
        self._patched = []

    def install(self):
        notes = {
            "rootchain.certify_right": self._note_degree,
            "equations.sample_region": self._note_sampled,
            "equations.cone_membership": self._note_membership,
        }
        for name_id, name in enumerate(self.names):
            module, path = TARGETS[name]
            mod = sys.modules.get(module)
            if mod is None:
                continue  # a module this run never imports has no calls to trace
            if "." in path:
                owner_name, attr = path.split(".")
                owners = [getattr(mod, owner_name)]
                original = getattr(owners[0], attr)
            else:
                attr = path
                original = getattr(mod, attr)
                owners = [
                    m
                    for key, m in list(sys.modules.items())
                    if key.split(".")[0] == "sigmak" and getattr(m, attr, None) is original
                ]
            wrapper = self._wrap(name_id, original, notes.get(name))
            if hasattr(original, "cache_info"):
                wrapper.__wrapped_cache__ = original
            for owner in owners:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        self._cache_before = cache_counts()

    def uninstall(self):
        after = cache_counts()
        self.cache = {
            name: [after[name][0] - hits, after[name][1] - misses]
            for name, (hits, misses) in self._cache_before.items()
        }
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name_id, fn, note):
        spans, stack, child_ns = self.spans, self._stack, self._child_ns
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans) >> 2
            spans.extend((name_id, 0, 0, parent))
            stack.append(index)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child_ns.pop()
                duration = end - start
                child_ns[-1] += duration
                spans[4 * index + 1] = start
                spans[4 * index + 2] = end
                calls[name_id] += 1
                total_ns[name_id] += duration
                self_ns[name_id] += duration - inner
            if note is not None:
                note(parent, args, result, duration)
            return result

        return traced

    def _note_degree(self, parent, args, result, duration):
        self.by_degree.setdefault(int(args[0].degree), []).append(duration)

    def _note_sampled(self, parent, args, result, duration):
        self.sampled += len(result)

    def _note_membership(self, parent, args, result, duration):
        if parent >= 0 and self.names[self.spans[4 * parent]] == "equations.sample_region":
            self.sampling_tests += 1

    def write(self, path: str):
        """Append one JSON line: per-name totals, cache counts and every span.

        Span starts and ends are relative to the first span's start.
        """
        origin = self.spans[1] if self.spans else 0
        flat = list(self.spans)
        for i in range(0, len(flat), 4):
            flat[i + 1] -= origin
            flat[i + 2] -= origin
        record = {
            "names": self.names,
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "by_degree": self.by_degree,
            "sampled": self.sampled,
            "sampling_tests": self.sampling_tests,
            "cache": self.cache,
            "spans": flat,
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


def _traced_cli(out_path: str, argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import sigmak.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = sigmak.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.write(out_path)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py OUT.jsonl -- SIGMAK-ARGS...")
    sys.exit(_traced_cli(sys.argv[1], sys.argv[3:]))
