"""Float oracles for the benchmark's correctness gate.

They share no code with sigmak: the chain comes from ``numpy.roots`` on
float coefficients, and cone membership from elementary symmetric
functions of every coordinate subset, vectorised over the subsets.  Each
oracle returns ``None`` where rounding could flip its answer (near ties,
roots close to the real axis, values close to a margin), so a skipped
check is never counted as a mismatch.
"""

from __future__ import annotations

import math
import os
from itertools import combinations

# One caller, one thread: BLAS helper threads would compete with the
# measured ops for the machine's cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread limit, which numpy reads on import)

# Chain values closer than this (relative to their size) count as a tie: a
# double root splits by up to ~1e-4 in float, distinct levels sit >= 3e-3 apart.
TIE_GAP = 5e-4
# A root whose imaginary part is below REAL_TOL * scale is real; one below
# AMBIGUOUS_TOL * scale could be either.
REAL_TOL = 1e-9
AMBIGUOUS_TOL = 1e-4
# Relative size below which a float membership value is too close to call.
VALUE_TOL = 1e-9


def diagonal_coeffs(n: int, c) -> list[float]:
    """Ascending float coefficients of ``x^n - sum_k c_k C(n, k) x^k``."""
    return [-float(c[k]) * math.comb(n, k) for k in range(n)] + [1.0]


def _largest_real_root(ascending: list[float]):
    """``(found, value)``; ``found`` is None when realness near the top is ambiguous."""
    roots = np.roots(ascending[::-1])
    if roots.size == 0:
        return False, None
    scale = 1.0 + float(np.abs(roots).max())
    imag = np.abs(roots.imag)
    real = roots.real[imag <= REAL_TOL * scale]
    top = float(real.max()) if real.size else None
    unsure = roots.real[(imag > REAL_TOL * scale) & (imag <= AMBIGUOUS_TOL * scale)]
    if unsure.size and (top is None or float(unsure.max()) >= top - TIE_GAP * scale):
        return None, None
    return top is not None, top


def _tie(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_GAP * (1.0 + abs(a) + abs(b))


def float_chain(ascending: list[float]):
    """Largest real root of every derivative, level 0 first; None if unreliable.

    A level whose derivative has no real root holds None inside the list.
    """
    chain = []
    current = list(ascending)
    for _ in range(len(ascending) - 1):
        found, value = _largest_real_root(current)
        if found is None:
            return None
        chain.append(value)
        current = [current[i] * i for i in range(1, len(current))]
    return chain


def chain_decision(ascending: list[float]):
    """Right-chain decision ``(verdict, failure_level, missing_root, chain)`` or None.

    ``verdict`` is "strict", "not-strict" or "failed"; ``chain`` is the
    float chain it was read from.  Level k passes when
    the derivative ``p^(k)`` has a real root at or above ``x_{k+1}``; the
    levels are tested from the top (k = n-2) down, as the definition reads.
    """
    chain = float_chain(ascending)
    if chain is None:
        return None
    n = len(chain)
    for k in range(n - 2, -1, -1):
        if chain[k] is None:
            return "failed", k, True, chain
        if _tie(chain[k], chain[k + 1]):
            return None
        if chain[k] < chain[k + 1]:
            return "failed", k, False, chain
    if n == 1 or chain[0] > chain[1]:
        return "strict", None, False, chain
    return "not-strict", None, False, chain


def _elementary(rows: np.ndarray) -> np.ndarray:
    """``e_0..e_m`` of every row of an ``(S, m)`` array, by the product recurrence."""
    count, m = rows.shape
    e = np.zeros((count, m + 1))
    e[:, 0] = 1.0
    for j in range(m):
        e[:, 1 : j + 2] = e[:, 1 : j + 2] + rows[:, j : j + 1] * e[:, : j + 1]
    return e


def member_level(n: int, c, point, margin: float):
    """Deepest nested cone level holding the point, by brute force over subsets.

    Level l >= 1 holds when the equation with coefficients ``c[l:]`` is
    above ``margin`` on every choice of ``n - l`` coordinates and level l+1
    holds; level 0 adds the full equation.  Returns ``(True, level)`` with
    level None for "outside every cone", or ``(False, None)`` when some
    value is too close to the margin to decide in floats.
    """
    coords = [float(v) for v in point]
    cs = np.array([float(v) for v in c])
    for level in range(n - 1, -1, -1):
        m = n - level
        kept = np.array(list(combinations(coords, m)))
        e, e_abs = _elementary(kept), _elementary(np.abs(kept))
        value = e[:, m] - e[:, :m] @ cs[level:]
        scale = e_abs[:, m] + e_abs[:, :m] @ np.abs(cs[level:])
        if np.any(np.abs(value - margin) <= VALUE_TOL * (1.0 + scale)):
            return False, None
        if not value.min() > margin:
            return True, (None if level == n - 1 else level + 1)
    return True, 0
