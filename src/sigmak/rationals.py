"""Exact rational scalars and their string forms.

The whole certificate path works over ``fractions.Fraction``: arbitrary
precision, always in lowest terms, positive denominator.  This module only
adds the canonical string round-trip used by the JSON interfaces and a few
small numeric helpers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# Bounds on rational literals: an exponent like "1e1000000000" would
# otherwise be expanded into an integer of a billion digits.
MAX_RATIONAL_LENGTH = 4096
MAX_DECIMAL_EXPONENT = 4096

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"19"``, ``"-64"``, ``"1/3"`` or a decimal string like ``"0.25"``.

    Decimal strings are read as exact scaled integers, never through binary
    floating point.  Literals longer than ``MAX_RATIONAL_LENGTH`` characters
    or with a decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` in magnitude
    raise ``ValueError``.
    """
    text = text.strip()
    if len(text) > MAX_RATIONAL_LENGTH:
        raise ValueError(f"rational literal longer than {MAX_RATIONAL_LENGTH} characters")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT} in magnitude")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Canonical string: integer part only, or ``"p/q"`` in lowest terms."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def sign(value) -> int:
    """-1, 0 or +1."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the convention that out-of-range indices give 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)
