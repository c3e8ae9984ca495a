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


def format_significant(value):
    """``f"{value:.12g}"`` for a rational ``value``, rounded once, half to even.

    A float (the signed infinities of a ratio limit) prints as Python prints
    it; ``None`` (an undefined value) stays ``None``.
    """
    if value is None:
        return None
    if isinstance(value, float):
        return f"{value:.12g}"
    if not value:
        return "0"
    num, den = abs(value.numerator), value.denominator
    # e with 10**e <= |value| < 10**(e + 1), so |value| * 10**(11 - e) has 12
    # digits before the point; the bit lengths put e within one of its value
    e = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    while True:
        shift = 11 - e
        top, bottom = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
        mantissa, rest = divmod(top, bottom)
        if 10**11 <= mantissa < 10**12:
            break
        e += 1 if mantissa >= 10**12 else -1
    if 2 * rest > bottom or (2 * rest == bottom and mantissa % 2):
        mantissa += 1
    if mantissa == 10**12:
        mantissa, e = mantissa // 10, e + 1
    scientific = not -4 <= e < 12
    text = str(mantissa) if scientific or e >= 0 else "0" * -e + str(mantissa)
    point = 1 if scientific else max(e, 0) + 1
    text = (text[:point] + "." + text[point:]).rstrip("0").rstrip(".")
    return ("-" if value < 0 else "") + text + (f"e{e:+03d}" if scientific else "")


def sign(value) -> int:
    """-1, 0 or +1."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def on_common_denominator(ratios) -> tuple[list[int], int]:
    """``([D * p / q for each (p, q)], D)``, with ``D`` the least common denominator of the pairs."""
    d = math.lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the convention that out-of-range indices give 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)
