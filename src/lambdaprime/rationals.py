"""Exact rational helpers shared across the package.

All certificate-bearing arithmetic is done with fractions.Fraction. Floats are
rejected at the API boundary because binary floats silently misrepresent
decimal inputs (0.3 != 3/10); callers pass Fraction, int, or a string such as
"0.3" or "3/10".
"""
from __future__ import annotations

import re
from fractions import Fraction
from numbers import Rational

#: guard distance used when a quantity must stay strictly inside (0,1)
GUARD = Fraction(1, 2**20)


def rat(x) -> Fraction:
    """Coerce x to an exact Fraction; floats are refused."""
    if isinstance(x, float):
        raise TypeError(
            "refusing float %r: pass a Fraction, int, or 'num/den'/decimal string" % x
        )
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    if isinstance(x, str):
        return parse_rat(x)
    return Fraction(x)


# The one grammar of a rational text, after strip(): an optional sign, then
# D+, D+/D+, D+.D* or .D+, where D is an ASCII digit. Fraction(str) reads a
# wider grammar that differs between Python releases (digit underscores,
# spaces around '/', any Unicode digit), so a file would parse on one
# interpreter and not on another.
_RATIONAL = re.compile(r"([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?", re.ASCII)


def parse_rat(text: str) -> Fraction:
    """Parse 'num/den' or decimal text into a Fraction; ValueError otherwise.

    The value is built from Python ints, never by Fraction(str). Exponents
    are refused: a few bytes such as '1e999999999' would build an integer
    of a billion digits."""
    if not isinstance(text, str):
        raise ValueError("not a rational: %r" % (text,))
    if "e" in text or "E" in text:
        raise ValueError("exponent in rational refused: %r" % (text,))
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValueError("Invalid literal for Fraction: %r" % (text.strip(),))
    sign, whole, den, frac = m.groups()
    frac = frac or ""
    try:
        return Fraction(int(sign + whole + frac), int(den) if den else 10 ** len(frac))
    except ZeroDivisionError:  # n/0
        raise ValueError("not a rational: %r" % (text,)) from None


def format_rat(q) -> str:
    """Canonical lossless text form: 'num/den', or 'num' when integral."""
    return str(rat(q))


def floor_log(base, x) -> int:
    """Largest integer j with base**j <= x, exact. Requires base > 1, x > 0."""
    b, v = rat(base), rat(x)
    if b <= 1:
        raise ValueError("base must exceed 1")
    if v <= 0:
        raise ValueError("x must be positive")
    j = 0
    p = Fraction(1)
    if v >= 1:
        while p * b <= v:
            p *= b
            j += 1
        return j
    while p > v:
        p /= b
        j -= 1
    return j


def ceil_log(base, x) -> int:
    """Smallest integer j with base**j >= x, exact."""
    j = floor_log(base, x)
    return j if rat(base) ** j == rat(x) else j + 1
