"""Exact rational helpers shared across the package.

All certificate-bearing arithmetic is done with fractions.Fraction. Floats are
rejected at the API boundary because binary floats silently misrepresent
decimal inputs (0.3 != 3/10); callers pass Fraction, int, or a string such as
"0.3" or "3/10".
"""
from __future__ import annotations

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
    return Fraction(x)


def parse_rat(text: str) -> Fraction:
    """Parse 'num/den' or decimal text into a Fraction; ValueError otherwise.

    Exponents are refused: a few bytes such as '1e999999999' would make
    Fraction build an integer of a billion digits."""
    if isinstance(text, str) and ("e" in text or "E" in text):
        raise ValueError("exponent in rational refused: %r" % (text,))
    try:
        return Fraction(text.strip())
    except (AttributeError, TypeError, ZeroDivisionError):  # not text, or n/0
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
