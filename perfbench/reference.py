"""A fixed exact computation that measures how fast the host runs right now.

On a shared host the speed of one core can halve and recover within seconds,
as the host's share for this machine comes and goes; a run of tens of seconds
then measures the host as much as lambdaprime. The benchmark therefore times
this short reference (about 10 ms) between ops and reports op times as
multiples of the reference times around them. The reference
is exact rational Gauss-Jordan elimination in pure Python, the same kind of
work as lambdaprime's exact simplex (Fraction arithmetic on growing integers
in the interpreter), so a slower host slows both alike. It depends on the
standard library only: no change to the package can move it.
"""
from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

SIZE = 13
SEED = 7


def system():
    """The fixed integer system [A | b], SIZE x (SIZE + 1)."""
    rng = random.Random(SEED)
    return [[rng.randint(-9, 9) for _ in range(SIZE + 1)] for _ in range(SIZE)]


def solve(rows):
    """x with A x = b, by Gauss-Jordan elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        pivot_row = a[c]
        for r in range(n):
            f = a[r][c]
            if r != c and f != 0:
                a[r] = [v - f * w for v, w in zip(a[r], pivot_row)]
    return [row[-1] for row in a]


def is_solution(rows, x):
    return all(sum(Fraction(v) * xi for v, xi in zip(row, x)) == row[-1] for row in rows)


class Reference:
    """Times the reference solve; keeps every sample and checks the answer."""

    def __init__(self):
        self.rows = system()
        self.samples = []
        self.x = None

    def time(self):
        t = perf_counter()
        self.x = solve(self.rows)
        dt = perf_counter() - t
        self.samples.append(dt)
        return dt

    def correct(self):
        return self.x is not None and is_solution(self.rows, self.x)
