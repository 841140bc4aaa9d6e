"""Closed-form ground truth for ring and star graphs.

Ring graphs here are the n = 2^k cycles. Their LP relaxation value has the
closed form min_t (n/t)(1 + lam*C(t,2)) over integer t, with the continuous
relaxation g(lam) = n(sqrt(2 lam) - lam/2) as a lower bound and sqrt(2)*g as
an upper bound. At the special values lam_i = 2/2^(2(k-i)) the continuous
minimizer t_i = 2^(k-i) is an integer, so g = LP = OPT there, and the
piecewise function f interpolates between those integral solutions;
ring_sandwich lists the whole chain of bounds at one lambda.

Stars admit a half-integral LP optimum (center-leaf distances 1/2) on an
explicit lambda interval. The lamcc helpers translate a geometric schedule
through the map lam = gamma/(1+gamma) used by the scaled variant of the
objective, and ring_lower_bound counts how many solutions any curve
approximation needs on rings.

Rational-in, rational-out functions are exact; g, q, and the lower-bound
count involve square roots and are evaluated in floating point.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from .objectives import CostLine
from .rationals import ceil_log, rat


def _h(n, t, lam):
    """LP value of the all-distances-1/t solution on the n-ring."""
    return Fraction(n, t) * (1 + lam * (t * (t - 1) // 2))


def _check_ring_k(k):
    if k != int(k) or k < 3:
        raise ValueError("ring parameter k must be an integer >= 3")
    return 2 ** int(k)


def _check_ring_lam(k, lam):
    """(n, lam) on the 2^k-ring, lam checked to lie in [8/n^2, 1/2]."""
    n = _check_ring_k(k)
    lam = rat(lam)
    if not Fraction(8, n * n) <= lam <= Fraction(1, 2):
        raise ValueError("lambda outside [8/n^2, 1/2]")
    return n, lam


def ring_lp(k, lam):
    """Exact LP optimum on the 2^k-ring, with its minimizing block size t.

    _h(n, t, lam) = n/t + n*lam*(t-1)/2 is strictly convex in t > 0 with its
    real minimum at sqrt(2/lam), so for lam = p/q the best integer t is
    isqrt(2q // p) = floor(sqrt(2/lam)) or the next one, clipped to [1, n];
    a tie goes to the smaller t.
    """
    n, lam = _check_ring_lam(k, lam)
    t = min(max(math.isqrt(2 * lam.denominator // lam.numerator), 1), n)
    return min((_h(n, u, lam), u) for u in {t, min(t + 1, n)})


def ring_g(k, lam):
    """Continuous lower bound n(sqrt(2 lam) - lam/2); float."""
    n = _check_ring_k(k)
    lam = rat(lam)
    if not 0 <= lam <= 1:
        raise ValueError("lambda outside [0, 1]")
    lf = float(lam)
    return n * (math.sqrt(2 * lf) - lf / 2)


def ring_q(k, lam):
    """The (3n/4) sqrt(2 lam) comparison function; float."""
    n, lam = _check_ring_lam(k, lam)
    return (3 * n / 4) * math.sqrt(2 * float(lam))


def ring_special_lambdas(k):
    """The lam_i = 2/2^(2(k-i)) where g = LP = OPT, with t_i = 2^(k-i)."""
    _check_ring_k(k)
    return [Fraction(2, 4 ** (k - i)) for i in range(1, k)]


def ring_f(k, lam):
    """Piecewise upper bound built from the special integral solutions.

    On [lam_i, 2 lam_i) the solution for lam_i (block size t_i) is reused;
    on [2 lam_i, lam_{i+1}) the one for lam_{i+1}. Exact rational output.
    """
    n, lam = _check_ring_lam(k, lam)  # [lam_1, lam_{k-1}] = [8/n^2, 1/2]
    lams = ring_special_lambdas(k)
    for i in range(1, k - 1):
        li = lams[i - 1]
        if li <= lam < 4 * li:
            t = 2 ** (k - i) if lam < 2 * li else 2 ** (k - i - 1)
            return _h(n, t, lam)
    return _h(n, 2, lam)  # lam == lam_{k-1} == 1/2


def star_lp_solution(n):
    """Half-integral LP optimum of the n-node star.

    Returns (x, line, (lo, hi)): distances over the lex pairs of gen_star(n)
    (center-leaf 1/2, leaf-leaf 1), its cost line ((n-1)/2, (n-1)/2), and
    the open lambda interval (1/(n-1), 1/2) on which it is optimal.
    """
    if n < 3:
        raise ValueError("star needs n >= 3")
    x = []
    for i in range(n):
        for j in range(i + 1, n):
            x.append(Fraction(1, 2) if i == 0 else Fraction(1))
    half = Fraction(n - 1, 2)
    return tuple(x), CostLine(half, half), (Fraction(1, n - 1), Fraction(1, 2))


MS_CONSTANT = 4 * math.sqrt(2) / 3


def ms_gamma(x):
    """gamma(x) = (2x^2 - 1 + 2x sqrt(x^2 - 1))^2, defined for x >= 1."""
    if x < 1:
        raise ValueError("gamma needs x >= 1")
    return (2 * x * x - 1 + 2 * x * math.sqrt(x * x - 1)) ** 2


def ring_sandwich(k, lam):
    """The chain q <= g <= LP <= sqrt2*g <= (4*sqrt2/3)*q on the 2^k-ring at
    lam in [8/n^2, 1/2], as (name, smaller side, larger side) float triples;
    every link holds up to float rounding. That needs the smallest lambda
    8/n^2 = 2^(3-2k) to be a normal double, so k <= 512: past it float(lam)
    first loses bits, then reads 0 from k = 539 on (so q = g = 0 < LP), and
    past k = 1023 n itself overflows a float."""
    n = _check_ring_k(k)
    if Fraction(8, n * n) < sys.float_info.min:
        raise ValueError("ring k=%d: its smallest lambda 8/n^2 is not a normal "
                         "double (need k <= 512)" % k)
    q = ring_q(k, lam)
    g = ring_g(k, lam)
    lp = float(ring_lp(k, lam)[0])
    s2g = math.sqrt(2) * g
    return [
        ("q <= g", q, g),
        ("g <= lp", g, lp),
        ("lp <= sqrt2*g", lp, s2g),
        ("sqrt2*g <= (4*sqrt2/3)*q", s2g, MS_CONSTANT * q),
    ]


def ring_lower_bound(k, p):
    """Minimum size of any p-approximating solution family on the 2^k-ring."""
    n = _check_ring_k(k)
    p = float(p)
    if p <= 1:
        raise ValueError("approximation factor p must exceed 1")
    base = ms_gamma(p * MS_CONSTANT)
    # n // 4 = 2^(k-2) is exact, where n / 4 overflows a float past k = 1025
    return math.ceil((2 / 3) * math.log(n // 4) / math.log(base))


def lamcc_schedule(n, eps):
    """Geometric schedule for the scaled objective, mapped to lambda.

    gamma_1 = 1/n^2, gamma_{i+1} = (1+eps) gamma_i, lam_i = gamma_i/(1+gamma_i),
    with ceil(log_{1+eps} n^4) + 1 points.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    q = ceil_log(1 + eps, Fraction(n) ** 4) + 1
    out = []
    gamma = Fraction(1, n * n)
    for _ in range(q):
        out.append(gamma / (1 + gamma))
        gamma *= 1 + eps
    return out


def lamcc_ratio(lam_t, lam_next):
    """Worst-case transfer factor between two lambdas for the scaled objective."""
    lam_t, lam_next = rat(lam_t), rat(lam_next)
    if not 0 < lam_t <= lam_next < 1:
        raise ValueError("need 0 < lam_t <= lam_next < 1")
    return (lam_next / lam_t) * ((1 - lam_t) / (1 - lam_next))
