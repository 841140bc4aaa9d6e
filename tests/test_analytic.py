"""Closed-form ring/star oracles against exact solves and frozen values."""
import math
import random
from fractions import Fraction

import pytest

from lambdaprime import analytic
from lambdaprime.analytic import (
    MS_CONSTANT,
    lamcc_ratio,
    lamcc_schedule,
    ms_gamma,
    ring_f,
    ring_g,
    ring_lower_bound,
    ring_lp,
    ring_q,
    ring_special_lambdas,
    star_lp_solution,
)
from lambdaprime.exact import exact_opt_curve
from lambdaprime.graphs import gen_ring, gen_star
from lambdaprime.lp import lp_curve, solve_lp
from lambdaprime.rationals import ceil_log


def test_ring_lp_frozen_values():
    assert ring_lp(3, Fraction(1, 8)) == (Fraction(7, 2), 4)
    assert ring_lp(3, Fraction(1, 2)) == (6, 2)
    assert ring_lp(4, Fraction(1, 8)) == (7, 4)


def _ring_lp_by_scan(k, lam):
    """The reference: the best block size by a scan of t = 1..n, the first
    on ties."""
    n = 2 ** k
    best_v, best_t = None, None
    for t in range(1, n + 1):
        v = analytic._h(n, t, lam)
        if best_v is None or v < best_v:
            best_v, best_t = v, t
    return best_v, best_t


def test_ring_lp_matches_the_scan():
    # random lams, the special ones, both domain ends and every tie
    # h(t) = h(t+1), at lam = 2/(t(t+1))
    rng = random.Random(7)
    for k in range(3, 9):
        n = 2 ** k
        lo, hi = Fraction(8, n * n), Fraction(1, 2)
        lams = [lo, hi] + ring_special_lambdas(k)
        lams += [lo + (hi - lo) * Fraction(rng.randint(0, 10 ** 6), 10 ** 6)
                 for _ in range(300)]
        lams += [Fraction(2, t * (t + 1)) for t in range(1, n)
                 if lo <= Fraction(2, t * (t + 1)) <= hi]
        for lam in lams:
            assert ring_lp(k, lam) == _ring_lp_by_scan(k, lam), (k, lam)


def test_ring_lp_on_a_huge_ring_costs_two_evaluations(monkeypatch):
    # the 2^40-ring at 1/4: sqrt(8) lies between 2 and 3, and t = 3 wins
    calls = []
    real = analytic._h

    def counted(n, t, lam):
        calls.append(t)
        return real(n, t, lam)

    monkeypatch.setattr(analytic, "_h", counted)
    n = 2 ** 40
    assert ring_lp(40, Fraction(1, 4)) == (Fraction(7 * n, 12), 3)
    assert sorted(set(calls)) == [2, 3]


def test_ring_lp_domain():
    with pytest.raises(ValueError):
        ring_lp(3, Fraction(1, 9))  # below 8/64
    with pytest.raises(ValueError):
        ring_lp(3, Fraction(3, 5))
    with pytest.raises(ValueError):
        ring_lp(2, Fraction(1, 4))


def test_ring_lp_matches_exact_curve():
    curve = lp_curve(gen_ring(3))
    for j in range(11):
        lam = Fraction(1, 8) + j * Fraction(3, 80)
        assert ring_lp(3, lam)[0] == curve.value_at(lam)


def test_ring16_exact_curve_is_the_closed_form():
    curve = lp_curve(gen_ring(4))
    lo, *_, hi = ring_special_lambdas(4)  # ring_lp's domain [8/n^2, 1/2]
    inside = [lam for lam in curve.breakpoints if lo <= lam <= hi]
    assert inside
    for lam in inside + ring_special_lambdas(4):
        assert ring_lp(4, lam)[0] == curve.value_at(lam), lam


@pytest.mark.slow
def test_ring32_exact_curve_is_the_closed_form():
    # the 16-ring check above on the 32-ring, a walk of over 1200 pivots: the
    # domain's ends, the curve's breakpoints inside it and the special lams
    curve = lp_curve(gen_ring(5))
    special = ring_special_lambdas(5)
    lo, hi = special[0], special[-1]
    inside = [lam for lam in curve.breakpoints if lo <= lam <= hi]
    points = [lo, hi] + inside + special
    assert len(points) == 21
    for lam in points:
        assert ring_lp(5, lam)[0] == curve.value_at(lam), lam


def test_ring_g_and_q_frozen():
    assert abs(ring_g(3, Fraction(1, 8)) - 3.5) < 1e-12
    assert ring_g(3, 0) == 0
    assert abs(ring_q(3, Fraction(1, 8)) - 3.0) < 1e-12
    with pytest.raises(ValueError):
        ring_g(3, Fraction(11, 10))
    with pytest.raises(ValueError):
        ring_q(3, Fraction(1, 9))


@pytest.mark.parametrize("k,lam", [(539, Fraction(8, 4 ** 539)), (1100, Fraction(1, 4))])
def test_float_ring_oracles_refuse_what_a_double_cannot_hold(k, lam):
    # 8/n^2 reads 0.0 as a double at k = 539; n = 2^k overflows past k = 1023
    for oracle in (ring_q, ring_g):
        with pytest.raises(ValueError, match="ring k=%d:" % k):
            oracle(k, lam)


def test_float_ring_oracles_past_the_old_limit():
    # a normal lambda on a ring past k = 512, where 8/n^2 is subnormal
    assert ring_q(600, Fraction(1, 4)) == float.fromhex("0x1.0f876ccdf6cdap+599")
    assert ring_g(600, Fraction(1, 4)) == float.fromhex("0x1.2a09e667f3bcdp+599")


def test_ring_sandwich_quick():
    for j in range(25):
        lam = Fraction(1, 8) + j * Fraction(3, 192)
        g = ring_g(3, lam)
        q = ring_q(3, lam)
        lp = float(ring_lp(3, lam)[0])
        slack = 1e-9
        assert q <= g * (1 + slack)
        assert g <= lp * (1 + slack)
        assert lp <= math.sqrt(2) * g * (1 + slack)
        assert math.sqrt(2) * g <= (4 * math.sqrt(2) / 3) * q * (1 + slack)


def test_special_lambdas_and_f_at_them():
    lams = ring_special_lambdas(4)
    assert lams == [Fraction(2, 64), Fraction(2, 16), Fraction(1, 2)]
    curve, _ = exact_opt_curve(gen_ring(3))
    for lam in ring_special_lambdas(3):
        v, t = ring_lp(3, lam)
        assert ring_f(3, lam) == v
        assert abs(ring_g(3, lam) - float(v)) < 1e-9
        # at special lambdas the LP value is attained by a clustering
        assert curve.value_at(lam) == v


def test_ring_f_between_special_points():
    for lam_i, t_i in ((Fraction(2, 64), 8), (Fraction(2, 16), 4)):
        lam = lam_i * 3 / 2  # inside [lam_i, 2 lam_i)
        f = ring_f(4, lam)
        n = 16
        assert f == Fraction(n, t_i) * (1 + lam * (t_i * (t_i - 1) // 2))
        assert f >= ring_lp(4, lam)[0]


def test_ring_f_upper_bound_grid():
    for k in (3, 4):
        lo, hi = Fraction(8, 4 ** k), Fraction(1, 2)
        for j in range(200):
            lam = lo + (hi - lo) * j / 199
            f = float(ring_f(k, lam))
            assert ring_lp(k, lam)[0] <= f + 1e-12
            assert f <= math.sqrt(2) * ring_g(k, lam) * (1 + 1e-9)


def test_ring_f_domain():
    with pytest.raises(ValueError):
        ring_f(3, Fraction(1, 9))
    with pytest.raises(ValueError):
        ring_f(3, Fraction(2, 3))


def test_star_solution_matches_lp():
    x, line, (lo, hi) = star_lp_solution(5)
    assert (line.P, line.N) == (2, 2)
    assert line.value_at(Fraction(3, 10)) == Fraction(13, 5)
    assert lo == Fraction(1, 4) and hi == Fraction(1, 2)
    for n in (4, 5, 6, 7):
        x, line, (lo, hi) = star_lp_solution(n)
        for lam in (lo + (hi - lo) / 3, lo + (hi - lo) * 2 / 3):
            sol = solve_lp(gen_star(n), lam)
            assert sol.value == line.value_at(lam)
            assert tuple(sol.x) == x


def test_star_solution_loses_below_interval():
    x, line, (lo, _) = star_lp_solution(6)
    lam = lo / 2
    one_cluster = lam * Fraction(6 * 5, 2)
    assert one_cluster < line.value_at(lam)


def test_ms_gamma_and_lower_bound():
    assert abs(ms_gamma(math.sqrt(2)) - (3 + 2 * math.sqrt(2)) ** 2) < 1e-9
    assert ring_lower_bound(3, 1.1) == 1
    assert ring_lower_bound(20, 1.1) > ring_lower_bound(3, 1.1)
    with pytest.raises(ValueError):
        ring_lower_bound(3, 1)
    with pytest.raises(ValueError):
        ms_gamma(0.5)
    assert abs(MS_CONSTANT - 4 * math.sqrt(2) / 3) < 1e-15


def test_lower_bound_monotone_in_k():
    prev = 0
    for k in range(3, 16):
        b = ring_lower_bound(k, 1.2)
        assert b >= prev
        prev = b


def test_lamcc_schedule():
    n, eps = 6, Fraction(1, 2)
    sched = lamcc_schedule(n, eps)
    assert sched[0] == Fraction(1, n * n + 1)
    assert sched[0] < Fraction(4, n * n)
    assert len(sched) == ceil_log(1 + eps, Fraction(n) ** 4) + 1
    assert all(0 < l < 1 for l in sched)
    assert all(a < b for a, b in zip(sched, sched[1:]))
    # last point reaches the gamma >= n^2 regime
    last_gamma = sched[-1] / (1 - sched[-1])
    assert last_gamma >= n * n


def test_lamcc_ratio_exact():
    sched = lamcc_schedule(5, Fraction(1, 3))
    for a, b in zip(sched, sched[1:]):
        assert lamcc_ratio(a, b) == Fraction(4, 3)
    assert lamcc_ratio(Fraction(1, 3), Fraction(1, 3)) == 1
    with pytest.raises(ValueError):
        lamcc_ratio(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        lamcc_ratio(0, Fraction(1, 2))


def test_schedule_requires_positive_eps():
    with pytest.raises(ValueError):
        lamcc_schedule(5, 0)
