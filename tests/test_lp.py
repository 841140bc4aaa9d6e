"""Metric LP relaxation: structure, exact solves, value curve."""
import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdaprime.exact import exact_opt_curve
from lambdaprime import lp as lp_module
from lambdaprime.graphs import gen_gnp, gen_path, gen_ring, gen_star, make_graph
from lambdaprime.lp import build_lp, lp_curve, solve_lp
from lambdaprime.objectives import CostLine
from lambdaprime.serialize import solution_to_dict


def test_build_lp_shapes():
    assert build_lp(make_graph(2, [(0, 1)]), Fraction(1, 2)).num_vars == 1
    assert build_lp(make_graph(2, [(0, 1)]), Fraction(1, 2)).num_rows == 1
    p3 = build_lp(gen_star(3), Fraction(1, 2))
    assert p3.num_vars == 3
    assert p3.num_rows == 3 + 3
    p8 = build_lp(gen_ring(3), Fraction(1, 8))
    assert p8.num_vars == 28
    assert p8.num_rows == 3 * 56 + 28


def test_build_lp_triangle_rows_n3():
    p = build_lp(gen_star(3), Fraction(1, 4))
    # pairs are (0,1), (0,2), (1,2); one row per isolated pair
    assert p.rows[0] == ((0, -1), (1, 1), (2, 1))
    assert p.rows[1] == ((0, 1), (1, -1), (2, 1))
    assert p.rows[2] == ((0, 1), (1, 1), (2, -1))
    assert p.rows[3:] == (((0, -1),), ((1, -1),), ((2, -1),))
    assert p.rhs == (0, 0, 0, -1, -1, -1)
    assert p.constant == Fraction(3, 4)


def test_build_lp_costs():
    g = gen_star(3)  # edges (0,1), (0,2); non-edge (1,2)
    p = build_lp(g, Fraction(1, 3))
    assert p.c == (Fraction(2, 3), Fraction(2, 3), Fraction(-1, 3))


def test_build_lp_domain():
    with pytest.raises(ValueError):
        build_lp(gen_star(3), Fraction(3, 2))
    with pytest.raises(ValueError):
        build_lp(gen_star(3), Fraction(-1, 2))


def test_ring8_value_at_first_breakpoint():
    s = solve_lp(gen_ring(3), Fraction(1, 8))
    assert s.value == Fraction(7, 2)
    assert s.value == s.line.value_at(Fraction(1, 8))


def test_star5_half_integral_solution():
    s = solve_lp(gen_star(5), Fraction(3, 10))
    assert s.value == Fraction(13, 5)
    assert (s.line.P, s.line.N) == (2, 2)
    # center-leaf distances 1/2, leaf-leaf distances 1
    assert sorted(s.x) == [Fraction(1, 2)] * 4 + [1] * 6


def test_duals_are_certificates():
    g = gen_gnp(6, 0.5, seed=3)
    s = solve_lp(g, Fraction(2, 7))
    assert all(y >= 0 for y in s.dual)
    prob = build_lp(g, Fraction(2, 7))
    assert sum(y * bi for y, bi in zip(s.dual, prob.rhs)) + prob.constant == s.value


def test_dual_infeasible_certificate_rejected(monkeypatch):
    real = lp_module.solve_canonical

    def forged(c, rows, b):
        res = real(c, rows, b)
        dual_ub = list(res.dual_ub)
        # triangle row 0 has rhs 0, so b.y (strong duality) is unchanged
        # while A^T y exceeds c on two pairs
        dual_ub[0] -= 10
        return dataclasses.replace(res, dual_ub=dual_ub)

    monkeypatch.setattr(lp_module, "solve_canonical", forged)
    with pytest.raises(ValueError):
        solve_lp(gen_star(4), Fraction(1, 3))


def test_short_dual_certificate_rejected(monkeypatch):
    real = lp_module.solve_canonical

    def forged(c, rows, b):
        res = real(c, rows, b)
        # dropping trailing zeros keeps b.y and A^T y, so only the length shows
        dual_ub = list(res.dual_ub)
        while dual_ub and dual_ub[-1] == 0:
            dual_ub.pop()
        assert len(dual_ub) < len(res.dual_ub)
        return dataclasses.replace(res, dual_ub=dual_ub)

    monkeypatch.setattr(lp_module, "solve_canonical", forged)
    with pytest.raises(ValueError):
        solve_lp(gen_star(4), Fraction(1, 3))


def test_lp_lower_bounds_partitions():
    rng = random.Random(5)
    for seed in (1, 2):
        g = gen_gnp(6, 0.6, seed=seed)
        curve, _ = exact_opt_curve(g)
        for _ in range(4):
            lam = Fraction(rng.randint(1, 19), 20)
            assert solve_lp(g, lam).value <= curve.value_at(lam)


def test_lp_tight_where_integral():
    # blocks of 4 are LP-optimal for the 8-ring at its breakpoint
    g = gen_ring(3)
    curve, _ = exact_opt_curve(g)
    assert solve_lp(g, Fraction(1, 8)).value == curve.value_at(Fraction(1, 8))


def test_ring8_curve_pieces():
    c = lp_curve(gen_ring(3))
    got = [(p.line.P, p.line.N, p.lo, p.hi) for p in c.pieces]
    assert got == [
        (0, 28, 0, Fraction(1, 8)),
        (2, 12, Fraction(1, 8), Fraction(1, 6)),
        (Fraction(8, 3), 8, Fraction(1, 6), Fraction(1, 3)),
        (4, 4, Fraction(1, 3), 1),
    ]


def test_star5_curve_pieces():
    c = lp_curve(gen_star(5))
    got = [(p.line.P, p.line.N, p.lo, p.hi) for p in c.pieces]
    assert got == [(0, 10, 0, Fraction(1, 4)), (2, 2, Fraction(1, 4), 1)]


def test_curve_matches_pointwise_solves():
    rng = random.Random(11)
    for seed in (4, 9):
        g = gen_gnp(6, 0.5, seed=seed)
        c = lp_curve(g)
        for _ in range(3):
            lam = Fraction(rng.randint(1, 29), 30)
            assert c.value_at(lam) == solve_lp(g, lam).value


def test_curve_piece_tags_are_solutions():
    c = lp_curve(gen_path(5))
    for p in c.pieces:
        sol = p.tag
        assert sol.line == p.line
        assert sol.value == p.line.value_at(sol.lam)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = list(combinations(range(n), 2))
    return make_graph(n, [p for p in pairs if draw(st.booleans())])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_small_graphs())
def test_curve_agrees_with_solve_lp_everywhere_that_matters(g):
    c = lp_curve(g)
    mids = [(p.lo + p.hi) / 2 for p in c.pieces]
    for lam in [Fraction(0), Fraction(1)] + c.breakpoints + mids:
        assert c.value_at(lam) == solve_lp(g, lam).value, lam
    for p in c.pieces:
        assert p.tag.line == p.line
        assert p.tag.lam == p.lo


@pytest.mark.parametrize("g, line", [
    (make_graph(1, []), CostLine(0, 0)),
    (make_graph(2, []), CostLine(0, 0)),
    (make_graph(2, [(0, 1)]), CostLine(0, 1)),
    (make_graph(5, []), CostLine(0, 0)),
    (make_graph(5, combinations(range(5), 2)), CostLine(0, 10)),
], ids=["n1", "n2", "n2_edge", "edgeless5", "k5"])
def test_one_piece_curves(g, line):
    c = lp_curve(g)
    assert [(p.line, p.lo, p.hi) for p in c.pieces] == [(line, 0, 1)]


def test_curve_certified_at_ends_and_breakpoints(monkeypatch):
    real = lp_module.check_certificate
    seen = []

    def recording(prob, y, value):
        seen.append(prob.lam)
        return real(prob, y, value)

    monkeypatch.setattr(lp_module, "check_certificate", recording)
    c = lp_curve(gen_ring(3))
    assert len(c.breakpoints) == 3
    assert {Fraction(0), Fraction(1), *c.breakpoints} <= set(seen)


@pytest.mark.parametrize("where", ["zero", "breakpoint", "one"])
def test_corrupted_curve_dual_rejected(monkeypatch, where):
    g = gen_ring(3)
    lam = {"zero": Fraction(0), "one": Fraction(1),
           "breakpoint": lp_curve(g).breakpoints[0]}[where]
    real = lp_module.walk_canonical

    def forged(*args):
        for rng in real(*args):
            if lam in rng.dual_ub:
                # triangle row 0 has rhs 0, so b.y is unchanged while A^T y
                # exceeds c on two pairs
                y = list(rng.dual_ub[lam])
                y[0] -= 10
                rng.dual_ub[lam] = y
            yield rng

    monkeypatch.setattr(lp_module, "walk_canonical", forged)
    with pytest.raises(ValueError):
        lp_curve(g)


def test_solution_reports_pivots_outside_its_value():
    s = solve_lp(gen_star(5), Fraction(3, 10))
    assert s.pivots > 0
    assert dataclasses.replace(s, pivots=0) == s
    assert "pivots" not in solution_to_dict(s)
    tag_pivots = [p.tag.pivots for p in lp_curve(gen_star(5)).pieces]
    assert tag_pivots == sorted(set(tag_pivots)) and tag_pivots[-1] > 0


def test_float_mode_tracks_exact():
    g = gen_ring(3)
    for lam in (Fraction(1, 8), Fraction(1, 5), Fraction(2, 5)):
        fx = solve_lp(g, lam, mode="float")
        assert not fx.exact
        assert abs(fx.value - float(solve_lp(g, lam).value)) < 1e-8


def test_float_mode_star():
    fx = solve_lp(gen_star(5), Fraction(3, 10), mode="float")
    assert abs(fx.value - 2.6) < 1e-9


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        solve_lp(gen_star(3), Fraction(1, 2), mode="rounded")
